#include "support/parallel_for.hpp"

#include <memory>
#include <mutex>

namespace eclp {

namespace {

std::mutex g_mutex;
u32 g_build_threads = 0;  // 0 = not yet initialized from the environment
std::unique_ptr<Pool> g_build_pool;

u32 build_threads_locked() {
  if (g_build_threads == 0) {
    g_build_threads = worker_count_from_env("ECLP_BUILD_THREADS", 0);
  }
  return g_build_threads;
}

}  // namespace

u32 build_threads() {
  std::lock_guard<std::mutex> lk(g_mutex);
  return build_threads_locked();
}

void set_build_threads(u32 n) {
  std::lock_guard<std::mutex> lk(g_mutex);
  g_build_threads = clamp_worker_count(n);
  if (g_build_pool != nullptr && g_build_pool->size() != g_build_threads) {
    g_build_pool.reset();
  }
}

Pool* build_pool() {
  std::lock_guard<std::mutex> lk(g_mutex);
  const u32 threads = build_threads_locked();
  if (threads <= 1) return nullptr;
  if (g_build_pool == nullptr) {
    g_build_pool = std::make_unique<Pool>(threads);
  }
  return g_build_pool.get();
}

}  // namespace eclp
