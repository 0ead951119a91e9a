#include "sim/pool.hpp"

#include <memory>
#include <mutex>

namespace eclp::sim {

namespace {

std::mutex g_config_mutex;
u32 g_sim_threads = 0;  // 0 = not yet initialized from the environment
std::unique_ptr<Pool> g_shared_pool;

u32 sim_threads_locked() {
  if (g_sim_threads == 0) {
    g_sim_threads = worker_count_from_env("ECLP_SIM_THREADS", 1);
  }
  return g_sim_threads;
}

}  // namespace

u32 sim_threads() {
  std::lock_guard<std::mutex> lk(g_config_mutex);
  return sim_threads_locked();
}

void set_sim_threads(u32 n) {
  std::lock_guard<std::mutex> lk(g_config_mutex);
  g_sim_threads = clamp_worker_count(n);
  if (g_shared_pool != nullptr && g_shared_pool->size() != g_sim_threads) {
    g_shared_pool.reset();
  }
}

Pool* shared_pool() {
  std::lock_guard<std::mutex> lk(g_config_mutex);
  const u32 threads = sim_threads_locked();
  if (threads <= 1) return nullptr;
  if (g_shared_pool == nullptr) g_shared_pool = std::make_unique<Pool>(threads);
  return g_shared_pool.get();
}

}  // namespace eclp::sim
