#include "support/pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "support/timer.hpp"

namespace eclp {

namespace {

thread_local bool tl_inside_run = false;

u32 hardware_workers() {
  const u32 hw = std::thread::hardware_concurrency();
  return std::clamp<u32>(hw == 0 ? 1 : hw, 1, kMaxWorkerSlots);
}

}  // namespace

u32 clamp_worker_count(u32 n) {
  if (n == 0) return hardware_workers();
  return std::clamp<u32>(n, 1, kMaxWorkerSlots);
}

u32 worker_count_from_env(const char* name, u32 fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return clamp_worker_count(fallback);
  const char* end = s + std::strlen(s);
  u32 v = 0;
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (s == end || ec != std::errc() || ptr != end) {
    return clamp_worker_count(fallback);
  }
  return clamp_worker_count(v);
}

Pool::Pool(u32 workers)
    : workers_(clamp_worker_count(workers)),
      chunks_(workers_),
      samples_(workers_) {
  threads_.reserve(workers_ - 1);
  for (u32 slot = 1; slot < workers_; ++slot) {
    threads_.emplace_back([this, slot] { worker_main(slot); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lk(job_mutex_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Pool::run(u64 tasks, const std::function<void(u64, u32)>& fn) {
  if (tasks == 0) return;
  const auto run_inline = [&] {
    const u32 slot = current_worker_slot();
    for (u64 t = 0; t < tasks; ++t) fn(t, slot);
  };
  // Inline sequential execution: a pool of one, or a reentrant call from
  // inside a task (a simulated kernel launching from a worker).
  if (workers_ == 1 || tl_inside_run) return run_inline();
  // The workers serve one run at a time. A caller on another thread that
  // finds them busy (two graph builds on different serving threads) runs
  // its tasks inline rather than wait for, or corrupt, the job in flight.
  std::unique_lock<std::mutex> owner(run_mutex_, std::try_to_lock);
  if (!owner.owns_lock()) return run_inline();

  // Split [0, tasks) into one contiguous chunk per worker; the front
  // workers absorb the remainder.
  const u64 per = tasks / workers_;
  const u64 extra = tasks % workers_;
  u64 begin = 0;
  for (u32 w = 0; w < workers_; ++w) {
    const u64 len = per + (w < extra ? 1 : 0);
    chunks_[w].next.store(begin, std::memory_order_relaxed);
    chunks_[w].end.store(begin + len, std::memory_order_relaxed);
    begin += len;
  }
  failed_task_ = ~u64{0};
  failure_ = nullptr;

  {
    std::lock_guard<std::mutex> lk(job_mutex_);
    job_ = &fn;
    active_ = workers_;
    ++generation_;
  }
  job_cv_.notify_all();

  tl_inside_run = true;
  drain(0, fn);
  tl_inside_run = false;

  {
    std::unique_lock<std::mutex> lk(job_mutex_);
    --active_;
    done_cv_.wait(lk, [this] { return active_ == 0; });
    job_ = nullptr;
  }

  if (failure_ != nullptr) {
    std::exception_ptr e = failure_;
    failure_ = nullptr;
    failed_task_ = ~u64{0};
    std::rethrow_exception(e);
  }
}

void Pool::worker_main(u32 slot) {
  set_current_worker_slot(slot);
  tl_inside_run = true;  // everything a worker runs is inside some run()
  u64 seen = 0;
  std::unique_lock<std::mutex> lk(job_mutex_);
  while (true) {
    job_cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    const std::function<void(u64, u32)>* fn = job_;
    lk.unlock();
    drain(slot, *fn);
    lk.lock();
    if (--active_ == 0) done_cv_.notify_all();
  }
}

void Pool::drain(u32 slot, const std::function<void(u64, u32)>& fn) {
  const bool sample = sampling_.load(std::memory_order_relaxed);
  const u64 t0 = sample ? monotonic_ns() : 0;
  u64 executed = 0;
  u64 task;
  while (claim(slot, task)) {
    try {
      fn(task, slot);
    } catch (...) {
      record_failure(task);
    }
    ++executed;
  }
  if (sample) {
    SampleSlot& s = samples_[slot];
    s.busy_ns += monotonic_ns() - t0;
    s.drains += 1;
    s.tasks += executed;
  }
}

bool Pool::claim(u32 slot, u64& task) {
  // Note: a recorded failure does NOT stop claiming. Every task runs even
  // when some fail, so the rethrown exception is always the one of the
  // globally lowest failing index — the same task a sequential sweep would
  // have reported first — independent of scheduling.
  Chunk& mine = chunks_[slot];
  {
    std::lock_guard<std::mutex> lk(mine.m);
    const u64 n = mine.next.load(std::memory_order_relaxed);
    if (n < mine.end.load(std::memory_order_relaxed)) {
      mine.next.store(n + 1, std::memory_order_relaxed);
      task = n;
      return true;
    }
  }
  // Own chunk is dry: steal the upper half of the largest remaining chunk.
  while (true) {
    u32 victim = workers_;
    u64 best_remaining = 0;
    for (u32 w = 0; w < workers_; ++w) {
      if (w == slot) continue;
      const u64 n = chunks_[w].next.load(std::memory_order_relaxed);
      const u64 e = chunks_[w].end.load(std::memory_order_relaxed);
      const u64 remaining = e > n ? e - n : 0;
      if (remaining > best_remaining) {
        best_remaining = remaining;
        victim = w;
      }
    }
    if (victim == workers_) return false;  // nothing anywhere: job is done
    Chunk& v = chunks_[victim];
    u64 mid, e;
    {
      // Never hold the victim's lock while taking our own: two thieves
      // stealing from each other would deadlock.
      std::lock_guard<std::mutex> vlk(v.m);
      const u64 n = v.next.load(std::memory_order_relaxed);
      e = v.end.load(std::memory_order_relaxed);
      if (n >= e) continue;  // lost the race; rescan
      if (e - n == 1) {
        // A single task: take it directly rather than re-splitting.
        v.next.store(n + 1, std::memory_order_relaxed);
        task = n;
        return true;
      }
      mid = n + (e - n) / 2;
      v.end.store(mid, std::memory_order_relaxed);
    }
    // The range [mid, e) is now ours alone: execute `mid`, install the rest.
    std::lock_guard<std::mutex> mlk(mine.m);
    mine.next.store(mid + 1, std::memory_order_relaxed);
    mine.end.store(e, std::memory_order_relaxed);
    task = mid;
    return true;
  }
}

bool Pool::claim_sampling() {
  std::lock_guard<std::mutex> lk(run_mutex_);
  bool unclaimed = false;
  if (!sampling_.compare_exchange_strong(unclaimed, true)) return false;
  for (SampleSlot& s : samples_) s = SampleSlot{};
  return true;
}

std::vector<Pool::WorkerSample> Pool::worker_samples() const {
  std::lock_guard<std::mutex> lk(run_mutex_);
  std::vector<WorkerSample> out(workers_);
  for (u32 w = 0; w < workers_; ++w) {
    out[w].worker = w;
    out[w].busy_ns = samples_[w].busy_ns;
    out[w].drains = samples_[w].drains;
    out[w].tasks = samples_[w].tasks;
  }
  return out;
}

void Pool::record_failure(u64 task) {
  std::lock_guard<std::mutex> lk(failure_mutex_);
  if (task < failed_task_) {
    failed_task_ = task;
    failure_ = std::current_exception();
  }
}

}  // namespace eclp
