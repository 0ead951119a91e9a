#include "graph/pool.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace eclp::graph {

u64 graph_bytes(const Csr& g) {
  return g.row_offsets().size_bytes() + g.col_indices().size_bytes() +
         g.weights().size_bytes();
}

Pool::Pool(u64 byte_budget, metrics::Registry* registry)
    : budget_(byte_budget) {
  if (registry == nullptr) {
    own_metrics_ = std::make_unique<metrics::Registry>();
    registry = own_metrics_.get();
  }
  m_hits_ = &registry->counter("pool.hits");
  m_misses_ = &registry->counter("pool.misses");
  m_evictions_ = &registry->counter("pool.evictions");
  m_bytes_ = &registry->gauge("pool.bytes");
  m_entries_ = &registry->gauge("pool.entries");
}

Pool::~Pool() {
  std::lock_guard<std::mutex> lk(mutex_);
  for (const auto& [key, e] : entries_) {
    // A pool must outlive its pins: destruction with live pins would leave
    // them releasing into freed memory.
    ECLP_CHECK_MSG(e->pins == 0, "graph::Pool destroyed with '"
                                     << key << "' still pinned");
  }
}

Pool::Pin Pool::acquire(const std::string& key,
                        const std::function<Csr()>& build) {
  std::unique_lock<std::mutex> lk(mutex_);
  // A request is counted when it is classified as a hit or a miss, under
  // the lock stats() reads under, so stats() observers see hits + misses ==
  // requests at every instant, including while builds (or failed-build
  // retries) are in flight.
  for (;;) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      Entry* e = it->second.get();
      if (e->building) {
        // Another thread is building this key: wait for the build to land
        // (or for the failed placeholder to disappear) and re-evaluate.
        built_cv_.wait(lk, [&] {
          auto again = entries_.find(key);
          return again == entries_.end() || !again->second->building;
        });
        continue;
      }
      e->pins++;
      e->last_use = ++clock_;
      m_hits_->inc();
      Pin pin;
      pin.pool_ = this;
      pin.entry_ = e;
      pin.graph_ = e->graph;
      pin.hit_ = true;
      return pin;
    }

    // Miss: install a pre-pinned placeholder (un-evictable, and the signal
    // that concurrent acquires of this key must wait), build unlocked.
    auto placeholder = std::make_unique<Entry>();
    placeholder->key = key;
    placeholder->pins = 1;
    Entry* e = entries_.emplace(key, std::move(placeholder))
                   .first->second.get();
    m_misses_->inc();
    m_entries_->set(static_cast<i64>(entries_.size()));
    lk.unlock();
    Csr g;
    try {
      g = build();
    } catch (...) {
      lk.lock();
      entries_.erase(key);
      m_entries_->set(static_cast<i64>(entries_.size()));
      built_cv_.notify_all();
      throw;
    }
    auto shared = std::make_shared<const Csr>(std::move(g));
    lk.lock();
    e->graph = shared;
    e->bytes = graph_bytes(*shared);
    e->building = false;
    e->last_use = ++clock_;
    m_bytes_->add(static_cast<i64>(e->bytes));
    peak_bytes_ = std::max(peak_bytes_, static_cast<u64>(m_bytes_->value()));
    evict_to_budget_locked();
    built_cv_.notify_all();
    Pin pin;
    pin.pool_ = this;
    pin.entry_ = e;
    pin.graph_ = std::move(shared);
    pin.hit_ = false;
    return pin;
  }
}

void Pool::release(Entry* e) {
  std::lock_guard<std::mutex> lk(mutex_);
  ECLP_CHECK_MSG(e->pins > 0, "graph::Pool pin released twice");
  e->pins--;
  e->last_use = ++clock_;
  // Pinned entries block eviction, so budget overshoot can only be paid
  // down when a pin drops.
  if (e->pins == 0) evict_to_budget_locked();
}

void Pool::evict_to_budget_locked() {
  while (static_cast<u64>(m_bytes_->value()) > budget_) {
    Entry* victim = nullptr;
    for (const auto& [key, e] : entries_) {
      if (e->pins != 0 || e->building) continue;  // never evict pinned
      if (victim == nullptr || e->last_use < victim->last_use) {
        victim = e.get();
      }
    }
    if (victim == nullptr) return;  // everything resident is pinned
    ECLP_CHECK(victim->pins == 0);
    m_bytes_->sub(static_cast<i64>(victim->bytes));
    m_evictions_->inc();
    entries_.erase(victim->key);
    m_entries_->set(static_cast<i64>(entries_.size()));
  }
}

PoolStats Pool::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  PoolStats s;
  s.hits = m_hits_->value();
  s.misses = m_misses_->value();
  s.requests = s.hits + s.misses;
  s.evictions = m_evictions_->value();
  s.bytes = static_cast<u64>(m_bytes_->value());
  s.peak_bytes = peak_bytes_;
  for (const auto& [key, e] : entries_) {
    s.entries++;
    if (e->pins > 0) s.pinned++;
    s.pins += e->pins;
  }
  return s;
}

bool Pool::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mutex_);
  const auto it = entries_.find(key);
  return it != entries_.end() && !it->second->building;
}

}  // namespace eclp::graph
