#include "profile/session.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string_view>

#include "support/timer.hpp"

namespace eclp::profile {

namespace {

thread_local Session* tl_current_session = nullptr;

/// Per-outcome session deltas reported under "atomics.<outcome>" in the
/// profile document's counters section (paper §3.1.5: outcome
/// classification is the part hardware profilers cannot see).
struct OutcomeName {
  sim::AtomicOutcome outcome;
  const char* name;
};
constexpr OutcomeName kOutcomes[] = {
    {sim::AtomicOutcome::kCasSuccess, "atomics.cas_success"},
    {sim::AtomicOutcome::kCasFailure, "atomics.cas_failure"},
    {sim::AtomicOutcome::kMinEffective, "atomics.min_effective"},
    {sim::AtomicOutcome::kMinIneffective, "atomics.min_ineffective"},
    {sim::AtomicOutcome::kMaxEffective, "atomics.max_effective"},
    {sim::AtomicOutcome::kMaxIneffective, "atomics.max_ineffective"},
    {sim::AtomicOutcome::kAdd, "atomics.add"},
};

/// Per-block Perfetto tracks are emitted for kernel launches with at most
/// this many blocks; huge grids would drown the UI.
constexpr u32 kMaxBlockTracks = 64;

bool has_block_tracks(const Span& s) {
  return s.kind == SpanKind::kKernel && !s.block_cycles.empty() &&
         s.blocks <= kMaxBlockTracks;
}

}  // namespace

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAlgorithm: return "algorithm";
    case SpanKind::kPhase: return "phase";
    case SpanKind::kIteration: return "iteration";
    case SpanKind::kOperator: return "operator";
    case SpanKind::kKernel: return "kernel";
  }
  return "unknown";
}

Session::Session(sim::Device& dev, CounterRegistry* registry, Options options)
    : dev_(dev),
      registry_(registry),
      options_(options),
      epoch_ns_(monotonic_ns()),
      start_cycles_(dev.total_cycles()),
      start_launches_(dev.kernel_launches()),
      start_llc_hits_(dev.llc_hits()),
      start_llc_misses_(dev.llc_misses()),
      atomics_at_start_(dev.atomic_stats()) {
  prev_observer_ = dev_.launch_observer();
  dev_.set_launch_observer(this);
  if (Pool* pool = dev_.pool(); pool != nullptr && pool->claim_sampling()) {
    sampled_pool_ = pool;
  }
  prev_current_ = tl_current_session;
  tl_current_session = this;
}

Session::~Session() {
  finalize();
  // Detach before writing so artifact I/O can never re-enter on_launch.
  if (dev_.launch_observer() == this) dev_.set_launch_observer(prev_observer_);
  if (tl_current_session == this) tl_current_session = prev_current_;
  if (!output_path_.empty()) write(output_path_);
}

Session* Session::current() { return tl_current_session; }

std::vector<std::pair<std::string, u64>> Session::snapshot_counters() const {
  std::vector<std::pair<std::string, u64>> totals;
  if (registry_ == nullptr) return totals;
  totals.reserve(registry_->size());
  registry_->for_each(
      [&](const std::string& name, const Counter& c) {
        totals.emplace_back(name, c.total());
      });
  return totals;
}

u32 Session::open_span(std::string name, SpanKind kind) {
  ECLP_CHECK_MSG(!finalized_, "open_span on a finalized session");
  Span span;
  span.id = static_cast<u32>(spans_.size());
  span.parent = stack_.empty() ? -1 : static_cast<i32>(stack_.back().span_id);
  span.depth = static_cast<u32>(stack_.size());
  span.name = std::move(name);
  span.kind = kind;
  span.start_cycles = dev_.total_cycles();
  span.wall_start_ns = monotonic_ns() - epoch_ns_;
  OpenState open;
  open.span_id = span.id;
  open.atomics_at_open = dev_.atomic_stats().total();
  open.launches_at_open = dev_.kernel_launches();
  open.llc_hits_at_open = dev_.llc_hits();
  open.llc_misses_at_open = dev_.llc_misses();
  open.counter_totals = snapshot_counters();
  spans_.push_back(std::move(span));
  stack_.push_back(std::move(open));
  return spans_.back().id;
}

void Session::close_span(u32 id) {
  ECLP_CHECK_MSG(!stack_.empty(), "close_span with no span open");
  ECLP_CHECK_MSG(stack_.back().span_id == id,
                 "close_span out of order: closing " << id << " but innermost is "
                                                     << stack_.back().span_id);
  OpenState open = std::move(stack_.back());
  stack_.pop_back();
  Span& span = spans_[id];
  span.end_cycles = dev_.total_cycles();
  span.wall_end_ns = monotonic_ns() - epoch_ns_;
  span.atomics = dev_.atomic_stats().total() - open.atomics_at_open;
  span.launches = dev_.kernel_launches() - open.launches_at_open;
  span.llc_hits = dev_.llc_hits() - open.llc_hits_at_open;
  span.llc_misses = dev_.llc_misses() - open.llc_misses_at_open;
  if (registry_ != nullptr) {
    // The registry's counter set can only grow, and for_each is name-ordered,
    // so the open snapshot is an ordered subsequence of the close snapshot:
    // one forward scan pairs them up. Counters born inside the span diff
    // against zero.
    const auto now = snapshot_counters();
    usize j = 0;
    for (const auto& [name, total] : now) {
      u64 before = 0;
      while (j < open.counter_totals.size() &&
             open.counter_totals[j].first < name) {
        ++j;
      }
      if (j < open.counter_totals.size() &&
          open.counter_totals[j].first == name) {
        before = open.counter_totals[j].second;
      }
      if (total != before) span.counters.emplace_back(name, total - before);
    }
    emit_counter_samples(span.end_cycles);
  }
}

void Session::emit_counter_samples(u64 at_cycles) {
  // One Perfetto counter sample per registry counter per span close, only
  // when the total moved since the last sample — keeps traces compact.
  const auto now = snapshot_counters();
  usize j = 0;
  for (const auto& [name, total] : now) {
    u64 last = 0;
    bool seen = false;
    while (j < last_sampled_totals_.size() &&
           last_sampled_totals_[j].first < name) {
      ++j;
    }
    if (j < last_sampled_totals_.size() &&
        last_sampled_totals_[j].first == name) {
      last = last_sampled_totals_[j].second;
      seen = true;
    }
    if (!seen || total != last) {
      counter_samples_.push_back({at_cycles, name, total});
    }
  }
  last_sampled_totals_ = now;
}

void Session::on_launch(const sim::KernelStats& stats, u64 atomics_delta,
                        u64 wall_ns, std::span<const u64> block_cycles) {
  Span span;
  span.id = static_cast<u32>(spans_.size());
  span.parent = stack_.empty() ? -1 : static_cast<i32>(stack_.back().span_id);
  span.depth = static_cast<u32>(stack_.size());
  span.name = stats.name;
  span.kind = SpanKind::kKernel;
  // The device has already charged this launch to its running total.
  span.end_cycles = dev_.total_cycles();
  span.start_cycles = span.end_cycles - stats.cost.modeled_cycles;
  const u64 wall_end = monotonic_ns() - epoch_ns_;
  span.wall_end_ns = wall_end;
  span.wall_start_ns = wall_ns > wall_end ? 0 : wall_end - wall_ns;
  span.atomics = atomics_delta;
  span.launches = 1;
  span.llc_hits = stats.cost.llc_hits;
  span.llc_misses = stats.cost.llc_misses;
  span.blocks = stats.config.blocks;
  span.threads_per_block = stats.config.threads_per_block;
  span.active_threads = stats.cost.active_threads;
  span.idle_threads = stats.cost.idle_threads;
  span.imbalance = stats.cost.imbalance();
  span.block_cycles.assign(block_cycles.begin(), block_cycles.end());
  spans_.push_back(std::move(span));
  // Chain to any previously attached observer so sessions stack.
  if (prev_observer_ != nullptr) {
    prev_observer_->on_launch(stats, atomics_delta, wall_ns, block_cycles);
  }
}

void Session::finalize() {
  if (finalized_) return;
  while (!stack_.empty()) close_span(stack_.back().span_id);
  finalize_wall_ns_ = monotonic_ns() - epoch_ns_;
  final_cycles_ = dev_.total_cycles();
  final_launches_ = dev_.kernel_launches();
  final_llc_hits_ = dev_.llc_hits();
  final_llc_misses_ = dev_.llc_misses();
  atomics_at_end_ = dev_.atomic_stats();
  if (sampled_pool_ != nullptr) {
    workers_ = sampled_pool_->worker_samples();
    sampled_pool_->release_sampling();
    sampled_pool_ = nullptr;
  }
  finalized_ = true;
}

void Session::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

void Session::set_output(std::string profile_path) {
  output_path_ = std::move(profile_path);
}

std::string Session::trace_path_for(const std::string& profile_path) {
  constexpr std::string_view kJson = ".json";
  if (profile_path.size() > kJson.size() &&
      profile_path.compare(profile_path.size() - kJson.size(), kJson.size(),
                           kJson) == 0) {
    return profile_path.substr(0, profile_path.size() - kJson.size()) +
           ".trace.json";
  }
  return profile_path + ".trace.json";
}

// --- Perfetto (Chrome trace-event) export ------------------------------------

std::string Session::perfetto_json() {
  finalize();
  json::Value events = json::Value::array();

  const auto meta_event = [&](const char* what, u64 tid, const std::string& n) {
    json::Value e = json::Value::object();
    e.set("ph", "M");
    e.set("pid", u64{1});
    if (tid != 0) e.set("tid", tid);
    e.set("name", what);
    json::Value args = json::Value::object();
    args.set("name", n);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  };

  std::string process_name = "eclp";
  for (const auto& [k, v] : meta_) {
    if (k == "algo") process_name = "eclp " + v;
  }
  meta_event("process_name", 0, process_name);
  meta_event("thread_name", 1, "phases");
  meta_event("thread_name", 2, "kernels");

  // Per-block tracks: tid 100 + block, one track set shared by all launches
  // small enough to qualify. Name only the tracks actually used.
  u32 block_tracks = 0;
  for (const Span& s : spans_) {
    if (has_block_tracks(s)) block_tracks = std::max(block_tracks, s.blocks);
  }
  for (u32 b = 0; b < block_tracks; ++b) {
    meta_event("thread_name", 100 + b, "block " + std::to_string(b));
  }

  const auto push_span = [&](const Span& s) {
    json::Value e = json::Value::object();
    e.set("ph", "X");
    e.set("pid", u64{1});
    e.set("tid", s.kind == SpanKind::kKernel ? u64{2} : u64{1});
    e.set("ts", s.start_cycles - start_cycles_);
    e.set("dur", s.cycles());
    e.set("name", s.name);
    e.set("cat", span_kind_name(s.kind));
    json::Value args = json::Value::object();
    args.set("atomics", s.atomics);
    if (s.kind == SpanKind::kKernel) {
      args.set("blocks", s.blocks);
      args.set("threads_per_block", s.threads_per_block);
      args.set("active_threads", s.active_threads);
      args.set("idle_threads", s.idle_threads);
      args.set("imbalance", s.imbalance);
      if (s.llc_hits + s.llc_misses > 0) {
        args.set("llc_hits", s.llc_hits);
        args.set("llc_misses", s.llc_misses);
      }
    } else {
      args.set("launches", s.launches);
      for (const auto& [name, delta] : s.counters) args.set(name, delta);
    }
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  };

  // Modeled-LLC counter tracks: one cumulative sample per kernel launch
  // that classified anything. Emitted from span data (not the registry
  // sampler) so the tracks line up with kernel span ends exactly; absent
  // entirely while the cache is disabled.
  u64 llc_hits_running = 0;
  u64 llc_misses_running = 0;
  const auto push_llc_sample = [&](const char* name, u64 ts, u64 total) {
    json::Value e = json::Value::object();
    e.set("ph", "C");
    e.set("pid", u64{1});
    e.set("ts", ts);
    e.set("name", name);
    json::Value args = json::Value::object();
    args.set("value", total);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  };

  for (const Span& s : spans_) {
    push_span(s);
    if (s.kind == SpanKind::kKernel && s.llc_hits + s.llc_misses > 0) {
      llc_hits_running += s.llc_hits;
      llc_misses_running += s.llc_misses;
      const u64 ts = s.end_cycles - start_cycles_;
      push_llc_sample("llc.hits", ts, llc_hits_running);
      push_llc_sample("llc.misses", ts, llc_misses_running);
    }
    if (has_block_tracks(s)) {
      for (u32 b = 0; b < s.block_cycles.size(); ++b) {
        json::Value e = json::Value::object();
        e.set("ph", "X");
        e.set("pid", u64{1});
        e.set("tid", u64{100} + b);
        e.set("ts", s.start_cycles - start_cycles_);
        e.set("dur", s.block_cycles[b]);
        e.set("name", s.name);
        e.set("cat", "block");
        events.push_back(std::move(e));
      }
    }
  }

  for (const CounterSample& cs : counter_samples_) {
    json::Value e = json::Value::object();
    e.set("ph", "C");
    e.set("pid", u64{1});
    e.set("ts", cs.cycles - start_cycles_);
    e.set("name", cs.name);
    json::Value args = json::Value::object();
    args.set("value", cs.total);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }

  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  // The "microseconds" here are modeled device cycles (1 cycle == 1 µs in
  // the UI) — deliberately not wall-clock, so traces are deterministic.
  doc.set("displayTimeUnit", "ms");
  return doc.dump(1) + "\n";
}

// --- versioned profile document ----------------------------------------------

json::Value Session::profile() {
  finalize();
  json::Value doc = json::Value::object();
  doc.set("schema", "eclp.profile");
  doc.set("version", u64{1});

  json::Value meta = json::Value::object();
  for (const auto& [k, v] : meta_) meta.set(k, v);
  doc.set("meta", std::move(meta));

  json::Value totals = json::Value::object();
  totals.set("modeled_cycles", final_cycles_ - start_cycles_);
  totals.set("launches", final_launches_ - start_launches_);
  totals.set("atomics", atomics_at_end_.total() - atomics_at_start_.total());
  const u64 total_llc_hits = final_llc_hits_ - start_llc_hits_;
  const u64 total_llc_misses = final_llc_misses_ - start_llc_misses_;
  // Modeled-LLC fields appear only when the cache classified something, so
  // cache-off documents (the default, and every committed golden) are
  // byte-identical to the pre-LLC schema.
  if (total_llc_hits + total_llc_misses > 0) {
    totals.set("llc_hits", total_llc_hits);
    totals.set("llc_misses", total_llc_misses);
  }
  totals.set("spans", static_cast<u64>(spans_.size()));
  if (options_.record_wall) totals.set("wall_ns", finalize_wall_ns_);
  doc.set("totals", std::move(totals));

  json::Value spans = json::Value::array();
  for (const Span& s : spans_) {
    json::Value j = json::Value::object();
    j.set("id", s.id);
    j.set("parent", static_cast<i64>(s.parent));
    j.set("kind", span_kind_name(s.kind));
    j.set("name", s.name);
    j.set("start_cycles", s.start_cycles - start_cycles_);
    j.set("cycles", s.cycles());
    j.set("atomics", s.atomics);
    if (s.llc_hits + s.llc_misses > 0) {
      j.set("llc_hits", s.llc_hits);
      j.set("llc_misses", s.llc_misses);
    }
    if (s.kind != SpanKind::kKernel) j.set("launches", s.launches);
    if (options_.record_wall) j.set("wall_ns", s.wall_ns());
    if (!s.counters.empty()) {
      json::Value deltas = json::Value::object();
      for (const auto& [name, delta] : s.counters) deltas.set(name, delta);
      j.set("counters", std::move(deltas));
    }
    if (s.kind == SpanKind::kKernel) {
      j.set("blocks", s.blocks);
      j.set("threads_per_block", s.threads_per_block);
      j.set("active_threads", s.active_threads);
      j.set("idle_threads", s.idle_threads);
      j.set("imbalance", s.imbalance);
    }
    spans.push_back(std::move(j));
  }
  doc.set("spans", std::move(spans));

  // Per-kernel aggregation, name-ordered — the unit eclp_profile_diff gates.
  struct KernelAgg {
    u64 launches = 0;
    u64 cycles = 0;
    u64 atomics = 0;
    u64 active_threads = 0;
    u64 idle_threads = 0;
    u64 llc_hits = 0;
    u64 llc_misses = 0;
    double max_imbalance = 0.0;
  };
  std::map<std::string, KernelAgg> by_kernel;
  for (const Span& s : spans_) {
    if (s.kind != SpanKind::kKernel) continue;
    KernelAgg& agg = by_kernel[s.name];
    agg.launches += 1;
    agg.cycles += s.cycles();
    agg.atomics += s.atomics;
    agg.active_threads += s.active_threads;
    agg.idle_threads += s.idle_threads;
    agg.llc_hits += s.llc_hits;
    agg.llc_misses += s.llc_misses;
    agg.max_imbalance = std::max(agg.max_imbalance, s.imbalance);
  }
  json::Value kernels = json::Value::array();
  for (const auto& [name, agg] : by_kernel) {
    json::Value j = json::Value::object();
    j.set("name", name);
    j.set("launches", agg.launches);
    j.set("modeled_cycles", agg.cycles);
    j.set("atomics", agg.atomics);
    j.set("active_threads", agg.active_threads);
    j.set("idle_threads", agg.idle_threads);
    if (agg.llc_hits + agg.llc_misses > 0) {
      j.set("llc_hits", agg.llc_hits);
      j.set("llc_misses", agg.llc_misses);
    }
    j.set("max_imbalance", agg.max_imbalance);
    kernels.push_back(std::move(j));
  }
  doc.set("kernels", std::move(kernels));

  json::Value counters = json::Value::object();
  for (const auto& [outcome, name] : kOutcomes) {
    const u64 delta =
        atomics_at_end_.count(outcome) - atomics_at_start_.count(outcome);
    if (delta != 0) counters.set(name, delta);
  }
  // Modeled-LLC session totals, gated like every other counter by diff.
  if (total_llc_hits + total_llc_misses > 0) {
    counters.set("llc.hits", total_llc_hits);
    counters.set("llc.misses", total_llc_misses);
  }
  if (registry_ != nullptr) {
    registry_->for_each([&](const std::string& name, const Counter& c) {
      counters.set(name, c.total());
    });
  }
  doc.set("counters", std::move(counters));

  json::Value workers = json::Value::array();
  if (options_.record_wall) {
    for (const Pool::WorkerSample& w : workers_) {
      json::Value j = json::Value::object();
      j.set("worker", w.worker);
      j.set("busy_ns", w.busy_ns);
      j.set("drains", w.drains);
      j.set("tasks", w.tasks);
      j.set("utilization",
            finalize_wall_ns_ == 0
                ? 0.0
                : static_cast<double>(w.busy_ns) /
                      static_cast<double>(finalize_wall_ns_));
      workers.push_back(std::move(j));
    }
  }
  doc.set("workers", std::move(workers));
  return doc;
}

std::string Session::profile_json() { return profile().dump(1) + "\n"; }

bool Session::write(const std::string& profile_path) {
  const auto write_file = [](const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "eclp: cannot write profile artifact '%s'\n",
                   path.c_str());
      return false;
    }
    out << body;
    return static_cast<bool>(out);
  };
  const bool a = write_file(profile_path, profile_json());
  const bool b = write_file(trace_path_for(profile_path), perfetto_json());
  return a && b;
}

}  // namespace eclp::profile
