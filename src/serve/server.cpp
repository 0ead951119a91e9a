#include "serve/server.hpp"

#include <cctype>
#include <filesystem>
#include <memory>
#include <utility>

#include "graph/cache.hpp"
#include "graph/reorder.hpp"
#include "profile/session.hpp"
#include "serve/job.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "support/pool.hpp"
#include "support/timer.hpp"

namespace eclp::serve {

namespace {

/// Request ids become artifact file names; keep them path-safe.
std::string sanitize_for_filename(const std::string& id) {
  std::string out = id;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '_' && c != '.') {
      c = '_';
    }
  }
  return out.empty() ? std::string("request") : out;
}

}  // namespace

Server::Instruments::Instruments(metrics::Registry& m)
    : submitted(&m.counter("serve.submitted")),
      accepted(&m.counter("serve.accepted")),
      rejected(&m.counter("serve.rejected")),
      completed(&m.counter("serve.completed")),
      failed(&m.counter("serve.failed")),
      waves(&m.counter("serve.waves")),
      slow(&m.counter("serve.slow")),
      queue_depth(&m.gauge("serve.queue.depth")),
      queue_peak(&m.gauge("serve.queue.peak")),
      inflight(&m.gauge("serve.inflight")),
      wave_us(&m.histogram("serve.wave_us")),
      latency_us{} {
  for (const Algo a :
       {Algo::kCc, Algo::kGc, Algo::kMis, Algo::kMst, Algo::kScc}) {
    latency_us[static_cast<usize>(a)] =
        &m.histogram(std::string("serve.latency_us.") + algo_name(a));
  }
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      clock_(options_.clock_ns ? options_.clock_ns
                               : ClockFn([] { return monotonic_ns(); })),
      own_metrics_(options_.metrics != nullptr
                       ? nullptr
                       : std::make_unique<metrics::Registry>()),
      metrics_(options_.metrics != nullptr ? *options_.metrics
                                           : *own_metrics_),
      inst_(metrics_),
      threads_(clamp_worker_count(options_.threads)),
      graphs_(options_.graph_pool_bytes, &metrics_) {
  if (!options_.profile_dir.empty()) {
    std::filesystem::create_directories(options_.profile_dir);
  }
  if (options_.slow_ms >= 0.0) {
    if (options_.slow_dir.empty()) options_.slow_dir = options_.profile_dir;
    ECLP_CHECK_MSG(!options_.slow_dir.empty(),
                   "slow_ms needs slow_dir (or profile_dir) for artifacts");
    std::filesystem::create_directories(options_.slow_dir);
  }
  if (!options_.manual_start) start();
}

Server::~Server() {
  start();  // a never-started manual server still drains its queue
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  pending_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Server::start() {
  std::lock_guard<std::mutex> lk(mutex_);
  if (started_) return;
  started_ = true;
  workers_.reserve(threads_);
  for (u32 i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

std::future<Response> Server::submit(Request req) {
  std::unique_lock<std::mutex> lk(mutex_);
  inst_.submitted->inc();
  if (pending_.size() >= options_.max_queue) {
    inst_.rejected->inc();
    Response r;
    r.id = req.id;
    r.algo = req.algo;
    r.graph = req.graph_label();
    r.status = Status::kRejected;
    r.error = "queue full (" + std::to_string(pending_.size()) +
              " pending, bound " + std::to_string(options_.max_queue) + ")";
    if (options_.trace != nullptr) {
      const u64 trace = options_.trace->open(req.id);
      json::Value fields = json::Value::object();
      fields.set("cause", r.error);
      options_.trace->emit(trace, "rejected", std::move(fields));
      options_.trace->close(trace);
    }
    std::promise<Response> p;
    p.set_value(std::move(r));
    return p.get_future();
  }
  inst_.accepted->inc();
  Job job;
  job.request = std::move(req);
  job.submit_ns = now_ns();
  admit_locked(job);
  std::future<Response> f = job.promise.get_future();
  pending_.push_back(std::move(job));
  lk.unlock();
  pending_cv_.notify_one();
  return f;
}

std::future<Response> Server::enqueue(Request req) {
  std::unique_lock<std::mutex> lk(mutex_);
  space_cv_.wait(lk, [&] { return pending_.size() < options_.max_queue; });
  inst_.submitted->inc();
  inst_.accepted->inc();
  Job job;
  job.request = std::move(req);
  job.submit_ns = now_ns();
  admit_locked(job);
  std::future<Response> f = job.promise.get_future();
  pending_.push_back(std::move(job));
  lk.unlock();
  pending_cv_.notify_one();
  return f;
}

/// Shared admission bookkeeping (caller holds mutex_, job not yet queued):
/// queue depth/high-water accounting and the "admitted" trace event.
void Server::admit_locked(Job& job) {
  const i64 depth = static_cast<i64>(pending_.size()) + 1;
  inst_.queue_depth->set(depth);
  if (depth > inst_.queue_peak->value()) inst_.queue_peak->set(depth);
  if (options_.trace != nullptr) {
    job.traced = true;
    job.trace = options_.trace->open(job.request.id);
    json::Value fields = json::Value::object();
    fields.set("algo", algo_name(job.request.algo));
    fields.set("graph", job.request.graph_label());
    options_.trace->emit(job.trace, "admitted", std::move(fields));
  }
}

std::vector<Response> Server::serve(std::vector<Request> requests) {
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (Request& req : requests) futures.push_back(enqueue(std::move(req)));
  std::vector<Response> responses;
  responses.reserve(futures.size());
  for (std::future<Response>& f : futures) responses.push_back(f.get());
  return responses;
}

/// One serving worker: take the oldest pending request, execute it, resolve
/// its promise, repeat. No request waits for an unrelated one to finish.
void Server::worker_main() {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    pending_cv_.wait(lk, [&] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) return;  // only reachable when stopping
    Job job = std::move(pending_.front());
    pending_.pop_front();
    inst_.queue_depth->set(static_cast<i64>(pending_.size()));
    ++running_;
    if (!in_wave_) {
      in_wave_ = true;
      wave_start_ns_ = now_ns();
    }
    lk.unlock();
    space_cv_.notify_one();
    // execute() never throws: errors become Status::kError responses.
    Response r = execute(job);
    lk.lock();
    (r.status == Status::kOk ? inst_.completed : inst_.failed)->inc();
    // The busy period closes with its last request, and is recorded before
    // that response resolves: a caller that saw every response sees every
    // wave.
    if (--running_ == 0 && pending_.empty()) {
      in_wave_ = false;
      inst_.waves->inc();
      inst_.wave_us->observe((now_ns() - wave_start_ns_) / 1000);
    }
    lk.unlock();
    job.promise.set_value(std::move(r));
    lk.lock();
  }
}

std::string Server::graph_key(const Request& req) {
  const bool want_directed = req.algo == Algo::kScc;
  graph::CacheKey key;
  key.mix("eclp-serve-graph-v1");
  if (!req.input.empty()) {
    key.mix("input").mix(req.input).mix_u64(static_cast<u64>(req.scale));
  } else {
    // Keyed by path (not bytes): the pool lives inside one process and
    // maps a *request spec* to a resident graph. The on-disk cache below
    // it stays content-addressed by file bytes.
    key.mix("file").mix(req.file).mix_u64(req.directed ? 1 : 0);
  }
  key.mix_u64(want_directed ? 1 : 0);
  key.mix_u64(req.algo == Algo::kMst ? req.weights_seed : 0);
  // A reordered graph must never alias a natural-order pool entry; canonical
  // form so "random" and "random:1" share one entry. The LLC spec does not
  // change the graph bytes, but it changes every modeled result computed on
  // the pooled graph — keying it keeps "same key => same response" true.
  key.mix(graph::ReorderSpec::parse(req.reorder).canonical());
  key.mix(sim::cache_config_label(sim::parse_cache_config(req.llc)));
  return key.hex();
}

Response Server::execute(const Job& job) {
  const Request& req = job.request;
  Response r;
  r.id = req.id;
  r.algo = req.algo;
  r.graph = req.graph_label();
  inst_.inflight->add(1);
  if (job.traced) options_.trace->emit(job.trace, "started");
  try {
    graph::Pool::Pin pin =
        graphs_.acquire(graph_key(req), [&] { return prepare_graph(req); });
    r.pool_hit = pin.was_hit();
    if (job.traced) {
      json::Value fields = json::Value::object();
      fields.set("outcome", pin.was_hit() ? "hit" : "miss");
      options_.trace->emit(job.trace, "pool", std::move(fields));
    }
    const graph::Csr& g = *pin;

    sim::Device dev = make_device(req);
    // A session records when explicitly profiling (profile_dir) — with its
    // output path set up front — or speculatively when the slow-request
    // hook is armed (slow_ms >= 0), where the output path is attached only
    // if this request turns out slow (otherwise the session is dropped
    // without writing anything).
    std::unique_ptr<profile::Session> session;
    const bool profiled = !options_.profile_dir.empty();
    if (profiled || options_.slow_ms >= 0.0) {
      session = std::make_unique<profile::Session>(dev);
      session->set_meta("tool", "eclp-serve");
      session->set_meta("request", req.id);
      session->set_meta("algo", algo_name(req.algo));
      session->set_meta("graph", req.graph_label());
      session->set_meta("seed", std::to_string(req.seed));
      if (!req.reorder.empty()) session->set_meta("reorder", req.reorder);
      const sim::CacheConfig& llc = dev.cost_model().cache;
      if (llc.enabled) session->set_meta("llc", sim::cache_config_label(llc));
      if (job.traced) {
        session->set_meta("trace", TraceLog::id_string(job.trace));
      }
      if (profiled) {
        session->set_output(options_.profile_dir + "/" +
                            sanitize_for_filename(req.id) + ".json");
      }
    }

    JobOutcome out = run_job(dev, g, req);
    r.summary = std::move(out.summary);
    r.modeled_cycles = out.modeled_cycles;
    r.checksum = std::move(out.checksum);
    r.llc_hits = dev.llc_hits();
    r.llc_misses = dev.llc_misses();
    // The slow-request hook decides *before* the session is torn down:
    // exceeding the threshold attaches the artifact path, so the span
    // tree is written for exactly the slow requests.
    if (options_.slow_ms >= 0.0 &&
        static_cast<double>(now_ns() - job.submit_ns) / 1e6 >
            options_.slow_ms) {
      inst_.slow->inc();
      if (session != nullptr && !profiled) {
        session->set_output(options_.slow_dir + "/" +
                            sanitize_for_filename(req.id) + ".json");
      }
    }
    session.reset();  // write the per-request artifacts before responding
    ECLP_CHECK_MSG(out.verified,
                   "request " << req.id << ": verification FAILED");
    r.status = Status::kOk;
  } catch (const CheckFailure& e) {
    r.status = Status::kError;
    r.error = std::string(e.message());
  } catch (const std::exception& e) {
    r.status = Status::kError;
    r.error = e.what();
  }
  r.wall_ms = static_cast<double>(now_ns() - job.submit_ns) / 1e6;
  inst_.latency_us[static_cast<usize>(req.algo)]->observe(
      static_cast<u64>(r.wall_ms * 1e3));
  inst_.inflight->sub(1);
  if (job.traced) {
    json::Value fields = json::Value::object();
    fields.set("status", status_name(r.status));
    fields.set("wall_us", static_cast<u64>(r.wall_ms * 1e3));
    if (!r.error.empty()) fields.set("cause", r.error);
    options_.trace->emit(job.trace, "finished", std::move(fields));
    options_.trace->close(job.trace);
  }
  return r;
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    s.submitted = inst_.submitted->value();
    s.accepted = inst_.accepted->value();
    s.rejected = inst_.rejected->value();
    s.completed = inst_.completed->value();
    s.failed = inst_.failed->value();
    s.queue_depth = static_cast<u64>(inst_.queue_depth->value());
    s.queue_peak = static_cast<u64>(inst_.queue_peak->value());
  }
  s.graphs = graphs_.stats();
  return s;
}

json::Value stats_to_json(const ServerStats& s) {
  json::Value v = json::Value::object();
  v.set("submitted", s.submitted);
  v.set("accepted", s.accepted);
  v.set("rejected", s.rejected);
  v.set("completed", s.completed);
  v.set("failed", s.failed);
  v.set("queue_depth", s.queue_depth);
  v.set("queue_peak", s.queue_peak);
  json::Value g = json::Value::object();
  g.set("requests", s.graphs.requests);
  g.set("hits", s.graphs.hits);
  g.set("misses", s.graphs.misses);
  g.set("evictions", s.graphs.evictions);
  g.set("bytes", s.graphs.bytes);
  g.set("peak_bytes", s.graphs.peak_bytes);
  g.set("entries", s.graphs.entries);
  g.set("pins", s.graphs.pins);
  v.set("graph_pool", std::move(g));
  return v;
}

}  // namespace eclp::serve
