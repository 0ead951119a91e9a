// serve-warm and serve-churn: a closed loop of kClients client threads over
// one in-process Server — each client enqueues a request and waits for its
// response before sending the next, as eclp-serve callers do.
//
// serve-warm keeps every graph resident, so simulation and the dispatcher
// do nearly all the work and ingest changes should not move it. serve-churn
// runs the same mix with a reorder per general request and a pool budget
// near a quarter of the working set, so the pool misses, evicts and builds
// (generation and reordering run inside serving) most of the time.
//
// Every response's checksum and modeled cycles must equal set-up's direct
// run of the same spec.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "e2e.hpp"
#include "gen/suite.hpp"
#include "graph/pool.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "support/metrics.hpp"
#include "support/prng.hpp"
#include "support/rss.hpp"
#include "support/stats.hpp"

namespace eclp::e2e {

namespace {

using serve::Algo;

const char* const kGeneralInputs[] = {"soc-LiveJournal1", "europe_osm",
                                      "kron_g500-logn21", "delaunay_n24"};
const char* const kMeshInputs[] = {"toroid-hex", "cold-flow"};
constexpr Algo kGeneralAlgos[] = {Algo::kCc, Algo::kGc, Algo::kMis,
                                  Algo::kMst};

/// Requests per round of each general (algorithm, input) pair and of each
/// SCC mesh. A mesh request runs about ten times longer than a general one;
/// two per round keep the meshes near a third of the round's work.
constexpr u32 kGeneralCopies = 6;
constexpr u32 kMeshCopies = 2;
/// serve-warm's pool budget: every graph of the mix stays resident.
constexpr u64 kWarmPoolBytes = u64{512} << 20;
/// serve-churn's pool budget: a fixed constant near a quarter of the mix's
/// working set at small scale (both are recorded in every run's info).
constexpr u64 kChurnPoolBytes = u64{16} << 20;

struct Spec {
  Algo algo;
  std::string input;
  std::string reorder;  ///< "" = natural order
  usize pair = 0;       ///< index of the (algorithm, input) pair
};

/// What a serving workload's requests are made of.
struct Mix {
  std::vector<Spec> specs;
  std::vector<u32> copies;  ///< requests per round, by pair
  u64 pool_bytes = 0;
  gen::Scale scale = gen::Scale::kSmall;
  u64 weights_seed = 0;  ///< MST weights, from the workload seed

  usize pairs() const { return copies.size(); }
  usize per_round() const {
    usize n = 0;
    for (const u32 c : copies) n += c;
    return n;
  }

  serve::Request request(usize spec, std::string id) const {
    serve::Request r;
    r.id = std::move(id);
    r.algo = specs[spec].algo;
    r.input = specs[spec].input;
    r.scale = scale;
    r.weights_seed = weights_seed;
    r.reorder = specs[spec].reorder;
    return r;
  }
};

/// The 16 general (algorithm, input) pairs, each in every one of
/// `reorders`, plus SCC on the two meshes in natural order.
Mix make_mix(const Options& opt, const std::vector<std::string>& reorders,
             u64 pool_bytes) {
  Mix mix;
  mix.pool_bytes = pool_bytes;
  mix.scale = opt.smoke ? gen::Scale::kTiny : gen::Scale::kSmall;
  mix.weights_seed = splitmix64(opt.seed);
  for (const Algo algo : kGeneralAlgos) {
    for (const char* input : kGeneralInputs) {
      for (const std::string& reorder : reorders) {
        mix.specs.push_back({algo, input, reorder, mix.pairs()});
      }
      mix.copies.push_back(kGeneralCopies);
    }
  }
  for (const char* input : kMeshInputs) {
    mix.specs.push_back({Algo::kScc, input, "", mix.pairs()});
    mix.copies.push_back(kMeshCopies);
  }
  return mix;
}

/// The graph the server builds for a suite-input request
/// (serve::Server::build_graph).
graph::Csr server_graph(const serve::Request& req) {
  graph::Csr g = gen::find_input(req.input).make(req.scale);
  if (req.algo != Algo::kScc && g.directed()) g = graph::symmetrize(g);
  if (req.algo == Algo::kMst && !g.weighted()) {
    g = graph::with_random_weights(g, req.weights_seed);
  }
  return graph::apply_reorder(g, graph::ReorderSpec::parse(req.reorder));
}

/// What set-up's direct run of a spec produced.
struct Reference {
  u64 cycles = 0;
  std::string checksum;
  double isolated_ms = 0.0;  ///< the simulation alone, on an idle host
};

struct References {
  std::vector<Reference> of_spec;
  u64 working_set = 0;  ///< bytes of the mix's distinct pool keys
  u64 pool_keys = 0;
};

/// Direct runs of every spec on the graph the server would build.
References make_references(const Mix& mix) {
  References refs;
  std::unordered_map<std::string, graph::Csr> graphs;
  for (usize s = 0; s < mix.specs.size(); ++s) {
    const serve::Request req = mix.request(s, "ref");
    auto [it, fresh] = graphs.try_emplace(serve::Server::graph_key(req));
    if (fresh) {
      it->second = server_graph(req);
      refs.working_set += graph::graph_bytes(it->second);
    }
    const AlgoRun run = run_algo(req.algo, it->second, /*verify=*/false);
    refs.of_spec.push_back(
        {run.cycles, run.checksum, ms_between(run.start_ns, run.end_ns)});
  }
  refs.pool_keys = graphs.size();
  return refs;
}

/// A request sequence and each request's spec index.
struct Stream {
  std::vector<serve::Request> reqs;
  std::vector<usize> spec;

  void add(const Mix& mix, usize s, const std::string& tag) {
    spec.push_back(s);
    reqs.push_back(mix.request(s, tag + "." + std::to_string(reqs.size())));
  }
};

/// Append one round, stratified so heavy requests arrive at an even rate
/// rather than in random clumps: the k-th of a pair's c requests lands at a
/// seeded random point of the k-th c-th of the round. A pair with several
/// reorder variants sends each equally often, in seeded order.
void append_round(const Mix& mix, Rng& rng, const std::string& tag,
                  Stream& stream) {
  std::vector<std::vector<usize>> variants(mix.pairs());
  for (usize s = 0; s < mix.specs.size(); ++s) {
    variants[mix.specs[s].pair].push_back(s);
  }
  std::vector<std::pair<double, usize>> slots;  // (position, spec)
  for (usize p = 0; p < mix.pairs(); ++p) {
    const u32 c = mix.copies[p];
    std::vector<usize> picks;
    for (u32 k = 0; k < c; ++k) {
      picks.push_back(variants[p][k % variants[p].size()]);
    }
    rng.shuffle(picks);
    for (u32 k = 0; k < c; ++k) {
      slots.emplace_back((k + rng.unit()) / c, picks[k]);
    }
  }
  std::sort(slots.begin(), slots.end());
  for (const auto& [position, spec] : slots) stream.add(mix, spec, tag);
}

/// A closed-loop serving phase, one entry per request of the stream.
struct Served {
  std::vector<serve::Response> responses;
  std::vector<u64> sent_ns, ready_ns;  ///< sent_ns is 0 for unsent requests
  std::vector<u32> client;
  u64 start_ns = 0;
  u64 render_start_ns = 0;
  u64 render_end_ns = 0;
  u64 peak_rss = 0;

  bool sent(usize i) const { return sent_ns[i] != 0; }
};

/// Serve `stream` in order through `clients` closed-loop clients while
/// fewer than `min_requests` were taken or the clock reads before
/// `stop_ns`. Then render the responses as eclp-serve does and check each
/// against set-up's direct run, outside the timed region.
Served serve_stream(serve::Server& server, const Stream& stream, u32 clients,
                    usize min_requests, u64 stop_ns, const References& refs,
                    Outcome& out) {
  const usize n = stream.reqs.size();
  Served s;
  s.responses.resize(n);
  s.sent_ns.assign(n, 0);
  s.ready_ns.assign(n, 0);
  s.client.assign(n, 0);
  std::atomic<usize> next{0};
  std::vector<std::string> client_errors(clients);
  restart_peak_rss();
  s.start_ns = monotonic_ns();
  {
    std::vector<std::jthread> threads;
    for (u32 c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          for (usize i = next++; i < n; i = next++) {
            const u64 now = monotonic_ns();
            if (i >= min_requests && now >= stop_ns) break;
            s.client[i] = c;
            s.sent_ns[i] = now;
            s.responses[i] = server.enqueue(stream.reqs[i]).get();
            s.ready_ns[i] = monotonic_ns();
          }
        } catch (const std::exception& e) {
          client_errors[c] = e.what();
        }
      });
    }
  }
  s.peak_rss = peak_rss_bytes();

  std::vector<serve::Response> sent;
  for (usize i = 0; i < n; ++i) {
    if (s.sent(i)) sent.push_back(s.responses[i]);
  }
  s.render_start_ns = monotonic_ns();
  const std::string jsonl = serve::responses_to_jsonl(sent, false);
  s.render_end_ns = monotonic_ns();

  for (const std::string& e : client_errors) {
    if (!e.empty()) out.record(false, "client: " + e);
  }
  if (static_cast<usize>(std::count(jsonl.begin(), jsonl.end(), '\n')) !=
      sent.size()) {
    out.record(false, "rendered JSONL does not hold one line per response");
  }
  for (usize i = 0; i < n; ++i) {
    if (!s.sent(i)) continue;
    const serve::Response& resp = s.responses[i];
    const Reference& ref = refs.of_spec[stream.spec[i]];
    out.record(resp.status == serve::Status::kOk &&
                   resp.checksum == ref.checksum &&
                   resp.modeled_cycles == ref.cycles,
               "request " + resp.id + ": " +
                   (resp.error.empty() ? "differs from the direct run"
                                       : resp.error));
  }
  return s;
}

/// The sent requests in completion order, cut into rounds of `per_round`
/// completions; a trailing partial round is dropped. A round starts when
/// the previous one's last response arrived, so the closed loop never
/// drains between rounds.
std::vector<PassStats> rounds_of(const Served& s, const Stream& stream,
                                 usize per_round) {
  std::vector<usize> done;
  for (usize i = 0; i < s.sent_ns.size(); ++i) {
    if (s.sent(i)) done.push_back(i);
  }
  std::sort(done.begin(), done.end(),
            [&](usize a, usize b) { return s.ready_ns[a] < s.ready_ns[b]; });
  std::vector<PassStats> rounds;
  u64 round_start = s.start_ns;
  for (usize end = per_round; end <= done.size(); end += per_round) {
    PassStats pass;
    for (usize j = end - per_round; j < end; ++j) {
      const usize i = done[j];
      pass.add(ms_between(s.sent_ns[i], s.ready_ns[i]), stream.spec[i]);
      pass.cycles += s.responses[i].modeled_cycles;
    }
    const u64 round_end = s.ready_ns[done[end - 1]];
    pass.seconds = static_cast<double>(round_end - round_start) / 1e9;
    pass.peak_rss = s.peak_rss;
    round_start = round_end;
    rounds.push_back(std::move(pass));
  }
  return rounds;
}

serve::ServerOptions server_options(const Mix& mix, u32 threads) {
  serve::ServerOptions so;
  so.threads = threads;
  so.graph_pool_bytes = mix.pool_bytes;
  return so;
}

/// A server whose pool was warmed with one request per pool key, sent one
/// at a time so the warm-up does the same work on every run.
std::unique_ptr<serve::Server> warm_server(serve::ServerOptions so,
                                           const Mix& mix,
                                           const References& refs,
                                           Outcome& out) {
  auto server = std::make_unique<serve::Server>(std::move(so));
  Stream warm;
  std::unordered_set<std::string> keys;
  for (usize s = 0; s < mix.specs.size(); ++s) {
    if (keys.insert(serve::Server::graph_key(mix.request(s, ""))).second) {
      warm.add(mix, s, "w");
    }
  }
  serve_stream(*server, warm, 1, warm.reqs.size(), 0, refs, out);
  return server;
}

/// One round served on its own (the traced and the one-thread runs).
struct Solo {
  Stream stream;
  Served served;
  PassStats pass;
};

/// An unreported round that warms the server's threads and caches, as the
/// measured phase drops its first round.
void warm_up_round(serve::Server& server, const Mix& mix, Rng& rng,
                   const References& refs, Outcome& out) {
  Stream stream;
  append_round(mix, rng, "u", stream);
  serve_stream(server, stream, kClients, mix.per_round(), 0, refs, out);
}

Solo solo_round(serve::Server& server, const Mix& mix, Rng& rng,
                const std::string& tag, const References& refs,
                Outcome& out) {
  Solo r;
  append_round(mix, rng, tag, r.stream);
  r.served = serve_stream(server, r.stream, kClients, mix.per_round(), 0,
                          refs, out);
  r.pass = rounds_of(r.served, r.stream, mix.per_round()).front();
  return r;
}

/// Lifecycle timestamps of one traced request (TraceLog events).
struct Events {
  u64 admitted = 0, started = 0, pool = 0, finished = 0;
  bool hit = false;
};

/// Parse the TraceLog text back into per-request timestamps for the
/// requests of `stream`, as monotonic_ns() readings.
std::vector<Events> parse_trace(const std::string& text, u64 epoch_ns,
                                const Stream& stream) {
  std::unordered_map<std::string, usize> index;
  for (usize i = 0; i < stream.reqs.size(); ++i) index[stream.reqs[i].id] = i;
  std::vector<Events> events(stream.reqs.size());
  usize pos = 0;
  while (pos < text.size()) {
    const usize eol = text.find('\n', pos);
    const json::Value line = json::Value::parse(text.substr(pos, eol - pos));
    pos = eol + 1;
    const auto it = index.find(line.at("id").as_string());
    if (it == index.end()) continue;
    Events& e = events[it->second];
    const u64 ts = epoch_ns + line.at("ts_us").as_u64() * 1000;
    const std::string& event = line.at("event").as_string();
    if (event == "admitted") e.admitted = ts;
    if (event == "started") e.started = ts;
    if (event == "finished") e.finished = ts;
    if (event == "pool") {
      e.pool = ts;
      e.hit = line.at("outcome").as_string() == "hit";
    }
  }
  return events;
}

/// The traced round: a fresh warmed server with the TraceLog and metrics
/// registry attached, one round, and the per-layer metrics derived from
/// the lifecycle events and the client-side timestamps.
void traced_round(const Mix& mix, Rng& rng, const References& refs,
                  const std::vector<double>& rates, Outcome& out) {
  metrics::Registry registry;
  const u64 epoch_ns = monotonic_ns();
  serve::TraceLog log;
  serve::ServerOptions so = server_options(mix, kServerThreads);
  so.metrics = &registry;
  so.trace = &log;
  auto server = warm_server(so, mix, refs, out);
  warm_up_round(*server, mix, rng, refs, out);
  // The dispatcher counts a wave just after the wave's responses resolve;
  // let the warm-up's last wave land before reading the counter.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const u64 waves_before = registry.counter("serve.waves").value();
  const graph::PoolStats pool_before = server->stats().graphs;
  const Solo r = solo_round(*server, mix, rng, "t", refs, out);
  const graph::PoolStats pool_after = server->stats().graphs;
  server.reset();  // joins the dispatcher: every wave is counted
  const u64 waves = registry.counter("serve.waves").value() - waves_before;

  Spans spans(true);
  std::vector<double> queue, acquire_hit, acquire_miss, exec, latency;
  double queue_sum = 0.0, latency_sum = 0.0, exec_sum = 0.0, busy = 0.0,
         isolated = 0.0;
  const Served& s = r.served;
  const std::vector<Events> events = parse_trace(log.text(), epoch_ns, r.stream);
  for (usize i = 0; i < events.size(); ++i) {
    const Events& e = events[i];
    const std::string& id = r.stream.reqs[i].id;
    const u32 lane = s.client[i];
    const i32 root =
        spans.add("request", id, s.sent_ns[i], s.ready_ns[i], -1, lane);
    spans.add("serve.queue_wait", id, e.admitted, e.started, root, lane);
    spans.add(e.hit ? "graph.pool_acquire.hit" : "graph.pool_acquire.miss",
              id, e.started, e.pool, root, lane);
    spans.add("sim.exec", id, e.pool, e.finished, root, lane);
    queue.push_back(ms_between(e.admitted, e.started));
    (e.hit ? acquire_hit : acquire_miss)
        .push_back(ms_between(e.started, e.pool));
    exec.push_back(ms_between(e.pool, e.finished));
    latency.push_back(ms_between(s.sent_ns[i], s.ready_ns[i]));
    queue_sum += queue.back();
    latency_sum += latency.back();
    exec_sum += exec.back();
    busy += ms_between(e.started, e.finished);
    isolated += refs.of_spec[r.stream.spec[i]].isolated_ms;
  }
  spans.add("serve.render", "t", s.render_start_ns, s.render_end_ns);

  const auto p50 = [](const std::vector<double>& xs) {
    return xs.empty() ? 0.0 : stats::percentile(xs, 50);
  };
  const u64 n = events.size();
  out.add("serve.queue_wait_ms_p50", stats::percentile(queue, 50), n);
  out.add("serve.queue_wait_ms_p90", stats::percentile(queue, 90), n);
  out.add("serve.queue_wait_share", queue_sum / latency_sum, n);
  out.add("serve.worker_busy_frac",
          busy / (kServerThreads * r.pass.seconds * 1e3));
  out.add("serve.mean_wave_size",
          static_cast<double>(n) / static_cast<double>(waves));
  out.add("serve.latency_p99_ms", stats::percentile(latency, 99), n);
  out.add("serve.render_ms", ms_between(s.render_start_ns, s.render_end_ns));
  out.add("graph.pool_acquire_ms_p50.hit", p50(acquire_hit),
          acquire_hit.size());
  out.add("graph.pool_acquire_ms_p50.miss", p50(acquire_miss),
          acquire_miss.size());
  out.add("graph.pool_hit_ratio",
          static_cast<double>(pool_after.hits - pool_before.hits) /
              static_cast<double>(pool_after.requests - pool_before.requests));
  out.add("graph.pool_evictions",
          static_cast<double>(pool_after.evictions - pool_before.evictions));
  out.add("graph.pool_peak_mib", mib(pool_after.peak_bytes));
  out.add("sim.exec_ms_p50", stats::percentile(exec, 50), n);
  out.add("sim.exec_inflation", exec_sum / isolated, n);
  out.add("sim.modeled_mcycles", static_cast<double>(r.pass.cycles) / 1e6);
  out.info.set("trace_coverage_min", spans.min_coverage("request"));
  out.add("trace.overhead_pct", overhead_pct(rates, r.pass.rate()));
  spans.append_chrome(out.trace_events);
}

Outcome run_serving(const Options& opt, const Mix& mix, u64 tag,
                    bool measure_speedup) {
  Outcome out;
  Rng rng(splitmix64(opt.seed ^ tag));

  // The references are the checker, not the system's set-up: computed
  // once, untimed. Set-up proper is starting a server and warming its pool.
  const References refs = make_references(mix);
  std::unique_ptr<serve::Server> server;
  timed_setup(opt, out, [&] {
    server.reset();
    server = warm_server(server_options(mix, kServerThreads), mix, refs, out);
  });

  // One continuous closed loop for the measured phase, cut into rounds of
  // per_round() completions; the first round lets the server's threads and
  // caches warm up and is not reported. The stream holds requests for 200
  // per second, about ten times what the host serves.
  const usize min_requests = (opt.smoke ? 2 : 3) * mix.per_round();
  Stream stream;
  while (stream.reqs.size() < min_requests ||
         static_cast<double>(stream.reqs.size()) < 200 * opt.seconds) {
    append_round(mix, rng, "r", stream);
  }
  const u64 stop_ns = monotonic_ns() + static_cast<u64>(opt.seconds * 1e9);
  const Served served = serve_stream(*server, stream, kClients, min_requests,
                                     stop_ns, refs, out);
  server.reset();
  std::vector<double> rates;
  const std::vector<PassStats> rounds =
      rounds_of(served, stream, mix.per_round());
  for (usize k = 1; k < rounds.size(); ++k) {
    add_end_to_end(rounds[k], out);
    rates.push_back(rounds[k].rate());
  }
  out.info.set("rounds", static_cast<u64>(rates.size()));
  out.info.set("requests_per_round", static_cast<u64>(mix.per_round()));
  out.info.set("pool_budget_mib", mib(mix.pool_bytes));
  out.info.set("working_set_mib", mib(refs.working_set));
  out.info.set("pool_keys", refs.pool_keys);

  if (opt.trace) {
    std::map<std::string, double> isolated_by_algo;
    for (usize s = 0; s < mix.specs.size(); ++s) {
      isolated_by_algo[serve::algo_name(mix.specs[s].algo)] +=
          refs.of_spec[s].isolated_ms;
    }
    for (const auto& [algo, ms] : isolated_by_algo) {
      out.add("sim.simulate_ms." + algo, ms);
    }
    traced_round(mix, rng, refs, rates, out);
    if (measure_speedup) {
      auto single = warm_server(server_options(mix, 1), mix, refs, out);
      warm_up_round(*single, mix, rng, refs, out);
      const Solo r = solo_round(*single, mix, rng, "s", refs, out);
      out.add("serve.speedup_4t", stats::median(rates) / r.pass.rate());
    }
  }
  return out;
}

}  // namespace

Outcome serve_warm(const Options& opt) {
  return run_serving(opt, make_mix(opt, {""}, kWarmPoolBytes), 0x7761726dULL,
                     /*measure_speedup=*/true);
}

Outcome serve_churn(const Options& opt) {
  return run_serving(opt, make_mix(opt, {"", "hub", "degree"}, kChurnPoolBytes),
                     0x636875726eULL, /*measure_speedup=*/false);
}

}  // namespace eclp::e2e
