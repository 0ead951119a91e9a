#include "serve/job.hpp"

#include <cstdio>
#include <span>

#include "algos/cc/ecl_cc.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/suite.hpp"
#include "graph/cache.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"
#include "sim/cache.hpp"

namespace eclp::serve {

namespace {

/// 32-hex content fingerprint of a solution array (same 128-bit mix the
/// graph cache keys use) — the cheap stand-in for shipping whole label
/// arrays through response files.
template <typename T>
std::string checksum_of(std::span<const T> v) {
  graph::CacheKey key;
  key.mix(std::string_view(reinterpret_cast<const char*>(v.data()),
                           v.size_bytes()));
  return key.hex();
}

std::string line(const char* fmt, auto... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

using ull = unsigned long long;

}  // namespace

graph::Csr prepare_graph(const Request& req, std::string* notes) {
  const bool want_directed = req.algo == Algo::kScc;
  graph::Csr g;
  if (!req.input.empty()) {
    g = gen::find_input(req.input).make(req.scale);
  } else {
    g = graph::load_any(req.file, want_directed || req.directed);
  }
  // Plain CheckFailure (no source location): this message reaches response
  // files pinned by goldens, so it must not shift with code edits.
  if (want_directed && !g.directed()) {
    throw CheckFailure("request " + req.id +
                       ": scc needs a directed graph, " + req.graph_label() +
                       " is undirected");
  }
  if (!want_directed && g.directed()) {
    g = graph::symmetrize(g);
    if (notes != nullptr) {
      *notes += "note: symmetrizing directed input for an undirected "
                "algorithm\n";
    }
  }
  if (req.algo == Algo::kMst && !g.weighted()) {
    g = graph::with_random_weights(g, req.weights_seed);
    if (notes != nullptr) {
      *notes += line("note: attached random weights (seed %lld)\n",
                     static_cast<long long>(req.weights_seed));
    }
  }
  const auto spec = graph::ReorderSpec::parse(req.reorder);
  if (!spec.is_natural()) {
    g = graph::apply_reorder(g, spec);
    if (notes != nullptr) {
      *notes += line("note: reordered vertices (%s); locality %.4f, "
                     "block affinity %.4f\n",
                     spec.canonical().c_str(), graph::locality_score(g),
                     graph::block_affinity(g, 256));
    }
  }
  return g;
}

sim::Device make_device(const Request& req) {
  sim::CostModel cost;
  cost.cache = sim::parse_cache_config(req.llc);
  return sim::Device(cost, req.seed,
                     req.seed == 0 ? sim::ScheduleMode::kDeterministic
                                   : sim::ScheduleMode::kShuffled);
}

JobOutcome run_job(sim::Device& dev, const graph::Csr& g, const Request& req) {
  JobOutcome out;
  const char* verified_note = "";
  switch (req.algo) {
    case Algo::kCc: {
      const auto res = algos::cc::run(dev, g);
      usize components = 0;
      for (vidx v = 0; v < g.num_vertices(); ++v) {
        components += (res.labels[v] == v);
      }
      out.summary = line("CC: %zu components", components);
      out.modeled_cycles = res.modeled_cycles;
      out.checksum = checksum_of<vidx>(res.labels);
      if (req.verify) out.verified = algos::cc::verify(g, res.labels);
      out.after = line(
          "init traversals %llu over %llu vertices (ratio %.2f)\n",
          static_cast<ull>(res.profile.init_neighbors_traversed),
          static_cast<ull>(res.profile.vertices_initialized),
          static_cast<double>(res.profile.init_neighbors_traversed) /
              static_cast<double>(res.profile.vertices_initialized));
      verified_note = "verified against BFS reference.\n";
      break;
    }
    case Algo::kGc: {
      const auto res = algos::gc::run(dev, g);
      out.summary = line("GC: %u colors in %llu rounds", res.num_colors,
                         static_cast<ull>(res.host_iterations));
      out.modeled_cycles = res.modeled_cycles;
      out.checksum = checksum_of<u32>(res.colors);
      if (req.verify) out.verified = algos::gc::verify(g, res.colors);
      verified_note = "verified: proper coloring.\n";
      break;
    }
    case Algo::kMis: {
      const auto res = algos::mis::run(dev, g);
      out.summary = line("MIS: |S| = %zu", res.set_size);
      out.detail = line(", iterations avg %.2f max %.0f",
                        res.metrics.iterations.mean,
                        res.metrics.iterations.max);
      out.modeled_cycles = res.modeled_cycles;
      out.checksum = checksum_of<u8>(res.status);
      if (req.verify) out.verified = algos::mis::verify(g, res.status);
      verified_note = "verified: independent and maximal.\n";
      break;
    }
    case Algo::kMst: {
      const auto res = algos::mst::run(dev, g);
      out.summary = line("MST: weight %llu over %zu edges",
                         static_cast<ull>(res.total_weight), res.mst_edges);
      out.detail =
          line(", %llu iterations", static_cast<ull>(res.host_iterations));
      out.modeled_cycles = res.modeled_cycles;
      out.checksum = checksum_of<u8>(res.in_mst);
      if (req.verify) out.verified = algos::mst::verify(g, res);
      verified_note = "verified against Kruskal.\n";
      break;
    }
    case Algo::kScc: {
      const auto res = algos::scc::run(dev, g);
      out.summary = line("SCC: %zu components in m = %u rounds",
                         res.num_sccs, res.outer_iterations);
      out.modeled_cycles = res.modeled_cycles;
      out.checksum = checksum_of<vidx>(res.scc_id);
      if (req.verify) out.verified = algos::scc::verify(g, res.scc_id);
      verified_note = "verified against Tarjan.\n";
      break;
    }
  }
  if (req.verify && out.verified) out.after += verified_note;
  return out;
}

}  // namespace eclp::serve
