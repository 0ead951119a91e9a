// Reordering sweep — how the vertex numbering drives modeled LLC locality
// across all five ECL codes.
//
// The paper attributes much of the codes' memory behavior to how well
// contiguous vertex ids cover tightly-connected regions (§6 locality
// observations). This bench makes that quantitative: for every ordering in
// the shared suite (graph::reorder_suite() — the same list the numbering
// ablation uses) it reruns each algorithm with the modeled LLC enabled and
// reports the static locality metrics (locality_score, block_affinity)
// next to the dynamic ones (modeled cycles, LLC hit rate, miss count).
// The committed BENCH_reorder.json pins the headline: degree-aware orders
// (hub, gorder) cut modeled misses relative to a random numbering.
//
// The LLC defaults to "on" here even without --llc: a locality sweep with
// the cache model off would report identical global-access costs for every
// ordering. --llc=L:W:S still overrides the shape.
#include <map>

#include "gen/suite.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"
#include "harness/harness.hpp"
#include "serve/job.hpp"
#include "sim/cache.hpp"

using namespace eclp;

namespace {

struct Cell {
  u64 cycles = 0;
  u64 hits = 0;
  u64 misses = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = harness::parse(
      argc, argv,
      "Reordering sweep: modeled LLC locality of the five ECL codes under "
      "the shared ordering suite");

  const sim::CacheConfig cache =
      ctx.llc.enabled ? ctx.llc : sim::parse_cache_config("on");

  // One representative input per algorithm — the same pairs the profiling
  // smoke tests pin, so bench and CI observe the same workloads.
  const std::vector<std::pair<std::string, std::string>> workloads = {
      {"cc", "rmat16.sym"},  {"gc", "rmat16.sym"}, {"mis", "internet"},
      {"mst", "USA-road-d.NY"}, {"scc", "cold-flow"}};

  Table t("modeled LLC (" + sim::cache_config_label(cache) +
          ") under the shared reorder suite");
  t.set_header({"algo", "graph", "order", "locality", "affinity@256",
                "modeled cycles", "llc hit rate", "llc misses"});
  // Per algo: the cells the headline compares (random baseline vs. the
  // degree-aware orders).
  std::map<std::string, std::map<graph::ReorderSpec::Kind, Cell>> cells;

  for (const auto& [algo, input] : workloads) {
    graph::Csr base = gen::find_input(input).make(ctx.scale);
    // Weights before reordering, so every ordering of one input solves an
    // isomorphic weighted problem (with_random_weights hashes endpoint ids).
    if (algo == "mst" && !base.weighted()) {
      base = graph::with_random_weights(base, 42);
    }
    for (const graph::ReorderSpec& spec : graph::reorder_suite()) {
      const graph::Csr g = graph::apply_reorder(base, spec);
      sim::CostModel cost;
      cost.cache = cache;
      sim::Device dev(cost);
      serve::Request req;
      req.algo = serve::parse_algo(algo);
      req.verify = true;
      const serve::JobOutcome out = serve::run_job(dev, g, req);
      ECLP_CHECK(out.verified);
      const Cell cell{out.modeled_cycles, dev.llc_hits(), dev.llc_misses()};
      cells[algo][spec.kind] = cell;
      const u64 total = cell.hits + cell.misses;
      t.add_row({algo, input, spec.canonical(),
                 fmt::fixed(graph::locality_score(g), 4),
                 fmt::fixed(graph::block_affinity(g, 256), 4),
                 fmt::grouped(cell.cycles),
                 fmt::fixed(total == 0
                                ? 100.0
                                : 100.0 * static_cast<double>(cell.hits) /
                                      static_cast<double>(total),
                            1) +
                     "%",
                 fmt::grouped(cell.misses)});
    }
  }
  harness::emit(ctx, "reorder_sweep", t);

  // The headline the committed artifact pins: per algorithm, how much of
  // the random-order miss traffic and modeled time a degree-aware order
  // (hub or gorder, whichever misses less) wins back.
  Table h("degree-aware ordering vs. random baseline");
  h.set_header({"algo", "best order", "miss reduction", "cycle reduction"});
  double best_reduction = 0.0;
  for (const auto& [algo, input] : workloads) {
    const auto& by_kind = cells[algo];
    const Cell& random = by_kind.at(graph::ReorderSpec::Kind::kRandom);
    const Cell& hub = by_kind.at(graph::ReorderSpec::Kind::kHub);
    const Cell& gorder = by_kind.at(graph::ReorderSpec::Kind::kGorder);
    const bool hub_wins = hub.misses <= gorder.misses;
    const Cell& best = hub_wins ? hub : gorder;
    const auto reduction = [](u64 base, u64 improved) {
      if (base == 0) return 0.0;
      return 100.0 *
             (static_cast<double>(base) - static_cast<double>(improved)) /
             static_cast<double>(base);
    };
    const double miss_red = reduction(random.misses, best.misses);
    const double cycle_red = reduction(random.cycles, best.cycles);
    best_reduction = std::max({best_reduction, miss_red, cycle_red});
    h.add_row({algo, hub_wins ? "hub" : "gorder",
               fmt::fixed(miss_red, 1) + "%", fmt::fixed(cycle_red, 1) + "%"});
  }
  harness::emit(ctx, "reorder_headline", h);
  std::printf(
      "expected: hub/gorder pack hot vertices into shared cache lines, so\n"
      "their miss counts sit well below the random baseline (best win here:\n"
      "%.1f%%); the static locality/affinity columns move the same way,\n"
      "which is what makes them usable as cheap reordering predictors.\n",
      best_reduction);
  return 0;
}
