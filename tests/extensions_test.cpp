// Tests for the profiling/graph extensions: log2 histograms, the kernel
// launch trace, DIMACS formats, and vertex reordering.
#include <gtest/gtest.h>

#include <sstream>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/dimacs.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"
#include "profile/histogram.hpp"
#include "profile/timeline.hpp"
#include "sim/device.hpp"

namespace eclp {
namespace {

// --- histogram -------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  using H = profile::Log2Histogram;
  EXPECT_EQ(H::bucket_floor(0), 0u);
  EXPECT_EQ(H::bucket_floor(1), 1u);
  EXPECT_EQ(H::bucket_floor(2), 2u);
  EXPECT_EQ(H::bucket_floor(3), 4u);
  EXPECT_EQ(H::bucket_label(0), "0");
  EXPECT_EQ(H::bucket_label(3), "[4,8)");
}

TEST(Histogram, ValuesLandInRightBuckets) {
  profile::Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  h.add(7);
  h.add(8);
  EXPECT_EQ(h.count(0), 1u);  // 0
  EXPECT_EQ(h.count(1), 1u);  // 1
  EXPECT_EQ(h.count(2), 2u);  // 2, 3
  EXPECT_EQ(h.count(3), 2u);  // 4, 7
  EXPECT_EQ(h.count(4), 1u);  // 8
  EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, HugeValuesCapIntoLastBucket) {
  profile::Log2Histogram h;
  h.add(~u64{0});
  EXPECT_EQ(h.count(profile::Log2Histogram::kBuckets - 1), 1u);
}

TEST(Histogram, QuantileBucket) {
  profile::Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(1);
  for (int i = 0; i < 10; ++i) h.add(1000);
  EXPECT_EQ(h.quantile_bucket(0.5), 1u);
  EXPECT_GT(h.quantile_bucket(0.99), 1u);
}

TEST(Histogram, QuantileOfEmptyHistogramIsZero) {
  const profile::Log2Histogram h;
  EXPECT_EQ(h.quantile_bucket(0.0), 0u);
  EXPECT_EQ(h.quantile_bucket(0.5), 0u);
  EXPECT_EQ(h.quantile_bucket(1.0), 0u);
}

TEST(Histogram, QuantileSkipsEmptyLeadingBuckets) {
  // All mass far from bucket 0: even fraction 0.0 must land on the first
  // bucket that actually holds samples, never on an empty bucket 0.
  profile::Log2Histogram h;
  for (int i = 0; i < 5; ++i) h.add(1000);
  const usize b = profile::Log2Histogram::bucket_of(1000);
  EXPECT_GT(b, 0u);
  EXPECT_EQ(h.quantile_bucket(0.0), b);
  EXPECT_EQ(h.quantile_bucket(1.0), b);
}

TEST(Histogram, QuantileWithSingleBucketMass) {
  profile::Log2Histogram h;
  h.add(0);  // one sample, in bucket 0 — fraction 0.0 may return bucket 0
  EXPECT_EQ(h.quantile_bucket(0.0), 0u);
  EXPECT_EQ(h.quantile_bucket(0.5), 0u);
  EXPECT_EQ(h.quantile_bucket(1.0), 0u);
}

TEST(Histogram, QuantileFractionOneReachesLastMass) {
  profile::Log2Histogram h;
  for (int i = 0; i < 99; ++i) h.add(1);
  h.add(~u64{0});  // 1% of mass in the cap bucket
  EXPECT_EQ(h.quantile_bucket(0.5), 1u);
  EXPECT_EQ(h.quantile_bucket(1.0), profile::Log2Histogram::kBuckets - 1);
}

TEST(Histogram, AddAllAndTableRender) {
  profile::Log2Histogram h;
  const std::vector<u64> xs = {1, 1, 2, 5, 100};
  h.add_all(xs);
  EXPECT_EQ(h.total(), 5u);
  const auto t = h.to_table("demo");
  EXPECT_GE(t.rows(), 3u);
  EXPECT_NE(t.to_text().find("#"), std::string::npos);
}

TEST(Histogram, ResetClears) {
  profile::Log2Histogram h;
  h.add(5);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
}

// --- launch timeline (session kernel spans and views) ---------------------------

std::vector<const profile::Span*> kernel_spans(const profile::Session& s) {
  std::vector<const profile::Span*> out;
  for (const profile::Span& span : s.spans()) {
    if (span.kind == profile::SpanKind::kKernel) out.push_back(&span);
  }
  return out;
}

TEST(Trace, RecordsEveryLaunch) {
  sim::Device dev;
  profile::Session session(dev);
  dev.launch("alpha", {2, 32}, [](sim::ThreadCtx& ctx) { ctx.charge_alu(1); });
  dev.launch("beta", {1, 64}, [](sim::ThreadCtx&) {});
  dev.launch("alpha", {2, 32}, [](sim::ThreadCtx&) {});
  const auto kernels = kernel_spans(session);
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_EQ(kernels[0]->name, "alpha");
  EXPECT_EQ(kernels[1]->name, "beta");
  EXPECT_EQ(kernels[1]->blocks, 1u);
  EXPECT_GT(kernels[0]->cycles(), 0u);
  // Cumulative cycles are nondecreasing.
  EXPECT_LE(kernels[0]->end_cycles, kernels[2]->end_cycles);
}

TEST(Trace, CapturesAtomicsDelta) {
  sim::Device dev;
  profile::Session session(dev);
  u32 x = 0;
  dev.launch("atomics", {1, 8},
             [&](sim::ThreadCtx& ctx) { ctx.atomic_add(x, 1u); });
  dev.launch("quiet", {1, 8}, [](sim::ThreadCtx&) {});
  const auto kernels = kernel_spans(session);
  ASSERT_EQ(kernels.size(), 2u);
  EXPECT_EQ(kernels[0]->atomics, 8u);
  EXPECT_EQ(kernels[1]->atomics, 0u);
}

TEST(Trace, SummaryAggregatesByKernel) {
  sim::Device dev;
  profile::Session session(dev);
  for (int i = 0; i < 3; ++i) {
    dev.launch("hot", {4, 64}, [](sim::ThreadCtx& ctx) { ctx.charge_alu(50); });
  }
  dev.launch("cold", {1, 1}, [](sim::ThreadCtx&) {});
  const auto t = profile::timeline_summary(session);
  ASSERT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.row(0)[0], "hot");  // sorted by cycle share
  EXPECT_EQ(t.row(0)[1], "3");
}

TEST(Trace, CsvHasHeaderAndRows) {
  sim::Device dev;
  // A launch before the session attaches: the CSV's sequence column keeps
  // the device's launch numbering, and its cumulative cycles the device total.
  dev.launch("before", {1, 1}, [](sim::ThreadCtx&) {});
  profile::Session session(dev);
  dev.launch("k", {1, 1}, [](sim::ThreadCtx&) {});
  const auto csv = profile::timeline_csv(session);
  EXPECT_NE(csv.find("sequence,kernel"), std::string::npos);
  EXPECT_NE(csv.find("\n2,k,1,1,"), std::string::npos);
  EXPECT_EQ(csv.find("before"), std::string::npos);
  EXPECT_NE(csv.find("," + std::to_string(dev.total_cycles()) + ","),
            std::string::npos);
}

TEST(Trace, DetachStopsRecording) {
  sim::Device dev;
  profile::Session outer(dev);
  {
    profile::Session inner(dev);
    dev.launch("a", {1, 1}, [](sim::ThreadCtx&) {});
    EXPECT_EQ(kernel_spans(inner).size(), 1u);
  }
  // The inner session detached and handed the device back to the outer one.
  EXPECT_EQ(dev.launch_observer(), &outer);
  dev.launch("b", {1, 1}, [](sim::ThreadCtx&) {});
  const auto kernels = kernel_spans(outer);
  ASSERT_EQ(kernels.size(), 2u);  // "a" chained through the inner session
  EXPECT_EQ(kernels[1]->name, "b");
}

// --- dimacs ----------------------------------------------------------------------

TEST(DimacsSp, ReadsHandWrittenFile) {
  std::stringstream ss(
      "c tiny road network\n"
      "p sp 3 3\n"
      "a 1 2 7\n"
      "a 2 3 9\n"
      "a 3 1 2\n");
  const auto g = graph::read_dimacs_sp(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.directed());
  ASSERT_TRUE(g.weighted());
  EXPECT_EQ(g.weights_of(0)[0], 7u);
}

TEST(DimacsSp, RoundtripWeightedDirected) {
  graph::BuildOptions opt;
  opt.directed = true;
  opt.weighted = true;
  const auto g = graph::from_edges(
      6, {{0, 1, 3}, {1, 0, 3}, {2, 5, 8}, {4, 3, 1}}, opt);
  std::stringstream ss;
  graph::write_dimacs_sp(g, ss);
  const auto back = graph::read_dimacs_sp(ss);
  EXPECT_TRUE(back == g);
}

TEST(DimacsSp, HeaderCountMismatchThrows) {
  std::stringstream ss("p sp 2 2\na 1 2 1\n");
  EXPECT_THROW(graph::read_dimacs_sp(ss), CheckFailure);
}

TEST(DimacsSp, WrongKindThrows) {
  std::stringstream ss("p edge 2 1\ne 1 2\n");
  EXPECT_THROW(graph::read_dimacs_sp(ss), CheckFailure);
}

TEST(DimacsCol, RoundtripUndirected) {
  const auto g = gen::uniform_random(40, 100, 3);
  std::stringstream ss;
  graph::write_dimacs_col(g, ss);
  const auto back = graph::read_dimacs_col(ss);
  EXPECT_TRUE(back == g);
}

TEST(DimacsCol, OutOfRangeEndpointThrows) {
  std::stringstream ss("p edge 2 1\ne 1 5\n");
  EXPECT_THROW(graph::read_dimacs_col(ss), CheckFailure);
}

// --- reorder ---------------------------------------------------------------------

TEST(Reorder, DegreeDescPutsHubFirst) {
  const auto g = graph::from_edges(5, {{0, 4, 0}, {1, 4, 0}, {2, 4, 0}});
  const auto perm = graph::order_by_degree_desc(g);
  EXPECT_EQ(perm[4], 0u);  // the hub gets rank 0
}

TEST(Reorder, BfsOrderIsPermutationAndLocal) {
  const auto g = gen::road_network(24, 0.3, 5);
  const auto perm = graph::order_bfs(g);
  std::vector<bool> seen(g.num_vertices(), false);
  for (const vidx p : perm) {
    ASSERT_LT(p, g.num_vertices());
    ASSERT_FALSE(seen[p]);
    seen[p] = true;
  }
  // BFS numbering must beat a random one on locality.
  const auto bfs_g = graph::relabel(g, perm);
  const auto rnd_g = graph::relabel(g, graph::order_random(g, 1));
  EXPECT_LT(graph::locality_score(bfs_g), graph::locality_score(rnd_g));
}

TEST(Reorder, MortonBeatsRowMajorOnBlockAffinity) {
  // Morton patches keep both grid directions inside one id-block; row-major
  // strips lose every vertical edge at small block sizes.
  const u32 side = 64;
  const auto g = gen::grid2d_torus(side);
  const auto morton_g = graph::relabel(g, graph::order_morton_grid(side));
  EXPECT_GT(graph::block_affinity(morton_g, 64),
            graph::block_affinity(g, 64));
  // And both beat a random numbering at GPU block sizes.
  const auto rnd_g = graph::relabel(g, graph::order_random(g, 11));
  EXPECT_GT(graph::block_affinity(morton_g, 512),
            graph::block_affinity(rnd_g, 512));
}

TEST(Reorder, RandomOrderScoresNearOneThird) {
  const auto g = gen::grid2d_torus(48);
  const auto shuffled = graph::relabel(g, graph::order_random(g, 7));
  EXPECT_NEAR(graph::locality_score(shuffled), 1.0 / 3.0, 0.05);
}

TEST(Reorder, RelabeledGraphsKeepStructure) {
  const auto g = gen::preferential_attachment(500, 3, 9);
  for (const auto& perm :
       {graph::order_by_degree_desc(g), graph::order_bfs(g),
        graph::order_random(g, 4)}) {
    const auto r = graph::relabel(g, perm);
    EXPECT_EQ(r.num_edges(), g.num_edges());
    EXPECT_EQ(graph::degree_stats(r).max, graph::degree_stats(g).max);
    EXPECT_TRUE(graph::is_symmetric(r));
  }
}

}  // namespace
}  // namespace eclp
