// Tests for the chunked streaming generation layer (gen/stream.hpp) and
// the streamed CSR pipeline (graph/stream_build.hpp).
//
// The contract under test is the determinism story from docs/INGEST.md
// "Chunked streaming generation": a stream's canonical edge sequence is a
// pure function of (generator parameters, seed) — independent of chunk
// count, build thread count, and chunk schedule — and build_from_chunks
// over that sequence is byte-identical to materializing it and running
// the independent reference assembler (csr_reference.hpp). Lives in
// eclp_parallel_tests so the TSan configuration race-checks the two
// re-emission passes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "csr_reference.hpp"
#include "gen/generators.hpp"
#include "gen/stream.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/stream_build.hpp"
#include "support/parallel_for.hpp"

namespace eclp {
namespace {

static_assert(graph::ChunkedEdgeSource<gen::UniformRandomStream>);
static_assert(graph::ChunkedEdgeSource<gen::RmatStream>);
static_assert(graph::ChunkedEdgeSource<gen::PreferentialAttachmentStream>);
static_assert(graph::ChunkedEdgeSource<graph::VectorChunkSource>);

std::string bytes_of(const graph::Csr& g) {
  std::stringstream ss;
  graph::write_binary(g, ss);
  return std::move(ss).str();
}

/// Restores the build thread count a test mutates.
class ThreadGuard {
 public:
  ThreadGuard() : threads_(build_threads()) {}
  ~ThreadGuard() { set_build_threads(threads_); }

 private:
  u32 threads_;
};

/// One row per ported generator family: build the stream at a given
/// chunk count. Small sizes — the invariance matrix below is 4 families
/// x 2 seeds x 3 chunkings x 3 thread counts.
struct Family {
  const char* name;
  graph::Csr (*build)(u64 seed, u64 chunks);
};

const Family kFamilies[] = {
    {"uniform",
     [](u64 seed, u64 chunks) {
       return graph::build_from_chunks(
           gen::UniformRandomStream(500, 3000, seed, chunks));
     }},
    {"rmat",
     [](u64 seed, u64 chunks) {
       return graph::build_from_chunks(
           gen::RmatStream(8, 2000, 0.45, 0.22, 0.22, seed, chunks));
     }},
    {"kronecker",
     [](u64 seed, u64 chunks) {
       return graph::build_from_chunks(
           gen::RmatStream(8, 2000, 0.57, 0.19, 0.19, seed, chunks));
     }},
    {"pa",
     [](u64 seed, u64 chunks) {
       return graph::build_from_chunks(
           gen::PreferentialAttachmentStream(400, 3, seed, chunks));
     }},
};

// --- chunk/thread schedule invariance ---------------------------------------

TEST(StreamInvariance, SameBytesAtAnyChunkCountAndThreadCount) {
  ThreadGuard guard;
  for (const Family& family : kFamilies) {
    for (const u64 seed : {u64{0}, u64{12345}}) {
      set_build_threads(1);
      const std::string reference = bytes_of(family.build(seed, 1));
      for (const u64 chunks : {u64{1}, u64{4}, u64{13}}) {
        for (const u32 threads : {1u, 2u, 7u}) {
          set_build_threads(threads);
          EXPECT_EQ(bytes_of(family.build(seed, chunks)), reference)
              << family.name << " seed=" << seed << " chunks=" << chunks
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(StreamInvariance, SeedsProduceDistinctGraphs) {
  for (const Family& family : kFamilies) {
    EXPECT_NE(bytes_of(family.build(0, 4)), bytes_of(family.build(1, 4)))
        << family.name;
  }
}

// --- streamed == reference ---------------------------------------------------

TEST(StreamBuild, MatchesMaterializedPathForEveryFamily) {
  // The reference assembler, the two-pass build, the staged build, and the
  // family function all agree: each family is one edge sequence, whichever
  // path builds it. The uniform and R-MAT sizes span two seeding blocks.
  ThreadGuard guard;
  const auto check = [](const auto& source, const auto& family,
                        const std::string& name) {
    const std::string expected = bytes_of(reference_build(
        source.num_vertices(), graph::materialize_chunks(source)));
    for (const u32 threads : {1u, 2u, 7u}) {
      set_build_threads(threads);
      EXPECT_EQ(bytes_of(graph::build_from_chunks(source)), expected)
          << name << " threads=" << threads;
      EXPECT_EQ(bytes_of(graph::build_materialized(source)), expected)
          << name << " staged, threads=" << threads;
      EXPECT_EQ(bytes_of(family()), expected)
          << name << " family function, threads=" << threads;
    }
  };
  for (const u64 seed : {u64{7}, u64{12345}}) {
    const std::string at = " seed=" + std::to_string(seed);
    check(gen::UniformRandomStream(4000, 70000, seed, 13),
          [&] { return gen::uniform_random(4000, 70000, seed); },
          "uniform" + at);
    check(gen::RmatStream(12, 70000, 0.45, 0.22, 0.22, seed, 13),
          [&] { return gen::rmat(12, 70000, 0.45, 0.22, 0.22, seed); },
          "rmat" + at);
    check(gen::RmatStream(12, 70000, 0.57, 0.19, 0.19, seed, 13),
          [&] { return gen::kronecker(12, 70000, seed); }, "kronecker" + at);
    check(gen::PreferentialAttachmentStream(400, 3, seed, 13),
          [&] { return gen::preferential_attachment(400, 3, seed); },
          "pa" + at);
  }
}

TEST(StreamBuild, HonorsBuildOptions) {
  // Self-loop handling, directedness, dedupe, and weights must match the
  // reference exactly — including the keep-loops, directed, and
  // asymmetric-duplicate-weight variants the suite never exercises.
  ThreadGuard guard;
  std::vector<graph::Edge> edges{{0, 1, 4}, {1, 1, 3}, {2, 0, 2},
                                 {1, 0, 8}, {0, 1, 6}};
  const graph::VectorChunkSource source(3, edges, 2);
  for (const bool directed : {false, true}) {
    for (const bool loops : {true, false}) {
      for (const bool dedupe : {true, false}) {
        for (const bool weighted : {false, true}) {
          graph::BuildOptions opt;
          opt.directed = directed;
          opt.remove_self_loops = loops;
          opt.dedupe = dedupe;
          opt.weighted = weighted;
          const std::string expected =
              bytes_of(reference_build(3, edges, opt));
          for (const u32 threads : {1u, 2u, 7u}) {
            set_build_threads(threads);
            EXPECT_EQ(bytes_of(graph::build_from_chunks(source, opt)),
                      expected)
                << "directed=" << directed << " loops=" << loops
                << " dedupe=" << dedupe << " weighted=" << weighted
                << " threads=" << threads;
          }
        }
      }
    }
  }
}

// Every suite entry, streamed through VectorChunkSource and rebuilt: the
// generator that produced the edges does not matter, the pipeline must
// reproduce both the suite graph and the reference on every structural
// class in Table 1.
void expect_suite_identity(gen::Scale scale, std::initializer_list<u32>
                                                 thread_counts) {
  ThreadGuard guard;
  const auto check = [&](const gen::InputSpec& spec) {
    set_build_threads(1);
    const auto g = spec.make(scale);
    // Recover a representative edge list: each undirected edge once
    // (u <= dst side), every directed arc as-is.
    std::vector<graph::Edge> edges;
    edges.reserve(g.num_edges());
    for (vidx u = 0; u < g.num_vertices(); ++u) {
      for (const vidx v : g.neighbors(u)) {
        if (g.directed() || u <= v) edges.push_back({u, v, 0});
      }
    }
    graph::BuildOptions opt;
    opt.directed = g.directed();
    const graph::VectorChunkSource source(g.num_vertices(), edges, 13);
    const std::string expected = bytes_of(g);
    EXPECT_EQ(bytes_of(reference_build(g.num_vertices(), edges, opt)),
              expected)
        << spec.name << " reference";
    for (const u32 threads : thread_counts) {
      set_build_threads(threads);
      EXPECT_EQ(bytes_of(graph::build_from_chunks(source, opt)), expected)
          << spec.name << " threads=" << threads;
    }
  };
  for (const auto& spec : gen::general_inputs()) check(spec);
  for (const auto& spec : gen::mesh_inputs()) check(spec);
}

TEST(StreamBuild, SuiteByteIdentityAtTiny) {
  expect_suite_identity(gen::Scale::kTiny, {1, 2, 7});
}

TEST(StreamBuild, SuiteByteIdentityAtSmall) {
  expect_suite_identity(gen::Scale::kSmall, {7});
}

// --- stream mechanics --------------------------------------------------------

TEST(StreamSeeding, BlockSeedsAreDecorrelated) {
  EXPECT_NE(gen::stream_block_seed(0, gen::kStreamTagUniform, 0),
            gen::stream_block_seed(0, gen::kStreamTagUniform, 1));
  EXPECT_NE(gen::stream_block_seed(0, gen::kStreamTagUniform, 0),
            gen::stream_block_seed(0, gen::kStreamTagRmat, 0));
  EXPECT_NE(gen::stream_block_seed(0, gen::kStreamTagUniform, 0),
            gen::stream_block_seed(1, gen::kStreamTagUniform, 0));
}

TEST(StreamSeeding, ReEmissionIsIdempotent) {
  // emit() must be a pure function of the chunk id — the pipeline calls
  // it twice per chunk (histogram pass, scatter pass).
  const gen::RmatStream source(8, 2000, 0.45, 0.22, 0.22, 3, 5);
  for (u64 c = 0; c < source.num_chunks(); ++c) {
    std::vector<std::pair<vidx, vidx>> first, second;
    source.emit(c, [&](vidx u, vidx v) { first.emplace_back(u, v); });
    source.emit(c, [&](vidx u, vidx v) { second.emplace_back(u, v); });
    EXPECT_EQ(first, second) << "chunk " << c;
  }
}

TEST(StreamSeeding, CanonicalSequenceIgnoresChunkCount) {
  const auto sequence_of = [](u64 chunks) {
    const gen::UniformRandomStream source(300, 5000, 9, chunks);
    std::vector<std::pair<vidx, vidx>> seq;
    for (u64 c = 0; c < source.num_chunks(); ++c) {
      source.emit(c, [&](vidx u, vidx v) { seq.emplace_back(u, v); });
    }
    return seq;
  };
  const auto reference = sequence_of(1);
  EXPECT_EQ(sequence_of(4), reference);
  EXPECT_EQ(sequence_of(13), reference);
  // Chunk boundaries align with seeding blocks: the default request is
  // clamped to the block count, ceil(200000 / 2^16) = 4.
  EXPECT_EQ(gen::UniformRandomStream(100, 200000, 1).num_chunks(), 4u);
}

TEST(StreamPa, ResolvesToValidBarabasiAlbertStructure) {
  const gen::PreferentialAttachmentStream source(1000, 4, 42, 8);
  u64 emitted = 0;
  for (u64 c = 0; c < source.num_chunks(); ++c) {
    source.emit(c, [&](vidx u, vidx v) {
      ASSERT_LT(u, 1000u);
      ASSERT_LT(v, 1000u);
      ASSERT_NE(u, v);
      ++emitted;
    });
  }
  // The clique plus m edges per later vertex, minus the rare self-draw
  // skips.
  const u64 budget = source.estimated_edges();
  EXPECT_LE(emitted, budget);
  EXPECT_GT(emitted, budget * 95 / 100);
  // Degree-proportional attachment concentrates on the clique: the seed
  // vertices should end up far above m.
  const auto g = graph::build_from_chunks(source);
  u64 clique_degree = 0;
  for (vidx v = 0; v <= 4; ++v) clique_degree += g.degree(v);
  EXPECT_GT(clique_degree / 5, u64{4} * 4);
}

}  // namespace
}  // namespace eclp
