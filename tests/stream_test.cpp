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

#include <cmath>
#include <limits>
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
#include "support/prng.hpp"

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

TEST(StreamBuild, RaggedChunksMatchReferenceForEveryOption) {
  // HonorsBuildOptions' five edges sit below every lookahead distance.
  // Here the chunks are cut so that the passes' lookahead stages run out
  // at every kind of buffer tail: empty and one-edge chunks, chunks just
  // below, at and above each distance and the buffer size, and one that
  // spans several buffers. Self-loops and duplicates with differing
  // weights exercise the options.
  ThreadGuard guard;
  using graph::detail::kCursorAhead;
  using graph::detail::kEmitBuffer;
  using graph::detail::kSlotAhead;
  static_assert(kSlotAhead < kCursorAhead && kCursorAhead < kEmitBuffer);
  const usize sizes[] = {0,
                         1,
                         kSlotAhead - 1,
                         kSlotAhead,
                         kCursorAhead,
                         kEmitBuffer - 1,
                         kEmitBuffer,
                         kEmitBuffer + 1,
                         3000};
  constexpr vidx n = 300;
  Rng rng(27);
  std::vector<std::vector<graph::Edge>> chunks;
  std::vector<graph::Edge> edges;
  for (const usize size : sizes) {
    auto& chunk = chunks.emplace_back();
    while (chunk.size() < size) {
      const auto w = static_cast<weight_t>(rng.below(1000));
      graph::Edge e{static_cast<vidx>(rng.below(n)),
                    static_cast<vidx>(rng.below(n)), w};
      if (rng.below(16) == 0) e.dst = e.src;
      if (!edges.empty() && rng.below(8) == 0) {
        e = edges[rng.below(edges.size())];
        e.w = w;
      }
      chunk.push_back(e);
      edges.push_back(e);
    }
  }
  const graph::VectorChunkSource source(n, chunks);
  ASSERT_EQ(source.num_chunks(), std::size(sizes));
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
              bytes_of(reference_build(n, edges, opt));
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

TEST(StreamBuild, RejectsEndpointsOutOfRange) {
  // Each buffered batch is range-checked before any lookahead stage
  // computes an address from it: a bad endpoint in the first, a middle
  // or the last buffer of a chunk, source or target, must throw.
  ThreadGuard guard;
  std::vector<graph::Edge> edges;
  for (u32 i = 0; i < 2500; ++i) edges.push_back({i % 50, (i * 7) % 50, 0});
  for (const usize bad : {usize{0}, usize{1500}, usize{2499}}) {
    for (const bool dst : {false, true}) {
      std::vector<graph::Edge> broken = edges;
      (dst ? broken[bad].dst : broken[bad].src) = 50;
      const graph::VectorChunkSource source(50, broken, 1);
      for (const u32 threads : {1u, 7u}) {
        set_build_threads(threads);
        EXPECT_THROW(graph::build_from_chunks(source), CheckFailure)
            << "edge " << bad << " dst=" << dst << " threads=" << threads;
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

// --- canonical sequences, pinned ---------------------------------------------

/// FNV-1a over a stream's canonical sequence: every emitted (u, v), in
/// chunk order, each endpoint folded as four little-endian bytes.
template <typename Source>
u64 sequence_fingerprint(const Source& source) {
  u64 h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](vidx x) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (x >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (u64 c = 0; c < source.num_chunks(); ++c) {
    source.emit(c, [&](vidx u, vidx v) {
      fold(u);
      fold(v);
    });
  }
  return h;
}

TEST(StreamSequence, FingerprintsPinned) {
  // The canonical edge sequences are part of the kChunkStreamVersion
  // contract: every suite graph, golden, and cached .eclg derives from
  // them. A sampler rewrite that changes one edge fails here first. The
  // 8<<16-edge streams span eight seeding blocks.
  struct Case {
    const char* name;
    u64 fingerprint;
    u64 actual;
  };
  const u64 edges = u64{8} << 16;
  const Case cases[] = {
      {"rmat s8 seed1", 0x4750eae8c5b73a51ULL,
       sequence_fingerprint(
           gen::RmatStream(8, edges, 0.45, 0.22, 0.22, 1))},
      {"rmat s8 seed99", 0x127fa12ae492ef8bULL,
       sequence_fingerprint(
           gen::RmatStream(8, edges, 0.45, 0.22, 0.22, 99))},
      {"rmat s16 seed1", 0x47b38e5fe1efc5b6ULL,
       sequence_fingerprint(
           gen::RmatStream(16, edges, 0.45, 0.22, 0.22, 1))},
      {"rmat s16 seed99", 0x6b7fde808be05c89ULL,
       sequence_fingerprint(
           gen::RmatStream(16, edges, 0.45, 0.22, 0.22, 99))},
      {"kron s8 seed1", 0xfd009c6a63a62e6fULL,
       sequence_fingerprint(gen::RmatStream::kronecker(8, edges, 1))},
      {"kron s8 seed99", 0x6c5fca816838d014ULL,
       sequence_fingerprint(gen::RmatStream::kronecker(8, edges, 99))},
      {"kron s16 seed1", 0xab420ebff45e8511ULL,
       sequence_fingerprint(gen::RmatStream::kronecker(16, edges, 1))},
      {"kron s16 seed99", 0x05d00d1d94ce420dULL,
       sequence_fingerprint(gen::RmatStream::kronecker(16, edges, 99))},
      {"uniform", 0x0a60f1a250dd272aULL,
       sequence_fingerprint(gen::UniformRandomStream(5000, 3 << 16, 7))},
      {"pa", 0x46412bf9e9929225ULL,
       sequence_fingerprint(gen::PreferentialAttachmentStream(5000, 4, 7))},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.actual, c.fingerprint)
        << c.name << ": 0x" << std::hex << c.actual;
  }
}

TEST(RmatThreshold, IntegerCompareEqualsUnitCompare) {
  // rmat_threshold(p) is the exact integer image of `unit() >= p`,
  // checked at the draws where it could first go wrong: both extremes of
  // the 64-bit range and the three draws that straddle T * 2^11.
  const double probabilities[] = {0.0,  0x1.0p-60, 0.11, 0.19, 0.22,
                                  0.45, 0.57,      0.67, 0.76, 0.89,
                                  0.95, 1.0 - 0x1.0p-53, 1.0, 1.0 + 1e-10};
  for (const double p : probabilities) {
    const u64 t = gen::detail::rmat_threshold(p);
    ASSERT_LE(t, u64{1} << 53) << p;
    std::vector<u64> draws = {0, ~u64{0}};
    if (t > 0) draws.push_back((t << 11) - 1);  // ~0 when t = 2^53
    if (t < (u64{1} << 53)) {
      draws.push_back(t << 11);
      draws.push_back((t << 11) + (u64{1} << 11) - 1);
    }
    for (const u64 x : draws) {
      const bool by_unit = static_cast<double>(x >> 11) * 0x1.0p-53 >= p;
      EXPECT_EQ((x >> 11) >= t, by_unit)
          << "p=" << p << " x=0x" << std::hex << x;
    }
  }
}

TEST(RmatThreshold, RejectsNegativeOrNonFiniteProbabilities) {
  // Negative mass makes the quadrant bounds non-monotone, which the
  // branch-free descent cannot represent; the sum keeps its 1e-9 slack.
  const auto rejects = [](double a, double b, double c, const char* name) {
    try {
      gen::RmatStream(8, 100, a, b, c, 1);
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
      return;
    }
    ADD_FAILURE() << "accepted " << a << ", " << b << ", " << c;
  };
  rejects(std::nan(""), 0.2, 0.2, "a=");
  rejects(0.45, -0.1, 0.22, "b=");
  rejects(0.45, 0.22, std::numeric_limits<double>::infinity(), "c=");
  rejects(0.5, 0.25, 0.25 + 2e-9, "sum");
  // A sum of exactly 1 leaves the last quadrant no mass: no level ever
  // sets both endpoints' bit.
  const gen::RmatStream full(8, 4000, 0.5, 0.25, 0.25, 1);
  for (u64 c = 0; c < full.num_chunks(); ++c) {
    full.emit(c, [](vidx u, vidx v) { EXPECT_EQ(u & v, 0u); });
  }
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
