// Equivalence tests for parallel ingest (the CSR assembly pipeline in
// graph/stream_build.hpp behind Builder::build, the chunk-parallel
// readers, and the content-addressed graph cache).
//
// The pipeline's contract is stronger than "same graph": its CSR must be
// *byte-identical* to the independent reference in csr_reference.hpp (one
// stable sort by (src, dst), keep-first dedupe) at any thread count —
// sorted adjacency is load-bearing for ECL-CC's init heuristic
// (builder.hpp, paper §6.1.3), and every golden in this repo pins those
// bytes. These tests pin that contract for the whole Table-1 input suite
// and for all four text formats, and they live in the eclp_parallel_tests
// binary so the TSan configuration (ctest -L tsan) race-checks the same
// code paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "csr_reference.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/cache.hpp"
#include "graph/dimacs.hpp"
#include "graph/io.hpp"
#include "graph/transforms.hpp"
#include "support/parallel_for.hpp"

namespace eclp {
namespace {

std::string bytes_of(const graph::Csr& g) {
  std::stringstream ss;
  graph::write_binary(g, ss);
  return std::move(ss).str();
}

/// Restores the ingest configuration a test mutates. Every test in this
/// file runs with the cache disabled unless it explicitly enables one.
class IngestConfigGuard {
 public:
  IngestConfigGuard()
      : threads_(build_threads()), cache_dir_(graph::cache_dir()) {
    graph::set_cache_dir("");
  }
  ~IngestConfigGuard() {
    set_build_threads(threads_);
    graph::set_cache_dir(cache_dir_);
  }

 private:
  u32 threads_;
  std::string cache_dir_;
};

/// A scratch cache directory, wiped on construction and destruction.
class ScratchCache {
 public:
  explicit ScratchCache(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir_);
    graph::set_cache_dir(dir_.string());
    graph::reset_cache_stats();
  }
  ~ScratchCache() {
    graph::set_cache_dir("");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

// --- parallel_for ------------------------------------------------------------

TEST(ParallelFor, ChunkRangesPartitionTheTotal) {
  for (const u64 total : {1ull, 7ull, 64ull, 1000ull}) {
    for (const u64 chunks : {1ull, 2ull, 7ull, 64ull}) {
      u64 expected_begin = 0;
      for (u64 c = 0; c < chunks; ++c) {
        const auto [begin, end] = chunk_range(total, chunks, c);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(end - begin, total / chunks + 1);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, total);
    }
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnceOnAPool) {
  Pool pool(7);
  constexpr u64 kTotal = 10007;
  std::vector<std::atomic<u32>> seen(kTotal);
  parallel_for_chunks(&pool, kTotal, 56, [&](u64, u64 begin, u64 end, u32) {
    for (u64 i = begin; i < end; ++i) seen[i].fetch_add(1);
  });
  for (u64 i = 0; i < kTotal; ++i) {
    ASSERT_EQ(seen[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelFor, RunsInlineWithoutAPool) {
  u64 sum = 0;  // no synchronization: must run on the calling thread
  parallel_for_chunks(nullptr, 100, 8, [&](u64, u64 begin, u64 end, u32) {
    for (u64 i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950u);
}

// --- parallel build ----------------------------------------------------------

/// Build `edges` through the pipeline at 1/2/7 build threads and compare
/// every result against the reference assembler.
void expect_matches_reference(vidx n, const std::vector<graph::Edge>& edges,
                              const graph::BuildOptions& opt,
                              const std::string& what) {
  const std::string expected = bytes_of(reference_build(n, edges, opt));
  for (const u32 threads : {1u, 2u, 7u}) {
    set_build_threads(threads);
    EXPECT_EQ(bytes_of(graph::from_edges(n, edges, opt)), expected)
        << what << " at " << threads << " build threads";
  }
}

/// Every suite input: the generators' own builds are byte-identical at
/// 1/2/7 build threads, and the suite graph's edge list — shuffled, given
/// per-arc weights that differ between the two directions of an edge, and
/// built both unweighted and weighted — matches the reference.
TEST(ParallelBuild, ByteIdenticalAcrossThreadCountsForWholeSuite) {
  IngestConfigGuard guard;
  for (const auto* inputs : {&gen::general_inputs(), &gen::mesh_inputs()}) {
    for (const auto& spec : *inputs) {
      set_build_threads(1);
      const auto g = spec.make(gen::Scale::kTiny);
      const std::string reference = bytes_of(g);
      for (const u32 threads : {2u, 7u}) {
        set_build_threads(threads);
        EXPECT_EQ(bytes_of(spec.make(gen::Scale::kTiny)), reference)
            << spec.name << " at " << threads << " build threads";
      }

      std::vector<graph::Edge> edges;
      for (vidx u = 0; u < g.num_vertices(); ++u) {
        for (const vidx v : g.neighbors(u)) {
          edges.push_back({u, v, (u * 31 + v * 7) % 100 + 1});
        }
      }
      std::shuffle(edges.begin(), edges.end(), std::mt19937_64(u64{17}));
      for (const bool weighted : {false, true}) {
        graph::BuildOptions opt;
        opt.directed = g.directed();
        opt.weighted = weighted;
        expect_matches_reference(
            g.num_vertices(), edges, opt,
            spec.name + (weighted ? " weighted" : " unweighted"));
      }
    }
  }
}

/// Duplicate edges with distinct weights: the first weight in input order
/// survives, at every thread count, directed or mirrored.
TEST(ParallelBuild, KeepsFirstInsertedWeightForDuplicates) {
  IngestConfigGuard guard;
  std::vector<graph::Edge> edges;
  // Many parallel edges spread over sources so chunks split between dupes.
  for (u32 rep = 0; rep < 50; ++rep) {
    for (vidx s = 0; s < 40; ++s) {
      edges.push_back({s, (s + rep) % 40, rep + 1});
      edges.push_back({s, (s * 7 + rep) % 40, 100 + rep});
    }
  }
  for (const bool directed : {true, false}) {
    graph::BuildOptions opt;
    opt.directed = directed;
    opt.weighted = true;
    expect_matches_reference(40, edges, opt,
                             directed ? "directed" : "undirected");
  }
}

/// Both directions of an undirected edge given with different weights:
/// each mirror sits right after its original in the canonical sequence,
/// so keep-first picks the same (first-listed) weight for both arcs.
TEST(ParallelBuild, UndirectedDuplicateKeepsOneWeightForBothDirections) {
  IngestConfigGuard guard;
  const auto expect_symmetric_first = [](const graph::Csr& g,
                                         const char* what) {
    ASSERT_EQ(g.num_edges(), 2u) << what;
    EXPECT_EQ(g.weights_of(0)[0], 5u) << what << ": weight of 0->1";
    EXPECT_EQ(g.weights_of(1)[0], 5u) << what << ": weight of 1->0";
  };
  for (const u32 threads : {1u, 2u, 7u}) {
    set_build_threads(threads);
    expect_symmetric_first(
        graph::from_edges(2, {{0, 1, 5}, {1, 0, 9}}, {.weighted = true}),
        "from_edges");
    expect_symmetric_first(
        graph::parse_dimacs_sp("p sp 2 2\na 1 2 5\na 2 1 9\n",
                               /*symmetrize=*/true),
        "parse_dimacs_sp");
  }
}

/// All eight directed/self-loop/dedupe combinations, weighted and
/// unweighted, against the reference.
TEST(ParallelBuild, NoDedupeAndSelfLoopOptionsMatchSerial) {
  IngestConfigGuard guard;
  std::vector<graph::Edge> edges;
  for (u32 i = 0; i < 5000; ++i) {
    edges.push_back({i % 97, (i * 13 + 5) % 97, i});
  }
  for (const bool dedupe : {true, false}) {
    for (const bool loops : {true, false}) {
      for (const bool directed : {true, false}) {
        for (const bool weighted : {true, false}) {
          graph::BuildOptions opt;
          opt.dedupe = dedupe;
          opt.remove_self_loops = loops;
          opt.directed = directed;
          opt.weighted = weighted;
          expect_matches_reference(
              97, edges, opt,
              "dedupe=" + std::to_string(dedupe) +
                  " loops=" + std::to_string(loops) +
                  " directed=" + std::to_string(directed) +
                  " weighted=" + std::to_string(weighted));
        }
      }
    }
  }
}

// --- chunk-parallel text parsing --------------------------------------------

/// Render a mid-sized graph in each text format and re-parse it at 1/2/7
/// ingest threads; all three parses must serialize identically (and equal
/// the original graph).
TEST(ChunkedParse, AllFormatsByteIdenticalAcrossThreadCounts) {
  IngestConfigGuard guard;

  const auto undirected = gen::uniform_random(1500, 6000, 9);
  const auto weighted = graph::with_random_weights(undirected, 17);

  struct Case {
    const char* name;
    std::string text;
    std::function<graph::Csr()> parse;
  };
  std::vector<Case> cases;
  {
    std::stringstream ss;
    graph::write_matrix_market(undirected, ss);
    const std::string text = ss.str();
    cases.push_back({"mtx", text, [text] {
                       return graph::parse_matrix_market(text);
                     }});
  }
  {
    std::stringstream ss;
    graph::write_edge_list(undirected, ss);
    const std::string text = ss.str();
    const vidx n = undirected.num_vertices();
    cases.push_back({"el", text, [text, n] {
                       return graph::parse_edge_list(text, false, n);
                     }});
  }
  {
    std::stringstream ss;
    graph::write_dimacs_sp(weighted, ss);
    const std::string text = ss.str();
    cases.push_back({"gr", text, [text] {
                       return graph::parse_dimacs_sp(text, true);
                     }});
  }
  {
    std::stringstream ss;
    graph::write_dimacs_col(undirected, ss);
    const std::string text = ss.str();
    cases.push_back({"col", text, [text] {
                       return graph::parse_dimacs_col(text);
                     }});
  }

  for (const Case& c : cases) {
    set_build_threads(1);
    const std::string reference = bytes_of(c.parse());
    for (const u32 threads : {2u, 7u}) {
      set_build_threads(threads);
      EXPECT_EQ(bytes_of(c.parse()), reference)
          << c.name << " at " << threads << " build threads";
    }
  }
  // The unweighted formats must reproduce the original graph exactly.
  set_build_threads(7);
  EXPECT_EQ(bytes_of(cases[0].parse()), bytes_of(undirected));  // mtx
  EXPECT_EQ(bytes_of(cases[1].parse()), bytes_of(undirected));  // el
}

TEST(ChunkedParse, MalformedLinesStillRejectedWhenParallel) {
  IngestConfigGuard guard;
  set_build_threads(7);
  // Enough valid lines that the bad one lands in a later chunk.
  std::string text;
  for (u32 i = 0; i < 5000; ++i) {
    text += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  }
  text += "4999 not-a-number\n";
  EXPECT_THROW(graph::parse_edge_list(text), CheckFailure);
}

// --- adversarial text layouts ------------------------------------------------

/// Rewrite rendered graph text into a hostile-but-legal layout: long
/// comment runs (lines far wider than the average data line, so chunk
/// boundaries land inside them and chunk_at_lines has to scan forward),
/// CRLF line endings, and no trailing newline on the final data line.
/// `comment` is the format's comment lead-in; `body_comments` is false for
/// Matrix Market, whose entry body may not contain comment lines.
std::string adversarial_layout(const std::string& text, char comment,
                               bool body_comments) {
  const std::string long_comment =
      std::string(1, comment) + " " + std::string(700, 'x');
  std::string out;
  out.reserve(text.size() * 2);
  usize line_no = 0;
  usize begin = 0;
  while (begin < text.size()) {
    usize end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    out.append(text, begin, end - begin);
    out += "\r\n";
    ++line_no;
    // A run of oversized comments after the first line (banner/header) and
    // periodically through the body when the format allows them there.
    if (line_no == 1 || (body_comments && line_no % 37 == 0)) {
      for (u32 r = 0; r < 3; ++r) out += long_comment + "\r\n";
    }
    begin = end + 1;
  }
  // Drop the final newline: the last line arrives unterminated.
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

/// Property test: random graphs rendered in all four text formats, then
/// re-serialized into adversarial layouts, must parse to byte-identical
/// CSRs at 1/2/7 ingest threads — and identical to the serial parse of the
/// pristine rendering (comments, CRLF, and missing trailing newlines are
/// presentation, not content).
TEST(ChunkedParse, AdversarialLayoutsMatchSerialPristineParse) {
  IngestConfigGuard guard;

  for (const u64 seed : {3u, 11u, 29u}) {
    const vidx n = 400 + static_cast<vidx>(seed) * 97;
    const auto undirected = gen::uniform_random(n, 4 * n, seed);
    const auto weighted = graph::with_random_weights(undirected, seed + 1);

    struct Case {
      const char* name;
      std::string pristine;
      char comment;
      bool body_comments;
      std::function<graph::Csr(const std::string&)> parse;
    };
    std::vector<Case> cases;
    {
      std::stringstream ss;
      graph::write_matrix_market(undirected, ss);
      cases.push_back({"mtx", ss.str(), '%', false, [](const std::string& t) {
                         return graph::parse_matrix_market(t);
                       }});
    }
    {
      std::stringstream ss;
      graph::write_edge_list(undirected, ss);
      cases.push_back({"el", ss.str(), '#', true, [n](const std::string& t) {
                         return graph::parse_edge_list(t, false, n);
                       }});
    }
    {
      std::stringstream ss;
      graph::write_dimacs_sp(weighted, ss);
      cases.push_back({"gr", ss.str(), 'c', true, [](const std::string& t) {
                         return graph::parse_dimacs_sp(t, true);
                       }});
    }
    {
      std::stringstream ss;
      graph::write_dimacs_col(undirected, ss);
      cases.push_back({"col", ss.str(), 'c', true, [](const std::string& t) {
                         return graph::parse_dimacs_col(t);
                       }});
    }

    for (const Case& c : cases) {
      const std::string hostile =
          adversarial_layout(c.pristine, c.comment, c.body_comments);
      ASSERT_NE(hostile, c.pristine);
      set_build_threads(1);
      const std::string reference = bytes_of(c.parse(c.pristine));
      EXPECT_EQ(bytes_of(c.parse(hostile)), reference)
          << c.name << " seed " << seed << " serial adversarial parse";
      for (const u32 threads : {2u, 7u}) {
        set_build_threads(threads);
        EXPECT_EQ(bytes_of(c.parse(hostile)), reference)
            << c.name << " seed " << seed << " at " << threads
            << " build threads";
      }
    }
  }
}

// --- content-addressed cache -------------------------------------------------

TEST(GraphCache, HitReturnsGraphEqualToFreshBuild) {
  IngestConfigGuard guard;
  ScratchCache cache("eclp_ingest_cache_hit");

  const auto g = gen::uniform_random(600, 2400, 3);
  const auto path = cache.dir() / "input.el";
  std::filesystem::create_directories(cache.dir());
  {
    std::ofstream os(path);
    graph::write_edge_list(g, os);
  }
  const auto cold = graph::load_any(path.string());
  auto stats = graph::cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 0u);

  const auto warm = graph::load_any(path.string());
  stats = graph::cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(bytes_of(cold), bytes_of(warm));
}

TEST(GraphCache, SuiteGenerationIsMemoized) {
  IngestConfigGuard guard;
  ScratchCache cache("eclp_ingest_cache_suite");

  const auto& spec = gen::find_input("rmat16.sym");
  const auto cold = spec.make(gen::Scale::kTiny);
  const auto warm = spec.make(gen::Scale::kTiny);
  const auto stats = graph::cache_stats();
  EXPECT_GE(stats.stores, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(bytes_of(cold), bytes_of(warm));
}

TEST(GraphCache, KeyDistinguishesDirectedness) {
  IngestConfigGuard guard;
  ScratchCache cache("eclp_ingest_cache_directed");

  const auto path = cache.dir() / "arcs.el";
  std::filesystem::create_directories(cache.dir());
  {
    std::ofstream os(path);
    os << "0 1\n1 2\n";
  }
  const auto undirected = graph::load_any(path.string(), false);
  const auto directed = graph::load_any(path.string(), true);
  EXPECT_FALSE(undirected.directed());
  EXPECT_TRUE(directed.directed());
  EXPECT_EQ(undirected.num_edges(), 4u);
  EXPECT_EQ(directed.num_edges(), 2u);
}

TEST(GraphCache, CorruptEntryFallsBackToRebuild) {
  IngestConfigGuard guard;
  ScratchCache cache("eclp_ingest_cache_corrupt");

  const auto path = cache.dir() / "input.el";
  std::filesystem::create_directories(cache.dir());
  const auto g = gen::uniform_random(200, 800, 11);
  {
    std::ofstream os(path);
    graph::write_edge_list(g, os);
  }
  const auto cold = graph::load_any(path.string());

  // Truncate every cached entry to garbage.
  u32 corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache.dir())) {
    if (entry.path().extension() == ".eclg") {
      std::ofstream os(entry.path(), std::ios::binary | std::ios::trunc);
      os << "garbage";
      ++corrupted;
    }
  }
  ASSERT_GE(corrupted, 1u);

  const auto rebuilt = graph::load_any(path.string());
  EXPECT_EQ(bytes_of(cold), bytes_of(rebuilt));
  const auto stats = graph::cache_stats();
  EXPECT_GE(stats.corrupt, 1u);
  // The rebuild re-stored the entry, so a third load hits again.
  graph::load_any(path.string());
  EXPECT_GE(graph::cache_stats().hits, 1u);
}

/// The corrupt-store warning is deduplicated per *entry path*, not once
/// per process: a long-lived serving process that trips over two distinct
/// damaged entries must say so for each of them (while still not spamming
/// a warning per retry of the same entry).
TEST(GraphCache, WarnsOncePerCorruptEntryPathNotOncePerProcess) {
  IngestConfigGuard guard;
  ScratchCache cache("eclp_ingest_cache_warn_paths");

  const auto path_a = cache.dir() / "a.el";
  const auto path_b = cache.dir() / "b.el";
  std::filesystem::create_directories(cache.dir());
  {
    std::ofstream os(path_a);
    graph::write_edge_list(gen::uniform_random(100, 400, 1), os);
  }
  {
    std::ofstream os(path_b);
    graph::write_edge_list(gen::uniform_random(100, 400, 2), os);
  }
  graph::load_any(path_a.string());
  graph::load_any(path_b.string());

  const auto corrupt_all = [&] {
    for (const auto& entry :
         std::filesystem::directory_iterator(cache.dir())) {
      if (entry.path().extension() == ".eclg") {
        std::ofstream os(entry.path(), std::ios::binary | std::ios::trunc);
        os << "garbage";
      }
    }
  };

  graph::reset_cache_warnings();
  ASSERT_EQ(graph::cache_warned_paths(), 0u);

  corrupt_all();
  graph::load_any(path_a.string());
  EXPECT_EQ(graph::cache_warned_paths(), 1u);

  // Same entry corrupt again: already-warned, no second warning path.
  corrupt_all();
  graph::load_any(path_a.string());
  EXPECT_EQ(graph::cache_warned_paths(), 1u);

  // A *different* corrupt entry must still get its own warning.
  graph::load_any(path_b.string());
  EXPECT_EQ(graph::cache_warned_paths(), 2u);
  EXPECT_GE(graph::cache_stats().corrupt, 3u);
}

TEST(GraphCache, DisabledCacheTouchesNothing) {
  IngestConfigGuard guard;
  graph::set_cache_dir("");
  graph::reset_cache_stats();
  const auto& spec = gen::find_input("internet");
  spec.make(gen::Scale::kTiny);
  const auto stats = graph::cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.stores, 0u);
}

}  // namespace
}  // namespace eclp
