// Tests for profiling sessions (src/profile/session.*) and run-to-run diff
// gating (src/profile/diff.*): span hierarchy and deltas, counter
// snapshots, both exported artifacts, schema validation, and the goldens
// that pin the artifacts byte-for-byte across sim-thread counts.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "profile/diff.hpp"
#include "profile/session.hpp"
#include "profile/timeline.hpp"

namespace eclp::profile {
namespace {

TEST(Session, SpanHierarchyAndDeltas) {
  sim::Device dev;
  Session session(dev);
  ASSERT_EQ(Session::current(), &session);
  const u32 algo = session.open_span("algo", SpanKind::kAlgorithm);
  const u32 phase = session.open_span("phase", SpanKind::kPhase);
  dev.launch("work", {2, 16}, [](sim::ThreadCtx& ctx) { ctx.charge_alu(3); });
  session.close_span(phase);
  session.close_span(algo);
  session.finalize();
  const auto spans = session.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[algo].parent, -1);
  EXPECT_EQ(spans[algo].depth, 0u);
  EXPECT_EQ(spans[algo].kind, SpanKind::kAlgorithm);
  EXPECT_EQ(spans[phase].parent, static_cast<i32>(algo));
  EXPECT_EQ(spans[phase].depth, 1u);
  // The launch inside the phase produced a kernel span under it.
  const Span& kernel = spans[2];
  EXPECT_EQ(kernel.kind, SpanKind::kKernel);
  EXPECT_EQ(kernel.parent, static_cast<i32>(phase));
  EXPECT_EQ(kernel.name, "work");
  EXPECT_EQ(kernel.blocks, 2u);
  EXPECT_EQ(kernel.threads_per_block, 16u);
  EXPECT_EQ(kernel.active_threads, 32u);
  EXPECT_EQ(kernel.idle_threads, 0u);
  EXPECT_GT(kernel.cycles(), 0u);
  ASSERT_EQ(kernel.block_cycles.size(), 2u);
  // Cycle and launch deltas roll up: the phase saw exactly the kernel.
  EXPECT_EQ(spans[phase].launches, 1u);
  EXPECT_EQ(spans[phase].cycles(), spans[algo].cycles());
  EXPECT_EQ(spans[algo].launches, 1u);
}

TEST(Session, AtomicDeltasPerSpan) {
  sim::Device dev;
  Session session(dev);
  u64 counter = 0;
  const u32 quiet = session.open_span("quiet", SpanKind::kPhase);
  dev.launch("noatomics", {1, 8},
             [](sim::ThreadCtx& ctx) { ctx.charge_alu(1); });
  session.close_span(quiet);
  const u32 noisy = session.open_span("noisy", SpanKind::kPhase);
  dev.launch("atomics", {2, 32},
             [&](sim::ThreadCtx& ctx) { ctx.atomic_add(counter, u64{1}); });
  session.close_span(noisy);
  session.finalize();
  const auto spans = session.spans();
  ASSERT_EQ(spans.size(), 4u);  // two phases + two kernel spans
  EXPECT_EQ(spans[quiet].atomics, 0u);
  EXPECT_EQ(spans[noisy].atomics, 64u);
}

TEST(Session, CounterDeltasPerSpan) {
  sim::Device dev;
  CounterRegistry reg;
  auto& hits = reg.make<GlobalCounter>("test.hits");
  auto& misses = reg.make<GlobalCounter>("test.misses");
  Session session(dev, &reg);
  const u32 a = session.open_span("a", SpanKind::kPhase);
  hits.inc(5);
  session.close_span(a);
  const u32 b = session.open_span("b", SpanKind::kPhase);
  hits.inc(2);
  misses.inc(1);
  session.close_span(b);
  session.finalize();
  const auto spans = session.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Only the counters that changed inside the span, name-ordered.
  ASSERT_EQ(spans[a].counters.size(), 1u);
  EXPECT_EQ(spans[a].counters[0].first, "test.hits");
  EXPECT_EQ(spans[a].counters[0].second, 5u);
  ASSERT_EQ(spans[b].counters.size(), 2u);
  EXPECT_EQ(spans[b].counters[0].first, "test.hits");
  EXPECT_EQ(spans[b].counters[0].second, 2u);
  EXPECT_EQ(spans[b].counters[1].first, "test.misses");
  EXPECT_EQ(spans[b].counters[1].second, 1u);
}

TEST(Session, ScopedSpanWithoutSessionIsNoop) {
  ASSERT_EQ(Session::current(), nullptr);
  ScopedSpan orphan("orphan");
  orphan.end();  // must be a no-op, not a crash
}

TEST(Session, SessionsNestAndRestore) {
  sim::Device dev;
  ASSERT_EQ(Session::current(), nullptr);
  Session outer(dev);
  EXPECT_EQ(Session::current(), &outer);
  {
    Session inner(dev);
    EXPECT_EQ(Session::current(), &inner);
    ScopedSpan span("inner-only");
  }
  EXPECT_EQ(Session::current(), &outer);
}

TEST(Session, FinalizeClosesStragglersInLifoOrder) {
  sim::Device dev;
  Session session(dev);
  const u32 a = session.open_span("outer", SpanKind::kAlgorithm);
  const u32 b = session.open_span("leaked", SpanKind::kPhase);
  session.finalize();
  const auto spans = session.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_LE(spans[b].end_cycles, spans[a].end_cycles);
  EXPECT_EQ(spans[a].end_cycles, spans[a].start_cycles);  // nothing ran
}

TEST(Session, TracePathFor) {
  EXPECT_EQ(Session::trace_path_for("out.json"), "out.trace.json");
  EXPECT_EQ(Session::trace_path_for("runs/p.json"), "runs/p.trace.json");
  EXPECT_EQ(Session::trace_path_for("profile"), "profile.trace.json");
}

// --- a deterministic reference workload ------------------------------------------
// Phases + iteration spans + a mix of launch shapes, including a
// block-independent launch that actually fans out across the host pool.
// Everything the artifacts record for it is modeled, so the bytes must be
// identical no matter how many sim threads execute it.

struct Artifacts {
  std::string csv;       ///< timeline_csv()
  std::string tables;    ///< timeline_summary() + load_balance() text
  std::string perfetto;  ///< Session::perfetto_json()
  std::string profile;   ///< Session::profile_json()
};

Artifacts run_workload(u32 sim_threads, u64 rounds = 3) {
  const u32 prev_threads = sim::sim_threads();
  sim::set_sim_threads(sim_threads);
  Artifacts out;
  {
    sim::Device dev;
    CounterRegistry reg;
    auto& pushes = reg.make<GlobalCounter>("workload.pushes");
    Session::Options options;
    options.record_wall = false;  // byte-stable profile document
    Session session(dev, &reg, options);
    session.set_meta("bench", "session-golden-workload");
    {
      ScopedSpan algo_span("golden", SpanKind::kAlgorithm);
      ScopedSpan init_span("init");
      sim::LaunchConfig cfg;
      cfg.blocks = 4;
      cfg.threads_per_block = 32;
      cfg.block_independent = true;
      dev.launch("seed_values", cfg, [&](sim::ThreadCtx& ctx) {
        ctx.charge_alu(1 + ctx.global_id() % 5);
        pushes.inc();
      });
      init_span.end();
      u64 best = 0;
      for (u64 round = 0; round < rounds; ++round) {
        ScopedSpan round_span(SpanKind::kIteration, "round", round);
        dev.launch("relax", {4, 32}, [&](sim::ThreadCtx& ctx) {
          if (ctx.global_id() % 2 == 0) {
            ctx.charge_reads(2);
            ctx.charge_writes(1);
            ctx.atomic_max(best, u64{ctx.global_id()});
            pushes.inc();
          }
        });
      }
    }
    session.finalize();
    out.csv = timeline_csv(session);
    out.tables = timeline_summary(session).to_text() + "\n" +
                 load_balance(session).to_text();
    out.perfetto = session.perfetto_json();
    out.profile = session.profile_json();
  }
  sim::set_sim_threads(prev_threads);
  return out;
}

TEST(Session, PerfettoExportStructure) {
  const Artifacts a = run_workload(1);
  const json::Value doc = json::Value::parse(a.perfetto);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").items();
  ASSERT_FALSE(events.empty());
  usize meta = 0, slices = 0, counters = 0, block_slices = 0;
  for (const json::Value& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") ++meta;
    if (ph == "C") ++counters;
    if (ph == "X") {
      ++slices;
      if (e.at("cat").as_string() == "block") ++block_slices;
    }
  }
  EXPECT_GT(meta, 0u);
  EXPECT_GT(counters, 0u);
  // One per-block slice for each of the four 4-block launches, plus the
  // algorithm span, the init phase, 3 iteration spans, and 4 kernel spans.
  EXPECT_EQ(block_slices, 16u);
  EXPECT_EQ(slices - block_slices, 9u);
}

TEST(Session, ProfileValidatesAndSelfDiffIsClean) {
  const Artifacts a = run_workload(1);
  const json::Value doc = json::Value::parse(a.profile);
  ASSERT_NO_THROW(validate_profile(doc));
  const DiffReport report = diff_profiles(doc, doc);
  EXPECT_EQ(report.regressions(), 0u);
  for (const DiffEntry& e : report.entries) {
    EXPECT_EQ(e.status, DiffStatus::kOk) << e.metric;
  }
}

TEST(Session, DiffDetectsGrowthAndImprovement) {
  const json::Value base = json::Value::parse(run_workload(1, 3).profile);
  const json::Value grown = json::Value::parse(run_workload(1, 4).profile);
  // One extra round: more launches, cycles, and counter increments — all
  // beyond the default tolerances.
  const DiffReport worse = diff_profiles(base, grown);
  EXPECT_GT(worse.regressions(), 0u);
  const std::string rendered = worse.to_string();
  EXPECT_NE(rendered.find("regression"), std::string::npos);
  EXPECT_NE(rendered.find("totals/launches"), std::string::npos);
  // The reverse direction is an improvement, which never fails the gate.
  const DiffReport better = diff_profiles(grown, base);
  EXPECT_EQ(better.regressions(), 0u);
  // Generous tolerances absorb the growth.
  DiffOptions loose;
  loose.cycle_tolerance_pct = 1000.0;
  loose.counter_tolerance_pct = 1000.0;
  EXPECT_EQ(diff_profiles(base, grown, loose).regressions(), 0u);
}

TEST(Session, DiffRegressesGrowthFromZeroAtAnyFiniteTolerance) {
  const json::Value doc = json::Value::parse(run_workload(1).profile);
  const auto with_counter = [&](const char* name, u64 value) {
    json::Value out = doc;
    json::Value counters = out.at("counters");
    counters.set(name, value);
    out.set("counters", std::move(counters));
    return out;
  };
  DiffOptions options;
  options.counter_tolerance_pct = 1.0;
  // A zero base has no percentage to grow by, so a tolerance cannot admit
  // the growth.
  const DiffReport grown =
      diff_profiles(with_counter("workload.retries", 0),
                    with_counter("workload.retries", 1000000), options);
  EXPECT_EQ(grown.regressions(), 1u);
  for (const DiffEntry& e : grown.entries) {
    if (e.metric != "counter/workload.retries") continue;
    EXPECT_EQ(e.status, DiffStatus::kRegressed);
  }
  EXPECT_NE(grown.to_string().find("from 0"), std::string::npos);
  // llc.hits is informational: growth from zero is reported, not gated.
  const DiffReport hits = diff_profiles(with_counter("llc.hits", 0),
                                        with_counter("llc.hits", 1000000),
                                        options);
  EXPECT_EQ(hits.regressions(), 0u);
}

TEST(Session, DiffRowsPairByKey) {
  const std::vector<DiffRow> base = {{"kept", 100, 0},
                                     {"gone", 5, 0},
                                     {"shrunk", 10, 0},
                                     {"info", 1, kInformational}};
  const std::vector<DiffRow> cand = {{"info", 1000, kInformational},
                                     {"new", 7, 0},
                                     {"shrunk", 4, 0},
                                     {"kept", 101, 0}};
  const DiffReport report = diff_rows(base, cand);
  ASSERT_EQ(report.entries.size(), 5u);
  // Base rows in base order, then the candidate-only rows.
  EXPECT_EQ(report.entries[0].metric, "kept");
  EXPECT_EQ(report.entries[0].status, DiffStatus::kRegressed);
  EXPECT_DOUBLE_EQ(report.entries[0].delta_pct, 1.0);
  EXPECT_EQ(report.entries[1].status, DiffStatus::kRemoved);
  EXPECT_EQ(report.entries[2].status, DiffStatus::kImproved);
  EXPECT_EQ(report.entries[3].status, DiffStatus::kOk);
  EXPECT_EQ(report.entries[4].metric, "new");
  EXPECT_EQ(report.entries[4].status, DiffStatus::kAdded);
  EXPECT_EQ(report.regressions(), 1u);
  // A key repeated within one side is malformed input.
  EXPECT_THROW(diff_rows({{"a", 1, 0}, {"a", 2, 0}}, {}), CheckFailure);
}

TEST(Session, ValidateRejectsMalformedDocuments) {
  json::Value doc = json::Value::object();
  EXPECT_THROW(validate_profile(doc), CheckFailure);
  doc.set("schema", "not-a-profile");
  doc.set("version", u64{1});
  EXPECT_THROW(validate_profile(doc), CheckFailure);
  json::Value wrong_version = json::Value::parse(run_workload(1).profile);
  wrong_version.set("version", u64{999});
  EXPECT_THROW(validate_profile(wrong_version), CheckFailure);
}

TEST(Session, WriteEmitsBothArtifacts) {
  const std::string dir = ::testing::TempDir();
  const std::string profile_path = dir + "/eclp_session_test.json";
  const std::string trace_path = Session::trace_path_for(profile_path);
  {
    sim::Device dev;
    Session session(dev);
    session.set_output(profile_path);
    ScopedSpan span("only", SpanKind::kAlgorithm);
    dev.launch("k", {1, 4}, [](sim::ThreadCtx& ctx) { ctx.charge_alu(1); });
  }  // destructor finalizes and writes
  std::ifstream profile_in(profile_path);
  ASSERT_TRUE(profile_in.good()) << profile_path;
  std::stringstream profile_text;
  profile_text << profile_in.rdbuf();
  ASSERT_NO_THROW(validate_profile(json::Value::parse(profile_text.str())));
  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good()) << trace_path;
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  EXPECT_NO_THROW(json::Value::parse(trace_text.str()));
  std::remove(profile_path.c_str());
  std::remove(trace_path.c_str());
}

// --- golden files -----------------------------------------------------------------
// Same convention as profile_test.cpp: regenerate with
//   ECLP_UPDATE_GOLDEN=1 ctest -R Golden

void expect_matches_golden(const std::string& name,
                           const std::string& actual) {
  const std::string path = std::string(ECLP_GOLDEN_DIR) + "/" + name;
  if (std::getenv("ECLP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << actual;
    GTEST_SKIP() << "updated golden " << path;
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "missing golden " << path
                         << " (regenerate with ECLP_UPDATE_GOLDEN=1)";
  std::stringstream expected;
  expected << is.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "golden mismatch: " << path;
}

TEST(SessionGolden, ArtifactsAreByteStableAcrossSimThreadCounts) {
  const Artifacts one = run_workload(1);
  const Artifacts many = run_workload(7);
  EXPECT_EQ(one.csv, many.csv);
  EXPECT_EQ(one.tables, many.tables);
  EXPECT_EQ(one.perfetto, many.perfetto);
  EXPECT_EQ(one.profile, many.profile);
}

TEST(SessionGolden, TimelineCsv) {
  expect_matches_golden("session_timeline.csv", run_workload(1).csv);
}

TEST(SessionGolden, TimelineTables) {
  expect_matches_golden("session_timeline_tables.txt", run_workload(1).tables);
}

TEST(SessionGolden, PerfettoTrace) {
  expect_matches_golden("session_perfetto.trace.json",
                        run_workload(1).perfetto);
}

TEST(SessionGolden, ProfileDocument) {
  expect_matches_golden("session_profile.json", run_workload(1).profile);
}

}  // namespace
}  // namespace eclp::profile
