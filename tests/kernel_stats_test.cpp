// The §3.1 general metrics every launch collects automatically
// (KernelCost::active_threads / idle_threads / max_thread_work / imbalance)
// and the harness plumbing the benches share.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/harness.hpp"
#include "sim/device.hpp"
#include "support/json.hpp"

namespace eclp {
namespace {

TEST(KernelStats, CountsActiveAndIdleThreads) {
  sim::Device dev;
  // 64 threads; only the first 24 do anything.
  const auto ks = dev.launch("t", {2, 32}, [](sim::ThreadCtx& ctx) {
    if (ctx.global_id() < 24) ctx.charge_alu(5);
  });
  EXPECT_EQ(ks.cost.active_threads, 24u);
  EXPECT_EQ(ks.cost.idle_threads, 40u);
  EXPECT_DOUBLE_EQ(ks.cost.active_fraction(), 24.0 / 64.0);
}

TEST(KernelStats, TracksMaxThreadWorkAndImbalance) {
  sim::Device dev;
  const auto ks = dev.launch("t", {1, 4}, [](sim::ThreadCtx& ctx) {
    // Work 10, 20, 30, 40 -> mean 25, max 40.
    ctx.charge_alu(10 * (ctx.global_id() + 1));
  });
  EXPECT_EQ(ks.cost.max_thread_work, 40u);
  EXPECT_DOUBLE_EQ(ks.cost.imbalance(), 40.0 / 25.0);
}

TEST(KernelStats, AllIdleLaunchIsBalanced) {
  sim::Device dev;
  const auto ks = dev.launch("noop", {1, 8}, [](sim::ThreadCtx&) {});
  EXPECT_EQ(ks.cost.active_threads, 0u);
  EXPECT_EQ(ks.cost.idle_threads, 8u);
  EXPECT_DOUBLE_EQ(ks.cost.imbalance(), 1.0);
  EXPECT_DOUBLE_EQ(ks.cost.active_fraction(), 0.0);
}

TEST(KernelStats, SingleHotThreadSetsCriticalPath) {
  // One thread doing W >> lanes-worth of work must bound the kernel time:
  // the serial chain cannot spread across lanes.
  sim::CostModel cm;
  sim::Device dev(cm);
  const u64 hot = 100000;
  const auto ks = dev.launch("hot", {1, 256}, [&](sim::ThreadCtx& ctx) {
    if (ctx.global_id() == 0) ctx.charge_alu(hot);
  });
  EXPECT_GE(ks.cost.modeled_cycles, hot);  // not hot / lanes_per_sm
}

TEST(KernelStats, BalancedWorkUsesThroughputBound) {
  sim::CostModel cm;
  sim::Device dev(cm);
  // 256 threads x 100 cycles, perfectly balanced: the throughput bound
  // (total / lanes / SMs-ish) applies, far below the serial total.
  const auto ks = dev.launch("flat", {8, 32}, [](sim::ThreadCtx& ctx) {
    ctx.charge_alu(100);
  });
  EXPECT_LT(ks.cost.modeled_cycles, 8 * 32 * 100);
  EXPECT_DOUBLE_EQ(ks.cost.imbalance(), 1.0);
}

// --- harness ----------------------------------------------------------------------

TEST(Harness, ParseDefaultsAndOverrides) {
  const char* argv[] = {"bench", "--scale=tiny", "--runs=5",
                        "--out=/tmp/eclp_harness_test"};
  const auto ctx = harness::parse(4, argv, "test bench");
  EXPECT_EQ(ctx.scale, gen::Scale::kTiny);
  EXPECT_EQ(ctx.runs, 5);
  EXPECT_EQ(ctx.out_dir, "/tmp/eclp_harness_test");
}

TEST(Harness, EmitWritesCsvCopy) {
  const char* argv[] = {"bench", "--out=/tmp/eclp_harness_emit"};
  const auto ctx = harness::parse(2, argv, "test bench");
  Table t("demo");
  t.set_header({"a", "b"});
  t.add_row({"x", "1"});
  harness::emit(ctx, "demo_experiment", t);
  std::ifstream is("/tmp/eclp_harness_emit/demo_experiment.csv");
  ASSERT_TRUE(is.is_open());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "a,b");
  std::filesystem::remove_all("/tmp/eclp_harness_emit");
}

TEST(Harness, JsonCellsAreNumbersOnlyForRfcNumberTokens) {
  const std::string path = ::testing::TempDir() + "/eclp_harness_cells.json";
  const std::string json_flag = "--json=" + path;
  const char* argv[] = {"bench", "--out=/tmp/eclp_harness_cells",
                        json_flag.c_str()};
  const auto ctx = harness::parse(3, argv, "test bench");
  Table t("cells");
  t.set_header({"delta", "ratio", "count", "wall"});
  t.add_row({"+3.33", "nan", "1,234", "12 ms"});
  harness::emit(ctx, "cells", t);
  std::ifstream is(path);
  ASSERT_TRUE(is.is_open());
  std::stringstream text;
  text << is.rdbuf();
  const json::Value doc = json::Value::parse(text.str());
  const json::Value& row = doc.at("tables").items()[0].at("rows").items()[0];
  EXPECT_EQ(row.at("delta").as_string(), "+3.33");
  EXPECT_EQ(row.at("ratio").as_string(), "nan");
  EXPECT_EQ(row.at("count").as_number(), 1234.0);
  EXPECT_EQ(row.at("wall").as_string(), "12 ms");
  std::filesystem::remove_all("/tmp/eclp_harness_cells");
  std::filesystem::remove(path);
}

TEST(Harness, MakeDeviceAppliesSeedAndMode) {
  auto det = harness::make_device();
  auto shuf = harness::make_device(9, sim::ScheduleMode::kShuffled);
  EXPECT_EQ(det.schedule_mode(), sim::ScheduleMode::kDeterministic);
  EXPECT_EQ(shuf.schedule_mode(), sim::ScheduleMode::kShuffled);
  EXPECT_EQ(shuf.seed(), 9u);
}

}  // namespace
}  // namespace eclp
