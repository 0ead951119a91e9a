#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/prng.hpp"
#include "support/rss.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace eclp {
namespace {

// --- check -------------------------------------------------------------------

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(ECLP_CHECK(1 + 1 == 2));
}

TEST(Check, FailureThrowsWithExpression) {
  try {
    ECLP_CHECK(1 == 2);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    // message() drops the source location that what() carries.
    EXPECT_EQ(e.message(), "check failed: 1 == 2");
    EXPECT_NE(std::string(e.what()).find("support_test.cpp:"),
              std::string::npos);
  }
  EXPECT_EQ(CheckFailure("plain text").message(), "plain text");
}

TEST(Check, MessageIsStreamed) {
  try {
    const int x = 41;
    ECLP_CHECK_MSG(x == 42, "x=" << x);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("x=41"), std::string::npos);
    EXPECT_EQ(e.message(), "x=41");
  }
}

// --- prng --------------------------------------------------------------------

TEST(Prng, SplitmixIsDeterministicAndMixing) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
  // Avalanche smoke check: one-bit input change flips many output bits.
  const u64 d = splitmix64(0) ^ splitmix64(1);
  EXPECT_GT(std::popcount(d), 16);
}

TEST(Prng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDifferentStreams) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Prng, BelowStaysInBounds) {
  Rng rng(123);
  for (u64 bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Prng, BelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Prng, BelowCoversSmallRangeUniformly) {
  Rng rng(99);
  std::array<int, 4> hits{};
  for (int i = 0; i < 8000; ++i) hits[rng.below(4)]++;
  for (const int h : hits) {
    EXPECT_GT(h, 1700);
    EXPECT_LT(h, 2300);
  }
}

TEST(Prng, RangeInclusive) {
  Rng rng(4);
  std::set<i64> seen;
  for (int i = 0; i < 500; ++i) {
    const i64 v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Prng, UnitInHalfOpenInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, PermutationIsPermutation) {
  Rng rng(3);
  const auto p = rng.permutation(257);
  std::vector<bool> seen(257, false);
  for (const u32 v : p) {
    ASSERT_LT(v, 257u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Prng, ShuffleKeepsMultiset) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 2, 3, 5, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(v, copy);
}

TEST(Prng, ReseedResetsStream) {
  Rng rng(1);
  const u64 first = rng();
  rng();
  rng.reseed(1);
  EXPECT_EQ(rng(), first);
}

// --- stats -------------------------------------------------------------------

TEST(Stats, SummaryOfKnownSample) {
  const std::vector<u64> xs = {1, 2, 3, 4, 5};
  const auto s = stats::summarize(std::span<const u64>(xs));
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.total, 15.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
}

TEST(Stats, SummaryOfEmptySample) {
  const auto s = stats::summarize(std::span<const u64>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, MedianOddEven) {
  const std::vector<double> odd = {5, 1, 3};
  EXPECT_DOUBLE_EQ(stats::median(std::span<const double>(odd)), 3.0);
  const std::vector<double> even = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(stats::median(std::span<const double>(even)), 2.5);
}

TEST(Stats, PercentileEndpointsAndMiddle) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 50), 25.0);
}

// Sort-based references: the definitions percentile, median and median_ci95
// must reproduce bit for bit, whatever selection method computes them.
std::vector<double> sorted(const std::vector<double>& xs) {
  std::vector<double> v = xs;
  std::sort(v.begin(), v.end());
  return v;
}

double ref_percentile(const std::vector<double>& xs, double p) {
  const auto v = sorted(xs);
  if (v.size() == 1) return v[0];
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const usize lo = static_cast<usize>(rank);
  const usize hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double ref_median(const std::vector<double>& xs) {
  const auto v = sorted(xs);
  const usize n = v.size();
  if (n % 2 == 1) return v[n / 2];
  return 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

stats::Interval ref_median_ci95(const std::vector<double>& xs) {
  const auto v = sorted(xs);
  const usize n = v.size();
  if (n < 6) return {v.front(), v.back()};
  const double half = 1.96 * std::sqrt(static_cast<double>(n)) / 2.0;
  const double center = static_cast<double>(n) / 2.0;
  const auto clamp_rank = [&](double r) {
    return static_cast<usize>(
        std::clamp(r, 0.0, static_cast<double>(n - 1)));
  };
  const usize lo = clamp_rank(std::floor(center - half));
  const usize hi = clamp_rank(std::ceil(center + half) - 1.0);
  return {v[lo], v[std::max(lo, hi)]};
}

TEST(Stats, OrderStatisticsMatchSortedReferenceExactly) {
  Rng rng(77);
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  for (const usize n :
       {usize{1}, usize{2}, usize{3}, usize{7}, usize{100000}}) {
    std::vector<double> spread, dups, equal(n, 4.25);
    for (usize i = 0; i < n; ++i) {
      spread.push_back(rng.unit() * 1e6 - 3e5);
      dups.push_back(static_cast<double>(rng.below(4)));
    }
    const std::string tag = " n=" + std::to_string(n);
    samples.emplace_back("spread" + tag, spread);
    samples.emplace_back("duplicate-heavy" + tag, dups);
    samples.emplace_back("all-equal" + tag, equal);
  }
  // Ascending and descending inputs, and one reaching past 2^53 where the
  // interpolation rounds.
  std::vector<double> asc, desc, wide;
  for (int i = 0; i < 1001; ++i) {
    asc.push_back(i);
    desc.push_back(1000 - i);
    wide.push_back(static_cast<double>((u64{1} << 53) + 3 * (i % 97)));
  }
  samples.emplace_back("ascending", asc);
  samples.emplace_back("descending", desc);
  samples.emplace_back("wide", wide);

  for (const auto& [name, xs] : samples) {
    for (const double p : {0.0, 0.1, 25.0, 50.0, 73.3, 90.0, 99.9, 100.0}) {
      EXPECT_EQ(stats::percentile(xs, p), ref_percentile(xs, p))
          << name << " p=" << p;
    }
    EXPECT_EQ(stats::median(xs), ref_median(xs)) << name;
    const auto ci = stats::median_ci95(xs);
    const auto want = ref_median_ci95(xs);
    EXPECT_EQ(ci.lo, want.lo) << name;
    EXPECT_EQ(ci.hi, want.hi) << name;
  }
  // The integer overload agrees with the double one.
  const std::vector<u64> ints = {9, 2, 2, 7, 1, 8};
  EXPECT_EQ(stats::median(std::span<const u64>(ints)),
            ref_median({9, 2, 2, 7, 1, 8}));
}

// ECL-MST picks its light/heavy split threshold from its u32 weights: the
// integer overload must give the double path's value bit for bit.
TEST(Stats, U32PercentileMatchesDoublePathExactly) {
  constexpr u32 kMax = ~u32{0};
  Rng rng(31);
  std::vector<std::pair<std::string, std::vector<u32>>> samples;
  samples.emplace_back("one", std::vector<u32>{42});
  samples.emplace_back("one-max", std::vector<u32>{kMax});
  samples.emplace_back("two", std::vector<u32>{kMax, 3});
  samples.emplace_back("two-equal", std::vector<u32>{7, 7});
  for (const usize n : {usize{7}, usize{8}, usize{1001}, usize{4096}}) {
    std::vector<u32> dups, near_max;
    for (usize i = 0; i < n; ++i) {
      dups.push_back(static_cast<u32>(rng.below(5)));
      // Values within 16 of 2^32 - 1, where a float copy would round.
      near_max.push_back(kMax - static_cast<u32>(rng.below(17)));
    }
    const std::string tag = " n=" + std::to_string(n);
    samples.emplace_back("duplicate-heavy" + tag, dups);
    samples.emplace_back("near-max" + tag, near_max);
  }
  for (const auto& [name, xs] : samples) {
    const std::vector<double> as_double(xs.begin(), xs.end());
    for (const double p : {0.0, 12.5, 50.0, 99.0, 100.0}) {
      const double want = stats::percentile(as_double, p);
      EXPECT_EQ(stats::percentile(std::span<const u32>(xs), p), want)
          << name << " p=" << p;
      EXPECT_EQ(want, ref_percentile(as_double, p)) << name << " p=" << p;
    }
  }
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(stats::pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg = {8, 6, 4, 2};
  EXPECT_NEAR(stats::pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVarianceIsZero) {
  const std::vector<double> xs = {1, 1, 1};
  const std::vector<double> ys = {1, 2, 3};
  EXPECT_DOUBLE_EQ(stats::pearson(xs, ys), 0.0);
}

TEST(Stats, PearsonUncorrelatedNearZero) {
  Rng rng(21);
  std::vector<double> xs, ys;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(rng.unit());
    ys.push_back(rng.unit());
  }
  EXPECT_LT(std::abs(stats::pearson(xs, ys)), 0.05);
}

TEST(Stats, MedianCiCoversMedian) {
  std::vector<double> xs;
  Rng rng(8);
  for (int i = 0; i < 101; ++i) xs.push_back(rng.unit());
  const auto ci = stats::median_ci95(xs);
  const double med = stats::median(xs);
  EXPECT_LE(ci.lo, med);
  EXPECT_GE(ci.hi, med);
}

TEST(Stats, MedianCiSmallSampleIsRange) {
  const std::vector<double> xs = {3, 1, 2};
  const auto ci = stats::median_ci95(xs);
  EXPECT_DOUBLE_EQ(ci.lo, 1.0);
  EXPECT_DOUBLE_EQ(ci.hi, 3.0);
}

TEST(Stats, OnlineMatchesBatch) {
  Rng rng(31);
  std::vector<double> xs;
  stats::Online online;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.unit() * 100 - 50;
    xs.push_back(x);
    online.add(x);
  }
  const auto batch = stats::summarize(std::span<const double>(xs));
  EXPECT_EQ(online.count(), batch.count);
  EXPECT_NEAR(online.mean(), batch.mean, 1e-9);
  EXPECT_NEAR(online.stddev(), batch.stddev, 1e-9);
  EXPECT_DOUBLE_EQ(online.min(), batch.min);
  EXPECT_DOUBLE_EQ(online.max(), batch.max);
}

// --- table -------------------------------------------------------------------

TEST(Table, TextRenderingContainsAllCells) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string text = t.to_text();
  for (const char* needle : {"demo", "name", "value", "alpha", "beta", "22"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Table, RowArityIsChecked) {
  Table t("demo");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(Table, CsvEscapesSpecialCells) {
  Table t("demo");
  t.set_header({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt::fixed(2.345, 2), "2.35");
  EXPECT_EQ(fmt::fixed(2.0, 0), "2");
  EXPECT_EQ(fmt::grouped(1234567), "1,234,567");
  EXPECT_EQ(fmt::grouped(12), "12");
  EXPECT_EQ(fmt::signed_pct(3.333, 2), "+3.33");
  EXPECT_EQ(fmt::signed_pct(-0.52, 2), "-0.52");
  EXPECT_EQ(fmt::sci(1.05e6, 2), "1.05e+06");
}

// --- cli ---------------------------------------------------------------------

TEST(Cli, ParsesAllForms) {
  Cli cli;
  cli.add_option("scale", "input scale", "default");
  cli.add_option("runs", "repetitions", "3");
  cli.add_flag("verbose", "chatty output");
  const char* argv[] = {"prog", "--scale=small", "--runs", "9", "--verbose",
                        "positional"};
  cli.parse(6, argv);
  EXPECT_EQ(cli.get("scale"), "small");
  EXPECT_EQ(cli.get_int("runs"), 9);
  EXPECT_TRUE(cli.get_flag("verbose"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, DefaultsApply) {
  Cli cli;
  cli.add_option("runs", "repetitions", "3");
  cli.add_flag("verbose", "chatty");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.get_int("runs"), 3);
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, UnknownOptionThrows) {
  Cli cli;
  const char* argv[] = {"prog", "--nope"};
  EXPECT_THROW(cli.parse(2, argv), CheckFailure);
}

TEST(Cli, NonNumericValueThrows) {
  Cli cli;
  cli.add_option("runs", "repetitions", "3");
  const char* argv[] = {"prog", "--runs=abc"};
  cli.parse(2, argv);
  EXPECT_THROW(cli.get_int("runs"), CheckFailure);
  EXPECT_THROW(cli.get_u32("runs"), CheckFailure);
}

TEST(Cli, OutOfRangeIntegersThrowNamingTheFlag) {
  const auto parsed = [](const char* arg) {
    Cli cli;
    cli.add_option("threads", "workers", "1");
    const char* argv[] = {"prog", arg};
    cli.parse(2, argv);
    return cli;
  };
  const auto message = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const CheckFailure& e) {
      return e.what();
    }
    return "";
  };
  // Beyond i64: a typed error, not std::out_of_range.
  const Cli huge = parsed("--threads=99999999999999999999");
  EXPECT_NE(message([&] { huge.get_int("threads"); }).find("--threads="),
            std::string::npos);
  EXPECT_THROW(huge.get_u32("threads"), CheckFailure);
  // Negative and beyond-u32 values are valid i64s but never wrap to a u32.
  const Cli negative = parsed("--threads=-1");
  EXPECT_EQ(negative.get_int("threads"), -1);
  EXPECT_NE(message([&] { negative.get_u32("threads"); }).find("--threads=-1"),
            std::string::npos);
  EXPECT_THROW(parsed("--threads=4294967296").get_u32("threads"),
               CheckFailure);
  EXPECT_EQ(parsed("--threads=4294967295").get_u32("threads"), 4294967295u);
  // Trailing garbage and empty values are malformed, not truncated.
  EXPECT_THROW(parsed("--threads=4x").get_int("threads"), CheckFailure);
  EXPECT_THROW(parsed("--threads=").get_int("threads"), CheckFailure);
}

TEST(Cli, UsageMentionsOptions) {
  Cli cli;
  cli.add_option("scale", "input scale", "default");
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("--scale"), std::string::npos);
  EXPECT_NE(usage.find("input scale"), std::string::npos);
}

// --- rss ---------------------------------------------------------------------

TEST(Rss, SamplersReadTheProcess) {
  // On Linux both counters come from /proc/self/status and are nonzero
  // for any live process; on platforms without procfs they degrade to 0.
  const u64 current = current_rss_bytes();
  const u64 peak = peak_rss_bytes();
  if (current == 0 && peak == 0) GTEST_SKIP() << "procfs unavailable";
  EXPECT_GT(current, u64{1} << 20);  // a test binary resident under 1 MiB?
  EXPECT_GE(peak, current / 2);      // peak can lag briefly after a reset
}

TEST(Rss, ResetWindowsThePeakAroundAnAllocation) {
  if (!reset_peak_rss()) GTEST_SKIP() << "clear_refs unavailable";
  const u64 before = peak_rss_bytes();
  if (before == 0) GTEST_SKIP() << "procfs unavailable";
  constexpr usize kBytes = usize{64} << 20;
  {
    // Touch every page so the allocation is actually resident.
    std::vector<char> block(kBytes, 1);
    volatile char sink = block[kBytes - 1];
    (void)sink;
    EXPECT_GE(peak_rss_bytes(), before + (kBytes * 3) / 4);
  }
  // A second reset drops the watermark back near the (now block-free)
  // current RSS — this windowing is what the peak-RSS bench relies on.
  ASSERT_TRUE(reset_peak_rss());
  EXPECT_LT(peak_rss_bytes(), before + kBytes / 2);
}

}  // namespace
}  // namespace eclp
