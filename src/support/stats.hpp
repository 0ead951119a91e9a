// Descriptive statistics used by the profiling reports.
//
// The paper reports per-thread/per-vertex averages and maxima (Tables 2-5),
// medians of nine runs (Section 5.2), Pearson correlations between metrics
// and graph properties (Sections 6.1.1/6.1.5), and 95% confidence intervals
// around medians (Figure 2). Everything needed for those is here.
#pragma once

#include <span>
#include <vector>

#include "support/types.hpp"

namespace eclp::stats {

/// Five-number summary of a sample.
struct Summary {
  usize count = 0;
  double total = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
};

/// Summarize an integer or floating-point sample.
Summary summarize(std::span<const u64> xs);
Summary summarize(std::span<const double> xs);

// The order statistics below copy the sample once and select the ranks they
// need (std::nth_element, then a min/max scan for a neighbouring rank):
// O(n) average time instead of a sort's O(n log n), with exactly the values
// a sorted copy would give.

/// Median of a sample (interpolated for even sizes).
double median(std::span<const double> xs);
double median(std::span<const u64> xs);

/// p-th percentile in [0,100] via linear interpolation between the two
/// neighbouring ranks.
double percentile(std::span<const double> xs, double p);
/// The same for integer samples: the ranks are selected on the integers,
/// without a double copy, and interpolated in double, so the result is
/// bit-identical to percentile() over the samples converted to double.
double percentile(std::span<const u32> xs, double p);

/// Pearson correlation coefficient r between two equally-sized samples.
/// Returns 0 when either sample has zero variance.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Nonparametric 95% confidence interval around the median via the
/// binomial order-statistic method (the error bars in the paper's Figure 2).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
Interval median_ci95(std::span<const double> xs);

/// Streaming accumulator: mean/min/max/stddev without storing the sample.
class Online {
 public:
  void add(double x);
  usize count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double total() const { return total_; }
  /// Population variance (Welford).
  double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
  double stddev() const;

 private:
  usize n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double total_ = 0.0;
};

}  // namespace eclp::stats
