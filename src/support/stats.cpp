#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace eclp::stats {

namespace {

template <typename T>
Summary summarize_impl(std::span<const T> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  double mean = 0.0, m2 = 0.0, total = 0.0;
  double mn = static_cast<double>(xs[0]);
  double mx = mn;
  usize n = 0;
  for (const T& v : xs) {
    const double x = static_cast<double>(v);
    total += x;
    mn = std::min(mn, x);
    mx = std::max(mx, x);
    ++n;
    const double d = x - mean;
    mean += d / static_cast<double>(n);
    m2 += d * (x - mean);
  }
  s.total = total;
  s.min = mn;
  s.max = mx;
  s.mean = mean;
  s.stddev = std::sqrt(m2 / static_cast<double>(n));
  return s;
}

/// Partition `v` so that v[k] holds the k-th smallest value (what a full sort
/// would put there) and every element before it is no larger. O(n) average.
template <typename T>
T select_rank(std::vector<T>& v, usize k) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// After select_rank(v, k): the (k+1)-th smallest value, the least element
/// of the partition's upper side. O(n).
template <typename T>
T next_rank(const std::vector<T>& v, usize k) {
  return *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                           v.end());
}

/// percentile() over a sample type whose values convert to double exactly
/// and in order: the ranks are selected in T, then interpolated in double.
template <typename T>
double percentile_impl(std::span<const T> xs, double p) {
  ECLP_CHECK(!xs.empty());
  ECLP_CHECK(p >= 0.0 && p <= 100.0);
  if (xs.size() == 1) return static_cast<double>(xs[0]);
  std::vector<T> v(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const usize lo = static_cast<usize>(rank);
  const double frac = rank - static_cast<double>(lo);
  const double at_lo = static_cast<double>(select_rank(v, lo));
  const double at_hi =
      lo + 1 < v.size() ? static_cast<double>(next_rank(v, lo)) : at_lo;
  return at_lo + frac * (at_hi - at_lo);
}

double median_in_place(std::vector<double>& v) {
  const usize n = v.size();
  const double upper = select_rank(v, n / 2);
  if (n % 2 == 1) return upper;
  // The lower middle is the largest value left of the upper one.
  const double lower = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2));
  return 0.5 * (lower + upper);
}

}  // namespace

Summary summarize(std::span<const u64> xs) { return summarize_impl(xs); }
Summary summarize(std::span<const double> xs) { return summarize_impl(xs); }

double median(std::span<const double> xs) {
  ECLP_CHECK(!xs.empty());
  std::vector<double> v(xs.begin(), xs.end());
  return median_in_place(v);
}

double median(std::span<const u64> xs) {
  ECLP_CHECK(!xs.empty());
  std::vector<double> v(xs.begin(), xs.end());
  return median_in_place(v);
}

double percentile(std::span<const double> xs, double p) {
  return percentile_impl(xs, p);
}

double percentile(std::span<const u32> xs, double p) {
  return percentile_impl(xs, p);
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  ECLP_CHECK(xs.size() == ys.size());
  ECLP_CHECK(!xs.empty());
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0;
  for (usize i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n, my = sy / n;
  double cov = 0, vx = 0, vy = 0;
  for (usize i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    cov += dx * dy;
    vx += dx * dx;
    vy += dy * dy;
  }
  if (vx == 0.0 || vy == 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

Interval median_ci95(std::span<const double> xs) {
  ECLP_CHECK(!xs.empty());
  const usize n = xs.size();
  if (n < 6) {
    // Too few samples for a nonparametric interval: report the range.
    const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
    return {*mn, *mx};
  }
  std::vector<double> v(xs.begin(), xs.end());
  // Order-statistic CI: ranks ~ n/2 ± 1.96*sqrt(n)/2.
  const double half = 1.96 * std::sqrt(static_cast<double>(n)) / 2.0;
  const double center = static_cast<double>(n) / 2.0;
  const auto clamp_rank = [&](double r) {
    return static_cast<usize>(
        std::clamp(r, 0.0, static_cast<double>(n - 1)));
  };
  const usize lo = clamp_rank(std::floor(center - half));
  const usize hi = std::max(lo, clamp_rank(std::ceil(center + half) - 1.0));
  // Select the upper rank first; the lower one then lies in its left part
  // (when lo == hi the second partition is empty and leaves v[lo] alone).
  const double at_hi = select_rank(v, hi);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.begin() + static_cast<std::ptrdiff_t>(hi));
  return {v[lo], at_hi};
}

void Online::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  total_ += x;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double Online::stddev() const { return std::sqrt(variance()); }

}  // namespace eclp::stats
