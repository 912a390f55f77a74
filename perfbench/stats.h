// Order statistics the benchmark reports. A percentile is only reported
// when the sample supports it: at least kMinBeyond samples must lie
// beyond it, so a tail figure never rests on one or two stragglers.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinBeyond = 10;

/// The percentiles a tail figure may use, highest first.
inline constexpr double kTailLadder[] = {99.0, 90.0, 75.0, 50.0};

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

/// Whether `count` samples put at least kMinBeyond strictly above the
/// `pct`-th percentile.
inline bool PercentileSupported(size_t count, double pct) {
  const double beyond = static_cast<double>(count) * (100.0 - pct) / 100.0;
  return beyond + 1e-9 >= static_cast<double>(kMinBeyond);
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
inline double PercentileOfSorted(const std::vector<double>& sorted,
                                 double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// The highest ladder percentile `count` samples support; 0 when not
/// even the median is supported.
inline double HighestSupportedPct(size_t count) {
  for (double pct : kTailLadder) {
    if (PercentileSupported(count, pct)) return pct;
  }
  return 0.0;
}

/// The highest supported percentile of a sorted sample, with its value
/// (both 0 when none is supported).
struct Tail {
  double pct = 0.0;
  double value = 0.0;
};

inline Tail HighestSupportedTail(const std::vector<double>& sorted) {
  const double pct = HighestSupportedPct(sorted.size());
  return pct > 0.0 ? Tail{pct, PercentileOfSorted(sorted, pct)} : Tail{};
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
