#ifndef POPBENCH_STATS_H_
#define POPBENCH_STATS_H_

// Summaries the benchmark reports: percentiles under the ten-beyond
// rule, medians, and the failure ledger behind failed_ratio.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace popbench {

/// A reported percentile: which one was reportable, its value, and the
/// sample count it was taken over.
struct Percentile {
  double q = 0.0;       ///< the percentile actually reported (e.g. 99)
  double value = 0.0;
  size_t samples = 0;
  /// False only when even the median has fewer than ten samples beyond
  /// it; the median is then reported anyway.
  bool enough = false;
};

/// Nearest-rank percentile q (0 < q <= 100) of `sorted` (ascending,
/// nonempty): the value at 1-based rank ceil(q/100 * n).
double NearestRank(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank percentile q of n samples.
size_t SamplesBeyond(size_t n, double q);

/// The percentile to report when `wanted` was asked for: `wanted` if at
/// least ten samples lie beyond it, otherwise the next lower rung of
/// {99, 95, 90, 75, 50} that has ten. `samples` is sorted in place.
Percentile ReportPercentile(std::vector<double>* samples, double wanted);

double Median(std::vector<double> values);

/// Splits `ordered` into consecutive chunks of `size`; a short tail is
/// folded into the last chunk (or is the only chunk).
std::vector<std::vector<double>> Chunks(const std::vector<double>& ordered,
                                        size_t size);

/// The median over chunks of each chunk's reportable percentile (empty
/// chunks skipped). The label names the lowest rung any chunk reported,
/// and the sample count is the total over chunks.
Percentile MedianOfChunks(std::vector<std::vector<double>> chunks,
                          double wanted);

/// Requests attempted against requests answered correctly.
/// failed = not answered + answered with an error + answered wrongly.
struct FailureLedger {
  uint64_t attempted = 0;
  uint64_t answered = 0;
  uint64_t errors = 0;   ///< answered with a non-OK status
  uint64_t wrong = 0;    ///< answered, but a check found it wrong

  void Merge(const FailureLedger& other);
  uint64_t failed() const;
};

/// "p99 of 12345" style label for a reported percentile.
std::string PercentileLabel(const Percentile& p);

}  // namespace popbench

#endif  // POPBENCH_STATS_H_
