#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace popbench {

namespace {

size_t Rank(size_t n, double q) {
  const double r = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};

}  // namespace

double NearestRank(const std::vector<double>& sorted, double q) {
  return sorted[Rank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

Percentile ReportPercentile(std::vector<double>* samples, double wanted) {
  Percentile p;
  p.samples = samples->size();
  if (samples->empty()) return p;
  std::sort(samples->begin(), samples->end());
  p.q = 50;
  for (double q : kLadder) {
    if (q > wanted) continue;
    if (SamplesBeyond(samples->size(), q) >= 10) {
      p.q = q;
      p.enough = true;
      break;
    }
  }
  p.value = NearestRank(*samples, p.q);
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<std::vector<double>> Chunks(const std::vector<double>& ordered,
                                        size_t size) {
  std::vector<std::vector<double>> chunks;
  for (size_t i = 0; i < ordered.size(); i += size) {
    const size_t end = std::min(ordered.size(), i + size);
    if (!chunks.empty() && end - i < size) {
      chunks.back().insert(chunks.back().end(), ordered.begin() + i,
                           ordered.end());
      break;
    }
    chunks.emplace_back(ordered.begin() + i, ordered.begin() + end);
  }
  return chunks;
}

Percentile MedianOfChunks(std::vector<std::vector<double>> chunks,
                          double wanted) {
  Percentile out;
  out.q = wanted;
  out.enough = true;
  std::vector<double> values;
  for (std::vector<double>& chunk : chunks) {
    if (chunk.empty()) continue;
    Percentile p = ReportPercentile(&chunk, wanted);
    values.push_back(p.value);
    out.q = std::min(out.q, p.q);
    out.enough = out.enough && p.enough;
    out.samples += p.samples;
  }
  if (values.empty()) out.enough = false;
  out.value = Median(values);
  return out;
}

void FailureLedger::Merge(const FailureLedger& other) {
  attempted += other.attempted;
  answered += other.answered;
  errors += other.errors;
  wrong += other.wrong;
}

uint64_t FailureLedger::failed() const {
  const uint64_t unanswered = attempted > answered ? attempted - answered : 0;
  return unanswered + errors + wrong;
}

std::string PercentileLabel(const Percentile& p) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%g of %zu%s", p.q, p.samples,
                p.enough ? "" : " (<10 beyond)");
  return buf;
}

}  // namespace popbench
