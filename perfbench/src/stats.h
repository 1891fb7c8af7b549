// Summary statistics the benchmark reports.
//
// Latencies are summarized as a median plus the highest percentile that
// still has at least ten samples beyond it; below forty samples only the
// median is reported, since any higher percentile would not be a tail.

#ifndef GENT_PERFBENCH_STATS_H_
#define GENT_PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Arithmetic mean; 0 for an empty input.
inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// One reported tail percentile.
struct Tail {
  bool present = false;   // false: too few samples, report the median alone
  double percentile = 0;  // e.g. 99.0
  double value = 0;
  size_t beyond = 0;      // samples strictly past the percentile's rank
};

/// The highest of p99.9, p99, p95, p90 and p75 that has at least ten
/// samples beyond it (nearest-rank definition: the p-th percentile of n
/// sorted samples is the ceil(p·n/100)-th smallest). Below forty samples
/// nothing qualifies and the result is absent.
inline Tail TailPercentile(std::vector<double> values) {
  Tail tail;
  const size_t n = values.size();
  if (n < 40) return tail;
  std::sort(values.begin(), values.end());
  // Percentiles in tenths, so the rank arithmetic stays in integers.
  for (uint64_t p10 : {999u, 990u, 950u, 900u, 750u}) {
    const uint64_t rank = (p10 * n + 999) / 1000;  // ceil(p·n/100)
    if (rank == 0 || n - rank < 10) continue;
    tail.present = true;
    tail.percentile = static_cast<double>(p10) / 10.0;
    tail.value = values[rank - 1];
    tail.beyond = n - rank;
    return tail;
  }
  return tail;
}

/// Samples grouped by slot: one slot per distinct operation that every
/// round of a workload replays (a source, an append group). A slot's
/// cost is the median of its samples, which discounts a sample slowed by
/// the machine. The summary is the weighted mean of the slot medians:
/// the mean cost of a fixed operation mix, every operation costed at its
/// median. (A median pooled over operations of different cost would
/// instead sit on the gap between two of them and jump when noise swaps
/// them.)
class Slots {
 public:
  void Add(size_t slot, double value) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    slots_[slot].push_back(value);
  }
  /// Σ w(s) · median(s) / Σ w(s) over the slots that have samples, with
  /// w(s) = weights[s], or 1 for every slot when `weights` is empty; 0
  /// when no slot has a sample.
  double MeanOfMedians(const std::vector<double>& weights = {}) const {
    double sum = 0, total = 0;
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].empty()) continue;
      const double w = weights.empty() ? 1.0 : weights.at(s);
      sum += w * Median(slots_[s]);
      total += w;
    }
    return total == 0 ? 0.0 : sum / total;
  }
  std::vector<double> All() const {
    std::vector<double> all;
    for (const auto& s : slots_) all.insert(all.end(), s.begin(), s.end());
    return all;
  }

 private:
  std::vector<std::vector<double>> slots_;
};

}  // namespace perfbench

#endif  // GENT_PERFBENCH_STATS_H_
