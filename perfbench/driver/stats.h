// Pure bookkeeping shared by the benchmark driver and its tests: the
// percentile rule, HR@10 counting and the stage-sum bound. Nothing here touches the program under test.
#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The quantile a tail figure may honestly claim for `n` samples: p99 when
/// at least ten samples lie beyond it, otherwise the highest quantile that
/// still has ten beyond it, and the median alone under 40 samples (a "tail"
/// of fewer than ten points is noise, not a tail).
inline double TailQuantile(size_t n) {
  if (n < 40) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;    // Value at `tail_q`.
  double tail_q = 0.5;  // Quantile the tail figure actually is.
};

/// Summarizes (and sorts) `samples` under the percentile rule.
inline LatencySummary Summarize(std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = QuantileSorted(samples, 0.5);
  s.tail_q = TailQuantile(s.n);
  s.tail = QuantileSorted(samples, s.tail_q);
  return s;
}

/// Median of a small sample (copies); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Latency of a run made of rounds: each round is summarized under the
/// percentile rule and the run reports the median over rounds, so a host
/// stall inside one round moves one round's figure, not the run's.
struct RoundsSummary {
  size_t n = 0;         // Samples over all rounds.
  double p50 = 0.0;     // Median over rounds of each round's median.
  double tail = 0.0;    // Median over rounds of each round's tail.
  double tail_q = 0.5;  // Tail quantile of the smallest round.
};

inline RoundsSummary SummarizeRounds(std::vector<std::vector<double>>& rounds) {
  RoundsSummary out;
  std::vector<double> p50s, tails;
  out.tail_q = 0.99;
  for (std::vector<double>& samples : rounds) {
    if (samples.empty()) continue;
    const LatencySummary s = Summarize(samples);
    out.n += s.n;
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    out.tail_q = std::min(out.tail_q, s.tail_q);
  }
  out.p50 = Median(p50s);
  out.tail = Median(tails);
  return out;
}

/// Online HR@10: one case per top-k answer, judged against the POI the user
/// visits next. A failed request is a case and a miss. Only the first ten
/// *distinct* ids count, and a duplicated id is credited once.
class HitCounter {
 public:
  void AddFailed() { ++cases_; }
  void Add(const std::vector<int32_t>& ranked, int32_t truth) {
    ++cases_;
    int32_t seen[10];
    int num_seen = 0;
    for (const int32_t id : ranked) {
      if (std::find(seen, seen + num_seen, id) != seen + num_seen) continue;
      if (id == truth) {
        ++hits_;
        return;
      }
      seen[num_seen++] = id;
      if (num_seen == 10) return;
    }
  }
  uint64_t cases() const { return cases_; }
  uint64_t hits() const { return hits_; }
  double Ratio() const {
    return cases_ ? static_cast<double>(hits_) / static_cast<double>(cases_)
                  : 0.0;
  }

 private:
  uint64_t cases_ = 0;
  uint64_t hits_ = 0;
};

/// The server's per-stage means (parse, queue wait, compute, serialize,
/// write wait) describe disjoint parts of one round trip, so their sum can
/// not exceed the mean round trip the client observed. A sum above it means
/// the stage clocks or the client's accounting are wrong.
inline bool StagesWithinRoundTrip(const std::vector<double>& stage_means_us,
                                  double client_mean_rtt_us) {
  double sum = 0.0;
  for (const double m : stage_means_us) {
    if (!(m >= 0.0)) return false;  // Negative or NaN stage: broken clock.
    sum += m;
  }
  return sum <= client_mean_rtt_us;
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
