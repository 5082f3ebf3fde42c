// Tests of the benchmark's own bookkeeping (driver/stats.h). Run with
// `python3 perfbench/run.py --selftest` from the repository root, which
// builds and runs this binary.
#include <cmath>
#include <cstdio>
#include <vector>

#include "../driver/stats.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using perfbench::HitCounter;

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // n..1
  return v;
}

size_t SamplesBeyond(const std::vector<double>& sorted, double value) {
  size_t beyond = 0;
  for (const double v : sorted) beyond += v > value;
  return beyond;
}

void TestPercentileRule() {
  // Under 40 samples only the median is reported, as the tail too.
  for (const size_t n : {1u, 2u, 10u, 39u}) {
    std::vector<double> v = Ramp(n);
    const auto s = perfbench::Summarize(v);
    CHECK(s.n == n);
    CHECK(s.tail_q == 0.5);
    CHECK(s.tail == s.p50);
  }
  // From 40 samples on: the highest quantile with ten samples beyond it,
  // capped at p99 once there are 1000 samples.
  for (const size_t n : {40u, 41u, 100u, 500u, 999u, 1000u, 1001u, 100000u}) {
    std::vector<double> v = Ramp(n);
    const auto s = perfbench::Summarize(v);
    CHECK(s.tail_q <= 0.99);
    CHECK(SamplesBeyond(v, s.tail) >= 10);
    if (n < 1000) CHECK(SamplesBeyond(v, s.tail) == 10);
    if (n >= 1000) CHECK(s.tail_q == 0.99);
  }
  {
    std::vector<double> v = Ramp(40);
    const auto s = perfbench::Summarize(v);
    CHECK(s.tail_q == 0.75);
    CHECK(s.tail == 30.0);
    CHECK(s.p50 == 20.0);
  }
  std::vector<double> empty;
  CHECK(perfbench::Summarize(empty).n == 0);
  CHECK(perfbench::Median({3.0, 1.0, 2.0, 10.0}) == 2.5);

  // Per-round figures, median over rounds: one round with a stall in it
  // does not move the run's tail; the smallest round sets the quantile.
  std::vector<std::vector<double>> rounds = {Ramp(1000), Ramp(1000),
                                             Ramp(500), {}};
  for (double& v : rounds[1]) v *= 100.0;  // The stalled round.
  const auto r = perfbench::SummarizeRounds(rounds);
  CHECK(r.n == 2500);
  CHECK(r.tail_q == 0.98);
  CHECK(r.p50 == 500.0);   // Round medians 500, 50000, 250.
  CHECK(r.tail == 990.0);  // Round tails 990, 99000, 490.
}

void TestHitCounting() {
  HitCounter hr;
  hr.Add({5, 6, 7}, 7);  // Hit.
  hr.Add({5, 6, 7}, 8);  // Miss.
  hr.AddFailed();        // Failed request: a case and a miss.
  CHECK(hr.cases() == 3);
  CHECK(hr.hits() == 1);
  CHECK(std::fabs(hr.Ratio() - 1.0 / 3.0) < 1e-15);

  // Duplicates are credited once and do not use up the ten slots.
  HitCounter dup;
  dup.Add({1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}, 2);  // 2 is the 2nd distinct id.
  dup.Add({4, 4, 4}, 4);                          // One hit, not three.
  CHECK(dup.cases() == 2);
  CHECK(dup.hits() == 2);

  // Only the first ten distinct ids count.
  HitCounter clamp;
  clamp.Add({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 10);
  clamp.Add({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 9);
  CHECK(clamp.hits() == 1);

  HitCounter none;
  CHECK(none.Ratio() == 0.0);
}

void TestStageSumBound() {
  using perfbench::StagesWithinRoundTrip;
  CHECK(StagesWithinRoundTrip({1.0, 2.0, 3.0, 1.0, 3.0}, 10.0));   // Equal.
  CHECK(StagesWithinRoundTrip({1.0, 2.0, 3.0, 1.0, 2.0}, 10.0));
  CHECK(!StagesWithinRoundTrip({1.0, 2.0, 3.0, 1.0, 3.5}, 10.0));  // Over.
  CHECK(!StagesWithinRoundTrip({-1.0, 2.0}, 10.0));
  CHECK(!StagesWithinRoundTrip({std::nan(""), 2.0}, 10.0));
  CHECK(StagesWithinRoundTrip({}, 0.0));
}

}  // namespace

int main() {
  TestPercentileRule();
  TestHitCounting();
  TestStageSumBound();
  if (g_failures) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench stats tests: all passed\n");
  return 0;
}
