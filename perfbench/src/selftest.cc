// Tests of the benchmark's own arithmetic: the median, the slot-median
// summary, the tail percentile rule, and span self time with nested and overlapping
// children. Exits nonzero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the functions must sort
}

void TestMedianAndMean() {
  using perfbench::Mean;
  using perfbench::Median;
  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Near(Median({3, 1, 2}), 2), "odd median");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "even median averages the middle");
  Expect(Near(Median({5}), 5), "median of one");
  Expect(Near(Mean({1, 2, 3, 6}), 3), "mean");
}

void TestSlots() {
  perfbench::Slots slots;
  Expect(slots.MeanOfMedians() == 0.0, "no samples give 0");
  // Slot 0 (three samples, one slowed by the machine) costs its median
  // 10; slot 2 (one sample) costs 40; the empty slot 1 is skipped.
  slots.Add(0, 10);
  slots.Add(0, 90);
  slots.Add(0, 9);
  slots.Add(2, 40);
  Expect(Near(slots.MeanOfMedians(), (10 + 40) / 2.0),
         "unweighted mean of the slot medians");
  Expect(Near(slots.MeanOfMedians({3, 100, 1}), (3 * 10 + 40) / 4.0),
         "weighted mean skips the weight of an empty slot");
  Expect(slots.All().size() == 4, "every sample kept");
}

void TestTailRule() {
  using perfbench::TailPercentile;
  Expect(!TailPercentile(OneTo(39)).present, "39 samples: median only");
  auto t = TailPercentile(OneTo(40));
  Expect(t.present && Near(t.percentile, 75) && Near(t.value, 30) &&
             t.beyond == 10,
         "40 samples: p75 with 10 beyond");
  t = TailPercentile(OneTo(99));
  Expect(t.present && Near(t.percentile, 75), "99 samples: still p75");
  t = TailPercentile(OneTo(100));
  Expect(t.present && Near(t.percentile, 90) && Near(t.value, 90) &&
             t.beyond == 10,
         "100 samples: p90");
  t = TailPercentile(OneTo(199));
  Expect(t.present && Near(t.percentile, 90), "199 samples: p90");
  t = TailPercentile(OneTo(200));
  Expect(t.present && Near(t.percentile, 95) && Near(t.value, 190),
         "200 samples: p95");
  t = TailPercentile(OneTo(1000));
  Expect(t.present && Near(t.percentile, 99) && Near(t.value, 990) &&
             t.beyond == 10,
         "1000 samples: p99");
  t = TailPercentile(OneTo(10000));
  Expect(t.present && Near(t.percentile, 99.9) && Near(t.value, 9990),
         "10000 samples: p99.9");
}

void TestSelfTime() {
  using perfbench::SelfTime;
  using perfbench::SpanRecorder;
  using perfbench::UnionLength;
  Expect(Near(UnionLength({}), 0), "empty union");
  Expect(Near(UnionLength({{0, 2}, {1, 3}, {5, 6}}), 4), "overlapping union");
  Expect(Near(UnionLength({{0, 10}, {2, 3}}), 10), "contained interval");
  Expect(Near(SelfTime(0, 10, {}), 10), "no children");
  Expect(Near(SelfTime(0, 10, {{1, 4}, {3, 6}}), 5),
         "overlapping children are counted once");
  Expect(Near(SelfTime(0, 10, {{-2, 1}, {9, 12}}), 8),
         "children clipped to the parent");

  // request [0,100) ⊃ a [10,40) ⊃ a1 [15,25); b [30,60) overlaps a;
  // c [70,80). The request's self time counts the union of its direct
  // children a, b, c only: [10,60) ∪ [70,80) = 60, so self = 40; the
  // grandchild a1 lowers a's self time, not the request's.
  SpanRecorder rec;
  const int64_t req = rec.Add("request", 0, 100, -1, 1);
  const int64_t a = rec.Add("a", 10, 40, req, 1);
  const int64_t a1 = rec.Add("a1", 15, 25, a, 1);
  const int64_t b = rec.Add("b", 30, 60, req, 1);
  const int64_t c = rec.Add("c", 70, 80, req, 1);
  const std::vector<double> self = rec.SelfMs();
  Expect(Near(self[req], 40), "request self time");
  Expect(Near(self[a], 20), "nested child's self time");
  Expect(Near(self[a1], 10) && Near(self[b], 30) && Near(self[c], 10),
         "leaf self time is the duration");

  // Live spans nest and end in order.
  const int64_t outer = rec.Begin("outer", -1, 2);
  const int64_t inner = rec.Begin("inner", outer, 2);
  const double inner_ms = rec.End(inner);
  const double outer_ms = rec.End(outer);
  Expect(inner_ms >= 0 && outer_ms >= inner_ms, "live spans nest");
  Expect(rec.SelfMs()[outer] >= 0, "live self time is non-negative");
}

}  // namespace

int main() {
  TestMedianAndMean();
  TestSlots();
  TestTailRule();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
