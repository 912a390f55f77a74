// Self-tests of the benchmark's own helpers: the percentile rule (a
// percentile needs at least ten samples beyond it), the median, and the
// span attribution that splits a request across layers. Exits nonzero
// when any expectation fails.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "timeline.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> Range(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

void TestMedian() {
  using perfbench::Median;
  Expect(Near(Median({}), 0.0), "median of nothing is 0");
  Expect(Near(Median({7.0}), 7.0), "median of one value");
  Expect(Near(Median({3.0, 1.0, 2.0}), 2.0), "median of odd count");
  Expect(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of even count");
}

void TestPercentileRule() {
  using perfbench::HighestSupportedTail;
  using perfbench::PercentileOfSorted;
  using perfbench::PercentileSupported;
  Expect(PercentileSupported(1000, 99.0), "p99 needs 1000 samples: 1000 ok");
  Expect(!PercentileSupported(999, 99.0), "p99 with 999 samples refused");
  Expect(PercentileSupported(100, 90.0), "p90 with 100 samples");
  Expect(!PercentileSupported(99, 90.0), "p90 with 99 samples refused");
  Expect(PercentileSupported(20, 50.0), "p50 with 20 samples");
  Expect(!PercentileSupported(19, 50.0), "p50 with 19 samples refused");

  const std::vector<double> thousand = Range(1000);
  Expect(Near(PercentileOfSorted(thousand, 99.0), 990.0),
         "nearest-rank p99 of 1..1000 leaves exactly 10 beyond");
  Expect(Near(PercentileOfSorted(thousand, 50.0), 500.0), "p50 of 1..1000");
  Expect(Near(PercentileOfSorted({}, 50.0), 0.0), "percentile of nothing");

  perfbench::Tail tail = HighestSupportedTail(thousand);
  Expect(Near(tail.pct, 99.0) && Near(tail.value, 990.0), "tail of 1000 is p99");
  tail = HighestSupportedTail(Range(150));
  Expect(Near(tail.pct, 90.0) && Near(tail.value, 135.0), "tail of 150 is p90");
  tail = HighestSupportedTail(Range(64));
  Expect(Near(tail.pct, 75.0) && Near(tail.value, 48.0), "tail of 64 is p75");
  tail = HighestSupportedTail(Range(10));
  Expect(Near(tail.pct, 0.0) && Near(tail.value, 0.0),
         "10 samples support no percentile");
}

biorank::obs::Span MakeSpan(const std::string& name, int parent,
                            uint64_t start, uint64_t end) {
  biorank::obs::Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = start;
  span.duration_ns = end - start;
  return span;
}

void TestAttribution() {
  // bench root [0,100): api.query [5,95) holding admit [5,10), integrate
  // [10,30), api.rank [30,90) with canonicalize [30,60) and, under
  // serve.resolve [60,88), three parallel resolution spans: Monte Carlo
  // [60,80) and [65,75), factoring [70,85).
  std::vector<biorank::obs::Span> spans = {
      MakeSpan("bench.query", -1, 0, 100),
      MakeSpan("api.query", 0, 5, 95),
      MakeSpan("api.admit", 1, 5, 10),
      MakeSpan("api.integrate", 1, 10, 30),
      MakeSpan("api.rank", 1, 30, 90),
      MakeSpan("serve.canonicalize", 4, 30, 60),
      MakeSpan("serve.resolve", 4, 60, 88),
      MakeSpan("serve.mc_shards", 6, 60, 80),
      MakeSpan("serve.mc_shards", 6, 70, 85),
      MakeSpan("serve.mc_shards", 6, 65, 75),
  };
  spans[7].counters.push_back({"trials", 100});
  spans[8].counters.push_back({"exact", 1});
  spans[9].counters.push_back({"trials", 100});
  const perfbench::Attribution a = perfbench::Attribute(spans);
  auto tag = [&](const char* name) {
    auto it = a.tag_s.find(name);
    return it == a.tag_s.end() ? -1.0 : it->second * 1e9;
  };
  Expect(Near(tag("api"), 5.0), "admit is api time");
  Expect(Near(tag("integrate"), 20.0), "integrate time");
  Expect(Near(tag("serve.canonicalize"), 30.0), "canonicalize time");
  Expect(Near(tag("core.mc"), 20.0), "parallel mc spans count as a union");
  Expect(Near(tag("core.exact"), 15.0), "mc span that resolved exactly");
  Expect(Near(tag("serve"), 3.0), "resolve self time outside its children");
  Expect(Near(a.attributed_s * 1e9, 83.0),
         "envelopes' self time is unattributed");
}

}  // namespace

int main() {
  TestMedian();
  TestPercentileRule();
  TestAttribution();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
