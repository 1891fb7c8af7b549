// Figure 8: scalability — (a) average runtime per source and (b) average
// output-size ratio (|output| / |source|), across the four TP-TR
// benchmarks, for ALITE, ALITE-PS, and Gen-T.
//
// Expected shape (paper): Gen-T's runtime and output size stay roughly
// flat across benchmarks; ALITE's explode (it times out on the larger
// ones); ALITE-PS survives but with much larger outputs.
//
// A third section exercises the batch path: ReclaimService::ReclaimBatch
// on a one-worker service vs a GENT_THREADS-worker one (default 4),
// verifying the parallel results are bit-identical to the serial ones
// and reporting the wall-clock speedup (it tracks the machine's core
// count).

#include "bench/bench_common.h"
#include "src/baselines/alite.h"

using namespace gent;
using namespace gent::bench;

namespace {

// One-worker vs `threads`-worker ReclaimBatch on one benchmark; returns
// false if any parallel result differs from its serial counterpart.
bool RunBatchScalability(const TpTrBenchmark& bench, size_t max_sources,
                         size_t threads) {
  size_t limit = std::min(max_sources, bench.sources.size());
  std::vector<Table> sources;
  sources.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    sources.push_back(bench.sources[i].source.Clone());
  }
  ReclaimRequest request;
  request.max_rows = 2000000;  // deterministic: row budget, no deadline
  auto serial_service = OneShotService(*bench.lake, 1);
  auto parallel_service = OneShotService(*bench.lake, threads);

  auto t0 = std::chrono::steady_clock::now();
  auto serial = serial_service->ReclaimBatch(sources, request);
  double serial_s = Seconds(t0);

  t0 = std::chrono::steady_clock::now();
  auto parallel = parallel_service->ReclaimBatch(sources, request);
  double parallel_s = Seconds(t0);

  bool identical = serial.size() == parallel.size();
  for (size_t i = 0; identical && i < serial.size(); ++i) {
    if (serial[i].ok() != parallel[i].ok()) {
      identical = false;
    } else if (serial[i].ok()) {
      identical =
          TablesBitIdentical(serial[i]->reclaimed, parallel[i]->reclaimed) &&
          serial[i]->originating_names == parallel[i]->originating_names;
    }
  }
  double speedup =
      sources.empty() || parallel_s <= 0 ? 0.0 : serial_s / parallel_s;
  std::printf("%-14s %4zu sources %10.2fs %10.2fs %9.2fx %10s\n",
              bench.name.c_str(), sources.size(), serial_s, parallel_s,
              speedup, identical ? "yes" : "NO");
  return identical;
}

}  // namespace

int main() {
  size_t max_sources = EnvSize("GENT_SOURCES", 12);
  double timeout = EnvDouble("GENT_TIMEOUT_S", 20);
  AliteBaseline alite;
  AlitePsBaseline alite_ps;

  struct Point {
    std::string bench;
    MethodRow alite, alite_ps, gent;
  };
  std::vector<Point> points;

  auto run = [&](const Result<TpTrBenchmark>& bench) {
    if (!bench.ok()) return;
    Point p;
    p.bench = bench->name;
    p.alite = RunBaseline(alite, *bench, max_sources, timeout, false);
    p.alite_ps = RunBaseline(alite_ps, *bench, max_sources, timeout, false);
    p.gent = RunGenT(*bench, max_sources, timeout);
    points.push_back(std::move(p));
  };

  auto small = BuildSmall();
  run(small);
  auto med = BuildMed();
  if (med.ok()) {
    // Run Med itself, then the SANTOS-embedded variant.
    Point p;
    p.bench = med->name;
    p.alite = RunBaseline(alite, *med, max_sources, timeout, false);
    p.alite_ps = RunBaseline(alite_ps, *med, max_sources, timeout, false);
    p.gent = RunGenT(*med, max_sources, timeout);
    points.push_back(std::move(p));
    auto santos = EmbedInNoiseLake(*med, EnvSize("GENT_NOISE", 400), 99);
    if (santos.ok()) {
      santos->name = "SANTOS+Med";
      Point q;
      q.bench = santos->name;
      q.alite = RunBaseline(alite, *santos, max_sources, timeout, false);
      q.alite_ps =
          RunBaseline(alite_ps, *santos, max_sources, timeout, false);
      q.gent = RunGenT(*santos, max_sources, timeout);
      points.push_back(std::move(q));
    }
  }
  run(BuildLarge());

  std::printf("\n=== Figure 8(a): average runtime per source (seconds; "
              "t/o = sources hitting the %.0fs budget) ===\n",
              timeout);
  std::printf("%-14s %16s %16s %16s\n", "Benchmark", "ALITE", "ALITE-PS",
              "Gen-T");
  for (const auto& p : points) {
    auto cell = [](const MethodRow& r) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%8.2fs (%zu t/o)", r.avg_seconds,
                    r.timeouts);
      return std::string(buf);
    };
    std::printf("%-14s %16s %16s %16s\n", p.bench.c_str(),
                cell(p.alite).c_str(), cell(p.alite_ps).c_str(),
                cell(p.gent).c_str());
  }

  std::printf("\n=== Figure 8(b): average output size ratio "
              "(|output cells| / |source cells|) ===\n");
  std::printf("%-14s %12s %12s %12s\n", "Benchmark", "ALITE", "ALITE-PS",
              "Gen-T");
  for (const auto& p : points) {
    std::printf("%-14s %12.1f %12.1f %12.1f\n", p.bench.c_str(),
                p.alite.size_ratio, p.alite_ps.size_ratio,
                p.gent.size_ratio);
  }

  // --- Engine layer: serial vs parallel batch reclamation ----------------
  size_t threads = EnvSize("GENT_THREADS", 4);
  std::printf("\n=== Batch reclamation: serial vs %zu-thread ReclaimBatch "
              "(one-shot service) ===\n",
              threads);
  std::printf("%-14s %12s %11s %11s %9s %10s\n", "Benchmark", "", "serial",
              "parallel", "speedup", "identical");
  bool all_identical = true;
  if (small.ok()) {
    all_identical &= RunBatchScalability(*small, max_sources, threads);
  }
  if (med.ok()) {
    all_identical &= RunBatchScalability(*med, max_sources, threads);
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: batch results diverged from serial reclamation\n");
    return 1;
  }
  return 0;
}
