// End-to-end benchmark of the reclamation service (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Workloads (closed loop, one process, one client thread; batch phases
// use the service's own pool):
//   small-batch-cold   TP-TR Small in RAM, discovery cache off:
//                      cycles of one ReclaimBatch pass and one round
//                      of solo Reclaim.
//   med-restart        TP-TR Med saved once as a v2 snapshot; each cycle
//                      opens a fresh service from it (mapped catalog,
//                      pool budget below the catalog size) and reclaims
//                      a fixed few sources cold.
//   small-zipf-ingest  half of TP-TR Small as a v2-mapped shard; zipf
//                      reads with the cache on, durable appends between
//                      runs of reads, a compaction every two appends.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run, and
// the spans go to <out-dir>/trace-<workload>-<seed>.json. Every timed
// output is checked against a reference computed apart from the timed
// path; a mismatch counts as a failed operation and the exit code is 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "spans.h"
#include "src/benchgen/benchmarks.h"
#include "src/engine/column_stats_catalog.h"
#include "src/engine/reclaim_service.h"
#include "src/integration/integrator.h"
#include "src/lake/snapshot.h"
#include "src/matrix/expand.h"
#include "src/matrix/traversal.h"
#include "src/metrics/similarity.h"
#include "stats.h"

namespace perfbench {
namespace {

using gent::ColumnStatsCatalog;
using gent::DataLake;
using gent::GenT;
using gent::ReclaimRequest;
using gent::ReclaimService;
using gent::Result;
using gent::ServiceOptions;
using gent::Status;
using gent::Table;
using gent::TpTrBenchmark;
using Clock = std::chrono::steady_clock;

/// Row budget of every request: deterministic, unlike a deadline, and
/// far above what any TP-TR source needs.
constexpr uint64_t kMaxRows = 2'000'000;

// small-zipf-ingest cadence.
constexpr size_t kZipfAppends = 2;           // appends per round
constexpr size_t kZipfReadsPerWindow = 100;  // reads before each append
constexpr size_t kZipfCompactEvery = 2;      // appends per compaction
constexpr size_t kZipfCacheEntries = 12;     // < the 26 distinct sources
constexpr size_t kZipfMinHitReads = 4;       // reads per window of a gated hit
constexpr size_t kZipfStreamCycles = 24;     // append-only cycles per round
constexpr double kZipfAlpha = 1.1;

// med-restart: the buffer-pool budget in 64 KiB blocks (the Med catalog
// is ~19 MB, ~300 blocks, so the budget forces eviction during the first
// queries), and the sources reclaimed after every restart. These are the
// Med sources at the first quartile, the median and the third quartile
// of the first-query cost after a restart under that budget, as
// `perfbench --workload med-source-costs` measures and prints it (the
// figures are in ../README.md).
constexpr size_t kMedPoolBlocks = 96;
const std::vector<size_t> kMedSources = {16, 24, 19};

// Layer probes: tables held back and appended as one delta run.
constexpr size_t kProbeDeltaTables = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string work_dir;  // <out_dir>/<workload>: this run's scratch files
};

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Current resident set size, from /proc/self/statm.
double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  const int read = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  if (read != 2) return 0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// splitmix64: a small deterministic generator whose output does not
/// depend on the standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

std::vector<size_t> Permutation(size_t n, Rng& rng) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Below(i)]);
  return p;
}

/// Zipf(α) read counts for `n` ranks summing exactly to `total`
/// (largest-remainder rounding), so every window of reads carries the
/// same multiset of sources and only the order depends on the seed.
std::vector<size_t> ZipfCounts(size_t n, size_t total, double alpha) {
  std::vector<double> w(n);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += w[i] = std::pow(i + 1.0, -alpha);
  std::vector<size_t> counts(n);
  std::vector<std::pair<double, size_t>> rem;
  size_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double exact = total * w[i] / sum;
    counts[i] = static_cast<size_t>(exact);
    assigned += counts[i];
    rem.emplace_back(exact - counts[i], i);
  }
  std::stable_sort(rem.begin(), rem.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t k = 0; assigned < total; ++k, ++assigned) ++counts[rem[k].second];
  return counts;
}

/// Operation tally: every timed operation is attempted once and fails
/// when it returns an error or its output disagrees with the reference.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// First outcome per key is kept for the reference check; every later
/// outcome under the same key must be identical to it.
template <typename Key>
class OutcomeBook {
 public:
  bool Record(const Key& key, Outcome outcome) {
    auto it = first_.find(key);
    if (it == first_.end()) {
      first_.emplace(key, std::move(outcome));
      return true;
    }
    return SameOutcome(it->second, outcome);
  }
  const std::map<Key, Outcome>& first() const { return first_; }

 private:
  std::map<Key, Outcome> first_;
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
  }
  std::string Json(bool correct, const Tally& tally) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    char buf[128];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i ? ", " : "", metrics_[i].name.c_str(),
                    metrics_[i].value);
      out += buf;
      out += "\"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}}";
  }

 private:
  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> metrics_;
};

void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::printf("# ");
  std::vprintf(fmt, ap);
  std::printf("\n");
  va_end(ap);
}

// --- Tracing -----------------------------------------------------------------

/// Per-layer accumulators of a traced run. Times are per request; counts
/// are summed over traced rounds and reported per round, so they repeat
/// exactly when every round replays the same operations.
struct Layers {
  SpanRecorder spans;
  uint64_t next_request = 1;
  const GenT* chain = nullptr;  // the seam chain mirroring the service
  size_t chain_regions = 1;     // num_regions() of the chain's catalog

  std::vector<double> reclaim_traced_ms, reclaim_untraced_ms, engine_self_ms;
  std::vector<double> discovery_ms, expand_ms, traversal_ms, integration_ms;
  double candidates = 0, tables_out = 0, rows_out = 0, rows_aligned = 0;
  double traversal_in = 0, selected = 0, integration_rows = 0, regions = 0;
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0, routed = 0;
  double pool_hits = 0, pool_faults = 0, pool_evictions = 0, resident_mb = 0;
  size_t traced_rounds = 0;
  double pool_busy_ratio = 0;
  double eis_mean = 0;
  double peak_rss_mb = 0;  // process peak at the end of the timed phase
};

/// Runs the service's seams in the service's order — DiscoverCandidates
/// → Expand → MatrixTraversal → IntegrateTables — under spans, with the
/// options a solo ReclaimService::Reclaim uses. `hit` selects which
/// stages the service itself ran (a cache hit replays expanded tables,
/// so only traversal and integration); their summed time is returned in
/// `*path_ms`.
Result<Outcome> RunChain(Layers& layers, const Table& source, bool hit,
                         int64_t parent, uint64_t request, double* path_ms) {
  const GenT& gent = *layers.chain;
  gent::OpLimits limits;
  limits.MaxRows(kMaxRows);
  SpanRecorder& spans = layers.spans;

  int64_t s = spans.Begin("discovery", parent, request);
  auto candidates =
      gent.DiscoverCandidates(source, gent.config().discovery, limits);
  const double discovery = spans.End(s);
  if (!candidates.ok()) return candidates.status();

  s = spans.Begin("expand", parent, request);
  auto expanded =
      gent::Expand(source, *candidates, limits, gent.config().expand);
  const double expand = spans.End(s);
  if (!expanded.ok()) return expanded.status();

  s = spans.Begin("traversal", parent, request);
  auto traversal = gent::MatrixTraversal(source, expanded->tables,
                                         gent.config().traversal, limits);
  std::vector<Table> originating;
  if (traversal.ok()) {
    for (size_t i : traversal->selected) {
      originating.push_back(expanded->tables[i].Clone());
    }
  }
  const double traversal_ms = spans.End(s);
  if (!traversal.ok()) return traversal.status();

  s = spans.Begin("integration", parent, request);
  gent::IntegrationOptions integration = gent.config().integration;
  integration.limits = limits;
  auto reclaimed = gent::IntegrateTables(source, originating, integration);
  const double integration_ms = spans.End(s);
  if (!reclaimed.ok()) return reclaimed.status();

  // Counters, outside every span: what each stage produced, and how much
  // of expansion's output survives the projection onto the source.
  size_t rows = 0, aligned = 0;
  for (const Table& t : expanded->tables) {
    rows += t.num_rows();
    auto projected = gent::ProjectSelectOntoSource(source, t);
    if (projected.ok()) aligned += projected->num_rows();
  }
  layers.candidates += candidates->size();
  layers.tables_out += expanded->tables.size();
  layers.rows_out += rows;
  layers.rows_aligned += aligned;
  layers.traversal_in += expanded->tables.size();
  layers.selected += originating.size();
  layers.integration_rows += reclaimed->num_rows();
  layers.regions += layers.chain_regions;
  if (!hit) {
    layers.discovery_ms.push_back(discovery);
    layers.expand_ms.push_back(expand);
  }
  layers.traversal_ms.push_back(traversal_ms);
  layers.integration_ms.push_back(integration_ms);
  *path_ms = traversal_ms + integration_ms + (hit ? 0 : discovery + expand);

  Outcome out{std::move(*reclaimed), {}};
  for (const Table& t : originating) out.names.push_back(t.name());
  return out;
}

/// What one single-client request produced.
struct Served {
  Result<Outcome> outcome = Status::Internal("not run");
  double ms = 0;
  bool hit = false;
};

/// One single-client request through the service. With `layers` set the
/// request is traced: the service call runs under an engine.reclaim
/// span, then the seam chain reruns the same computation under stage
/// spans (on `chain_source`, the source in the chain's dictionary) and
/// must reproduce the service's result bit for bit.
Served Serve(const ReclaimService& service, const Table& source,
             const ReclaimRequest& request, Layers* layers,
             const Table* chain_source) {
  Served served;
  const uint64_t hits_before = service.cache_stats().hits;
  int64_t root = -1, span = -1;
  uint64_t rid = 0;
  if (layers != nullptr) {
    rid = layers->next_request++;
    root = layers->spans.Begin("request", -1, rid);
    span = layers->spans.Begin("engine.reclaim", root, rid);
  }
  const auto t0 = Clock::now();
  auto result = service.Reclaim(source, request);
  served.ms = MsSince(t0);
  if (layers != nullptr) served.ms = layers->spans.End(span);
  served.hit = service.cache_stats().hits > hits_before;
  if (!result.ok()) {
    served.outcome = result.status();
    if (layers != nullptr) layers->spans.End(root);
    return served;
  }
  served.outcome = ToOutcome(std::move(*result));
  if (layers == nullptr) return served;

  double path_ms = 0;
  const int64_t chain = layers->spans.Begin("chain", root, rid);
  auto replay = RunChain(*layers, *chain_source, served.hit, chain, rid,
                         &path_ms);
  layers->spans.End(chain);
  layers->spans.End(root);
  if (!replay.ok()) {
    served.outcome = Status::Internal("seam chain failed: " +
                                      replay.status().ToString());
  } else if (!SameOutcome(*replay, *served.outcome)) {
    served.outcome =
        Status::Internal("seam chain result differs from the service's");
  } else {
    layers->reclaim_traced_ms.push_back(served.ms);
    layers->engine_self_ms.push_back(served.ms - path_ms);
  }
  return served;
}

/// Counts one served operation. Returns its outcome when it succeeded
/// and has the method's properties; otherwise records the failure.
std::optional<Outcome> Accept(Served served, const Table& source,
                              Tally& tally, const std::string& what) {
  ++tally.attempted;
  if (!served.outcome.ok()) {
    tally.Fail(what + ": " + served.outcome.status().ToString());
    return std::nullopt;
  }
  const std::string bad = PropertyViolation(source, served.outcome->reclaimed);
  if (!bad.empty()) {
    tally.Fail(what + ": " + bad);
    return std::nullopt;
  }
  return std::move(*served.outcome);
}

/// Accept, then file the outcome under `key`: it must be identical to
/// every earlier outcome under the same key.
template <typename Key>
void Check(Served served, const Key& key, const Table& source,
           OutcomeBook<Key>& book, Tally& tally, const std::string& what) {
  std::optional<Outcome> outcome =
      Accept(std::move(served), source, tally, what);
  if (outcome && !book.Record(key, std::move(*outcome))) {
    tally.Fail(what + ": differs from an earlier identical request");
  }
}

/// Compares the first outcome of every key with its reference.
template <typename Key, typename RefFn>
void CheckAgainstReference(const OutcomeBook<Key>& book, RefFn&& reference,
                           Tally& tally, const std::string& what) {
  for (const auto& [key, outcome] : book.first()) {
    Result<Outcome> ref = reference(key);
    if (!ref.ok()) {
      tally.Fail(what + " reference failed: " + ref.status().ToString());
    } else if (!SameOutcome(outcome, *ref)) {
      tally.Fail(what + ": differs from the reference");
    }
  }
}

/// Timings and counters of each layer's own public functions over
/// `lake`, outside any request: catalog build and mapped open, snapshot
/// save and body load, dictionary interning, one delta commit and the
/// compaction that folds it. The lake's v2 snapshot is the same size as
/// the Med file of med-restart and as the fully grown, compacted file of
/// small-zipf-ingest, so lake.snapshot_bytes comes from here for all.
Status ProbeLayers(const DataLake& lake, const std::string& dir,
                   Report& report) {
  constexpr int kReps = 3;
  const std::string path = dir + "/probe.snap";
  std::vector<double> build_ms, save_ms, load_ms, open_ms;
  std::unique_ptr<DataLake> loaded;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    ColumnStatsCatalog catalog(lake);
    build_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    GENT_RETURN_IF_ERROR(
        gent::SaveSnapshotV2(lake, catalog.section_views(), path));
    save_ms.push_back(MsSince(t0));
    loaded = std::make_unique<DataLake>();
    t0 = Clock::now();
    GENT_RETURN_IF_ERROR(gent::LoadSnapshotBody(*loaded, path));
    load_ms.push_back(MsSince(t0));
    gent::storage::MappedCatalog::Options options;
    options.verify_checksums = false;
    t0 = Clock::now();
    auto mapped = ColumnStatsCatalog::OpenMapped(*loaded, path, options);
    open_ms.push_back(MsSince(t0));
    if (!mapped.ok()) return mapped.status();
  }
  const uint64_t snapshot_bytes = FileBytes(path);

  // Intern every string of the loaded dictionary into a fresh one.
  const gent::ValueDictionary& dict = *loaded->dict();
  std::vector<std::string> strings;
  for (gent::ValueId id = 1; id < dict.size(); ++id) {
    if (!dict.IsLabeledNull(id)) strings.push_back(dict.StringOf(id));
  }
  gent::ValueDictionary fresh;
  auto t0 = Clock::now();
  for (const std::string& s : strings) fresh.Intern(s);
  const double intern_ms = MsSince(t0);

  // The lake's last tables as one delta run on a snapshot of the others,
  // then the fold back into one base.
  const std::string delta_path = dir + "/probe-delta.snap";
  const size_t first = lake.size() - kProbeDeltaTables;
  DataLake base(lake.dict());
  for (size_t i = 0; i < first; ++i) {
    GENT_RETURN_IF_ERROR(base.AddTable(lake.table(i)));
  }
  {
    ColumnStatsCatalog base_catalog(base);
    GENT_RETURN_IF_ERROR(
        gent::SaveSnapshotV2(base, base_catalog.section_views(), delta_path));
  }
  const uint64_t before = FileBytes(delta_path);
  const auto run = ColumnStatsCatalog::BuildDeltaRun(lake, first);
  t0 = Clock::now();
  GENT_RETURN_IF_ERROR(
      gent::AppendSnapshotDelta(lake, first, run.views(), delta_path));
  const double delta_ms = MsSince(t0);
  const uint64_t after = FileBytes(delta_path);
  GENT_RETURN_IF_ERROR(gent::CompactSnapshotV2(delta_path));
  const uint64_t compacted = FileBytes(delta_path);
  std::filesystem::remove(path);
  std::filesystem::remove(delta_path);

  report.Add("lake.body_load_ms", "ms", Median(load_ms));
  report.Add("lake.save_ms", "ms", Median(save_ms));
  report.Add("lake.snapshot_bytes", "bytes",
             static_cast<double>(snapshot_bytes));
  report.Add("value.strings", "count", static_cast<double>(dict.size()));
  report.Add("value.intern_ms", "ms", intern_ms);
  report.Add("value.intern_ns_per_string", "ns",
             strings.empty() ? 0 : intern_ms * 1e6 / strings.size());
  report.Add("catalog.open_ms", "ms", Median(open_ms));
  report.Add("catalog.build_ms", "ms", Median(build_ms));
  report.Add("storage.delta_commit_ms", "ms", delta_ms);
  report.Add("storage.bytes_per_append", "bytes",
             static_cast<double>(after - before));
  report.Add("storage.compacted_bytes", "bytes",
             static_cast<double>(compacted));
  return Status::OK();
}

/// engine.pool_busy_ratio of one ReclaimBatch pass: summed per-source
/// stage time over (pool threads × batch wall time).
double PoolBusyRatio(
    const std::vector<Result<gent::ReclamationResult>>& results,
    double wall_ms, size_t threads) {
  double busy_s = 0;
  for (const auto& r : results) {
    if (r.ok()) {
      busy_s += r->discovery_seconds + r->traversal_seconds +
                r->integration_seconds;
    }
  }
  return wall_ms <= 0 ? 0 : busy_s * 1000.0 / (wall_ms * threads);
}

/// The request-path per-layer metrics of a traced run.
void AddRequestLayers(const Layers& l, Report& report) {
  const double rounds = static_cast<double>(std::max<size_t>(1, l.traced_rounds));
  const double hits = l.cache_hits / rounds, misses = l.cache_misses / rounds;
  const double requests = static_cast<double>(
      std::max<size_t>(1, l.reclaim_traced_ms.size()));
  report.Add("engine.self_ms", "ms", Mean(l.engine_self_ms));
  report.Add("engine.pool_busy_ratio", "ratio", l.pool_busy_ratio);
  report.Add("engine.cache_hits", "count", hits);
  report.Add("engine.cache_misses", "count", misses);
  report.Add("engine.cache_evictions", "count", l.cache_evictions / rounds);
  report.Add("engine.cache_hit_ratio", "ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0);
  report.Add("engine.routed_requests", "count", l.routed / rounds);
  report.Add("discovery.busy_ms", "ms", Mean(l.discovery_ms));
  report.Add("discovery.candidates", "count", l.candidates / rounds);
  report.Add("expand.busy_ms", "ms", Mean(l.expand_ms));
  report.Add("expand.tables_out", "count", l.tables_out / rounds);
  report.Add("expand.rows_out", "count", l.rows_out / rounds);
  report.Add("expand.rows_aligned", "count", l.rows_aligned / rounds);
  report.Add("expand.aligned_ratio", "ratio",
             l.rows_out > 0 ? l.rows_aligned / l.rows_out : 0);
  report.Add("traversal.busy_ms", "ms", Mean(l.traversal_ms));
  report.Add("traversal.tables_in", "count", l.traversal_in / rounds);
  report.Add("traversal.selected", "count", l.selected / rounds);
  report.Add("integration.busy_ms", "ms", Mean(l.integration_ms));
  report.Add("integration.rows_out", "count", l.integration_rows / rounds);
  report.Add("catalog.regions", "count", l.regions / requests);
  report.Add("storage.pool_hits", "count", l.pool_hits / rounds);
  report.Add("storage.pool_faults", "count", l.pool_faults / rounds);
  report.Add("storage.pool_evictions", "count", l.pool_evictions / rounds);
  report.Add("storage.resident_mb", "MB", l.resident_mb / rounds);
  report.Add("quality.eis_mean", "ratio", l.eis_mean);
  report.Add("process.peak_rss_mb", "MB", l.peak_rss_mb);
  const double traced = Mean(l.reclaim_traced_ms);
  report.Add("trace.request_ms", "ms", traced);
  report.Add("trace.overhead_ms", "ms", traced - Mean(l.reclaim_untraced_ms));
}

/// Adds the cache, routing and residency counters of `service` — read
/// at the end of one traced round of a service that started the round
/// fresh — to `layers`.
void AddServiceCounters(const ReclaimService& service, Layers& layers) {
  const auto cache = service.cache_stats();
  layers.cache_hits += cache.hits;
  layers.cache_misses += cache.misses;
  layers.cache_evictions += cache.evictions;
  layers.routed += service.routing_stats().requests;
  for (const auto& shard : service.residency_stats()) {
    layers.pool_hits += shard.catalog.pool_hits;
    layers.pool_faults += shard.catalog.pool_faults;
    layers.pool_evictions += shard.catalog.pool_evictions;
    layers.resident_mb +=
        static_cast<double>(shard.catalog.bytes_resident) / (1024.0 * 1024.0);
  }
}

/// Mean of the paper's EIS over (source, reclaimed) pairs.
template <typename Key, typename SourceFn>
double MeanEis(const OutcomeBook<Key>& book, SourceFn&& source_of) {
  double sum = 0;
  for (const auto& [key, outcome] : book.first()) {
    sum += gent::EisScore(source_of(key), outcome.reclaimed).value_or(0.0);
  }
  return book.first().empty() ? 0 : sum / book.first().size();
}

std::string TailText(const std::vector<double>& ms) {
  const Tail tail = TailPercentile(ms);
  if (!tail.present) return "too few samples for a tail";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g %.3f ms (%zu beyond)",
                tail.percentile, tail.value, tail.beyond);
  return buf;
}

/// True when `a` and `b` hold the same tables, by name and cell, in the
/// same order.
bool SameLake(const DataLake& a, const DataLake& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a.table(t).name() != b.table(t).name() ||
        !SameTable(a.table(t), b.table(t))) {
      return false;
    }
  }
  return true;
}

/// Saves `lake` as a v2 snapshot with a freshly built RAM catalog.
Status SaveV2(const DataLake& lake, const std::string& path) {
  ColumnStatsCatalog catalog(lake);
  return gent::SaveSnapshotV2(lake, catalog.section_views(), path);
}

std::vector<Table> CloneSources(const TpTrBenchmark& bench) {
  std::vector<Table> out;
  for (const auto& spec : bench.sources) out.push_back(spec.source.Clone());
  return out;
}

/// The pipeline configuration of every timed service and seam chain:
/// expansion and traversal run serially inside a request, as
/// ServiceOptions advises for concurrent traffic (ReclaimBatch pins the
/// same). A solo request then occupies one core instead of spawning and
/// joining a pool of nproc threads per call, so its latency does not
/// hinge on how a shared host schedules those threads.
gent::GenTConfig SerialConfig() {
  gent::GenTConfig config;
  config.expand.num_threads = 1;
  config.traversal.num_threads = 1;
  return config;
}

ReclaimRequest Request(const std::string& lake, bool bypass_cache) {
  ReclaimRequest request;
  request.lake = lake;
  request.max_rows = kMaxRows;
  request.bypass_cache = bypass_cache;
  return request;
}

/// Everything one run of a workload produced.
struct RunResult {
  Tally tally;
  Report report;
  Layers layers;
  Status status = Status::OK();  // a set-up or probe failure: no result
};

Status WriteTrace(const Layers& layers, const Args& args) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  const std::string header = "\"workload\": \"" + args.workload +
                             "\", \"seed\": " + std::to_string(args.seed) +
                             ", ";
  if (!layers.spans.WriteJson(path, header)) {
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

// --- small-batch-cold ----------------------------------------------------------
//
// TP-TR Small registered in RAM with the discovery cache off. The run
// alternates ReclaimBatch passes over all 26 sources on the service's
// pool with solo Reclaim rounds from one client. Expansion dominates
// here, and nothing touches snapshots, storage or the cache.

void SmallBatchCold(const Args& args, RunResult& out) {
  constexpr int kSetupReps = 9;
  std::vector<double> setup_s;
  double setup_rss = 0;  // after the first set-up, in a fresh process
  std::unique_ptr<TpTrBenchmark> bench;
  std::unique_ptr<ReclaimService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    bench.reset();
    const auto t0 = Clock::now();
    auto made = gent::MakeTpTrBenchmark("TP-TR Small", gent::TpTrSmallConfig());
    if (!made.ok()) {
      out.status = made.status();
      return;
    }
    bench = std::make_unique<TpTrBenchmark>(std::move(*made));
    ServiceOptions options;
    options.config = SerialConfig();
    options.dict = bench->lake->dict();
    options.cache_capacity = 0;
    service = std::make_unique<ReclaimService>(std::move(options));
    if (Status s = service->AddLake("small", DataLake(*bench->lake)); !s.ok()) {
      out.status = s;
      return;
    }
    setup_s.push_back(MsSince(t0) / 1000.0);
    if (rep == 0) setup_rss = CurrentRssMb();
  }
  const std::vector<Table> sources = CloneSources(*bench);
  const size_t n = sources.size();
  const ReclaimRequest request = Request("small", /*bypass_cache=*/true);
  Rng rng(args.seed);
  OutcomeBook<size_t> book;
  Tally& tally = out.tally;
  Layers& layers = out.layers;
  const double budget_ms = args.seconds * 1000.0;

  // One ReclaimBatch pass over every source, in the generator's order:
  // a pass lasts at least as long as its longest source, so its wall
  // time depends on where that source lands, and a seed-drawn order
  // would make that position, not the program, set the spread.
  auto batch_pass = [&](double* busy_ratio) {
    const auto t0 = Clock::now();
    auto results = service->ReclaimBatch(sources, request);
    const double wall_ms = MsSince(t0);
    if (busy_ratio != nullptr) {
      *busy_ratio = PoolBusyRatio(results, wall_ms, service->num_threads());
    }
    for (size_t i = 0; i < n; ++i) {
      Served served;
      if (results[i].ok()) {
        served.outcome = ToOutcome(std::move(*results[i]));
      } else {
        served.outcome = results[i].status();
      }
      Check(std::move(served), i, sources[i], book, tally,
            "batch source " + std::to_string(i));
    }
    return wall_ms;
  };
  // One solo round: every source once from one client, seed-drawn order.
  auto solo_round = [&](Layers* traced, Slots* ms) {
    for (size_t i : Permutation(n, rng)) {
      Served served = Serve(*service, sources[i], request, traced, &sources[i]);
      ms->Add(i, served.ms);
      Check(std::move(served), i, sources[i], book, tally,
            "solo source " + std::to_string(i));
    }
  };

  std::vector<double> pass_ms;
  Slots solo_ms;  // slot: source
  std::unique_ptr<GenT> chain;
  if (!args.trace) {
    // Whole cycles of one pass and one solo round, so every run attempts
    // the same operation mix whatever its length, and both phases sample
    // the whole run rather than one half of it each.
    const auto t0 = Clock::now();
    do {
      pass_ms.push_back(batch_pass(nullptr));
      solo_round(nullptr, &solo_ms);
    } while (MsSince(t0) < budget_ms);
  } else {
    chain = std::make_unique<GenT>(*bench->lake, SerialConfig());
    layers.chain = chain.get();
    Slots untraced;
    const auto t0 = Clock::now();
    do {
      solo_round(nullptr, &untraced);
      Slots traced;
      const uint64_t routed = service->routing_stats().requests;
      solo_round(&layers, &traced);
      ++layers.traced_rounds;
      layers.routed +=
          static_cast<double>(service->routing_stats().requests - routed);
    } while (MsSince(t0) < budget_ms);
    batch_pass(&layers.pool_busy_ratio);
    layers.reclaim_untraced_ms = untraced.All();
  }
  layers.peak_rss_mb = PeakRssMb();

  // Reference: serial GenT::Reclaim over the same lake, own catalog.
  GenT reference(*bench->lake);
  CheckAgainstReference(
      book,
      [&](size_t i) -> Result<Outcome> {
        gent::OpLimits limits;
        limits.MaxRows(kMaxRows);
        auto r = reference.Reclaim(sources[i], limits);
        if (!r.ok()) return r.status();
        return ToOutcome(std::move(*r));
      },
      tally, "small-batch-cold");
  const double eis =
      MeanEis(book, [&](size_t i) -> const Table& { return sources[i]; });

  if (!args.trace) {
    double pass_total_s = 0;
    for (double ms : pass_ms) pass_total_s += ms / 1000.0;
    Note("batch passes %zu: cold_sps %.3f sources/s", pass_ms.size(),
         static_cast<double>(n * pass_ms.size()) / pass_total_s);
    const std::vector<double> solo = solo_ms.All();
    Note("solo requests %zu: cold p50 %.3f ms, %s", solo.size(),
         Median(solo), TailText(solo).c_str());
    Note("eis_mean %.6f over %zu sources", eis, book.first().size());
    Note("peak_rss_mb %.1f", layers.peak_rss_mb);
    out.report.Add("setup_s", "s", Median(setup_s));
    out.report.Add("request_ms", "ms", solo_ms.MeanOfMedians());
    out.report.Add("bulk_op_ms", "ms", Median(pass_ms));
    out.report.Add("setup_rss_mb", "MB", setup_rss);
    return;
  }
  layers.eis_mean = eis;
  out.status = ProbeLayers(*bench->lake, args.work_dir, out.report);
}

// --- med-restart ---------------------------------------------------------------
//
// TP-TR Med saved once as a v2 snapshot. Every cycle opens a fresh
// service (fresh dictionary) on it — mapped catalog, pool budget below
// the catalog's size — and reclaims a fixed few sources cold, so the
// restart's dictionary re-interning, body parse and catalog open, and
// the first queries' pool fault-in, are all on the critical path.

/// A fresh service for one Med restart: cache off, pool budget below
/// the catalog, no background compaction.
std::unique_ptr<ReclaimService> MedService() {
  ServiceOptions options;
  options.config = SerialConfig();
  options.cache_capacity = 0;
  options.storage.pool_capacity_blocks = kMedPoolBlocks;
  options.storage.compact_after_runs = 0;
  return std::make_unique<ReclaimService>(std::move(options));
}

void MedRestart(const Args& args, RunResult& out) {
  constexpr int kSetupReps = 3;
  const std::string path = args.work_dir + "/med.snap";
  std::vector<double> setup_s;
  double setup_rss = 0;  // after the first set-up, in a fresh process
  std::unique_ptr<TpTrBenchmark> bench;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bench.reset();
    const auto t0 = Clock::now();
    auto made = gent::MakeTpTrBenchmark("TP-TR Med", gent::TpTrMedConfig());
    if (!made.ok()) {
      out.status = made.status();
      return;
    }
    bench = std::make_unique<TpTrBenchmark>(std::move(*made));
    if (Status s = SaveV2(*bench->lake, path); !s.ok()) {
      out.status = s;
      return;
    }
    setup_s.push_back(MsSince(t0) / 1000.0);
    if (rep == 0) setup_rss = CurrentRssMb();
  }
  const ReclaimRequest request = Request("med", /*bypass_cache=*/true);
  std::vector<Table> sources;
  for (size_t i : kMedSources) sources.push_back(bench->sources[i].source.Clone());
  const size_t k = sources.size();

  // Reference: a RAM-built service over the generated lake.
  std::vector<Result<Outcome>> expected;
  {
    ServiceOptions options;
    options.dict = bench->lake->dict();
    options.cache_capacity = 0;
    ReclaimService reference(std::move(options));
    if (Status s = reference.AddLake("med", DataLake(*bench->lake)); !s.ok()) {
      out.status = s;
      return;
    }
    for (const Table& source : sources) {
      auto r = reference.Reclaim(source, request);
      if (r.ok()) {
        expected.emplace_back(ToOutcome(std::move(*r)));
      } else {
        expected.emplace_back(r.status());
      }
    }
  }

  Rng rng(args.seed);
  Tally& tally = out.tally;
  Layers& layers = out.layers;
  std::vector<double> restart_ms;
  Slots query_ms;  // slot: index into kMedSources
  uint64_t catalog_bytes = 0;

  // One restart cycle; with `traced` set its queries are traced too.
  auto cycle = [&](Layers* traced, Slots* ms) {
    auto service = MedService();
    ++tally.attempted;
    auto t0 = Clock::now();
    const Status opened = service->AddLakeFromSnapshot("med", path);
    const double open_ms = MsSince(t0);
    if (!opened.ok()) {
      tally.Fail("restart: " + opened.ToString());
      return;
    }
    const auto residency = service->residency_stats();
    if (residency.empty() || !residency[0].catalog.mapped) {
      tally.Fail("restart fell back to a catalog rebuild");
      return;
    }
    if (traced == nullptr) restart_ms.push_back(open_ms);
    catalog_bytes = residency[0].catalog.bytes_total;

    std::unique_ptr<GenT> chain;
    std::vector<Table> chain_sources;
    if (traced != nullptr) {
      // The chain mirrors the service: a mapped open of the same file,
      // on the service's lake, under the same pool budget.
      auto lake = service->lake("med");
      if (!lake.ok()) {
        tally.Fail("chain lake: " + lake.status().ToString());
        return;
      }
      gent::storage::MappedCatalog::Options mapped_options;
      mapped_options.verify_checksums = false;
      mapped_options.pool_capacity_blocks = kMedPoolBlocks;
      auto catalog =
          ColumnStatsCatalog::OpenMapped(**lake, path, mapped_options);
      if (!catalog.ok()) {
        tally.Fail("chain catalog: " + catalog.status().ToString());
        return;
      }
      chain = std::make_unique<GenT>(std::move(*catalog), SerialConfig());
      traced->chain = chain.get();
      for (const Table& s : sources) {
        chain_sources.push_back(gent::TranslateToDictionary(s, service->dict()));
      }
    }
    for (size_t i : Permutation(k, rng)) {
      Served served = Serve(*service, sources[i], request, traced,
                            traced ? &chain_sources[i] : nullptr);
      ms->Add(i, served.ms);
      const std::string what = "med source " + std::to_string(kMedSources[i]);
      std::optional<Outcome> outcome =
          Accept(std::move(served), sources[i], tally, what);
      if (outcome && expected[i].ok() &&
          !SameOutcome(*outcome, *expected[i])) {
        tally.Fail(what + ": differs from the RAM-built service");
      }
    }
    if (traced != nullptr) {
      AddServiceCounters(*service, *traced);
      ++traced->traced_rounds;
      traced->chain = nullptr;
    }
  };

  const double budget_ms = args.seconds * 1000.0;
  const auto t0 = Clock::now();
  if (!args.trace) {
    do {
      cycle(nullptr, &query_ms);
    } while (MsSince(t0) < budget_ms);
  } else {
    Slots untraced;
    do {
      cycle(nullptr, &untraced);
      Slots traced;
      cycle(&layers, &traced);
    } while (MsSince(t0) < budget_ms);
    layers.reclaim_untraced_ms = untraced.All();
  }
  layers.peak_rss_mb = PeakRssMb();
  double eis = 0;
  for (size_t i = 0; i < k; ++i) {
    if (!expected[i].ok()) {
      tally.Fail("med reference failed: " + expected[i].status().ToString());
      continue;
    }
    eis += gent::EisScore(sources[i], expected[i]->reclaimed).value_or(0.0) / k;
  }

  if (!args.trace) {
    Note("restarts %zu: restart p50 %.3f ms; first queries %zu: p50 %.3f "
         "ms, %s",
         restart_ms.size(), Median(restart_ms), query_ms.All().size(),
         Median(query_ms.All()), TailText(query_ms.All()).c_str());
    Note("snapshot_mb %.3f, catalog_mb %.3f, pool budget %zu blocks, "
         "eis_mean %.6f",
         FileBytes(path) / 1e6, catalog_bytes / 1e6, kMedPoolBlocks, eis);
    Note("peak_rss_mb %.1f", layers.peak_rss_mb);
    out.report.Add("setup_s", "s", Median(setup_s));
    out.report.Add("request_ms", "ms", query_ms.MeanOfMedians());
    out.report.Add("bulk_op_ms", "ms", Median(restart_ms));
    out.report.Add("setup_rss_mb", "MB", setup_rss);
    return;
  }
  {
    // Pool probe: one ReclaimBatch of the cycle's sources on a fresh
    // restart.
    auto service = MedService();
    if (Status s = service->AddLakeFromSnapshot("med", path); !s.ok()) {
      out.status = s;
      return;
    }
    const auto b0 = Clock::now();
    auto results = service->ReclaimBatch(sources, request);
    layers.pool_busy_ratio =
        PoolBusyRatio(results, MsSince(b0), service->num_threads());
  }
  layers.eis_mean = eis;
  out.status = ProbeLayers(*bench->lake, args.work_dir, out.report);
}

// --- med-source-costs ----------------------------------------------------------
//
// Not a benchmark workload: the measurement behind kMedSources. Every Med
// source is reclaimed as the first query of a fresh restart under the
// med-restart pool budget, kReps times; the sources are ranked by their
// median cost, and the ones at the quartiles of that ranking are printed.

void MedSourceCosts(const Args& args, RunResult& out) {
  constexpr int kReps = 3;
  const std::string path = args.work_dir + "/med.snap";
  auto bench = gent::MakeTpTrBenchmark("TP-TR Med", gent::TpTrMedConfig());
  if (!bench.ok()) {
    out.status = bench.status();
    return;
  }
  if (Status s = SaveV2(*bench->lake, path); !s.ok()) {
    out.status = s;
    return;
  }
  const ReclaimRequest request = Request("med", /*bypass_cache=*/true);
  const size_t n = bench->sources.size();
  std::vector<std::vector<double>> ms(n);
  std::vector<uint64_t> faults(n);
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < n; ++i) {
      auto service = MedService();
      if (Status s = service->AddLakeFromSnapshot("med", path); !s.ok()) {
        out.status = s;
        return;
      }
      ++out.tally.attempted;
      const auto t0 = Clock::now();
      auto r = service->Reclaim(bench->sources[i].source, request);
      ms[i].push_back(MsSince(t0));
      if (!r.ok()) out.tally.Fail("med source " + std::to_string(i));
      faults[i] = service->residency_stats()[0].catalog.pool_faults;
    }
  }
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t i = 0; i < n; ++i) ranked.emplace_back(Median(ms[i]), i);
  std::sort(ranked.begin(), ranked.end());
  for (size_t r = 0; r < n; ++r) {
    const size_t i = ranked[r].second;
    Note("rank %2zu: source %2zu, %5zu rows, first query %7.1f ms, %4llu pool "
         "faults",
         r, i, bench->sources[i].source.num_rows(), ranked[r].first,
         static_cast<unsigned long long>(faults[i]));
  }
  for (const double q : {0.25, 0.5, 0.75}) {
    const size_t r = static_cast<size_t>(std::lround(q * (n - 1)));
    Note("quantile %.2f: rank %zu, source %zu", q, r, ranked[r].second);
  }
}

// --- small-zipf-ingest -----------------------------------------------------------
//
// Half of TP-TR Small as a v2-mapped shard, the discovery cache on and
// smaller than the 26 distinct sources. One round starts a fresh service
// on a fresh copy of the half-lake snapshot and runs the schedule
//
//   reads, append, reads, append, compact, reads
//
// where each run of reads holds the same zipf(α) multiset of sources in
// a seed-drawn order. Appends are durable (fsync) and invalidate the
// grown shard's cache entries; compactions keep them warm. Every source
// read in a window misses at least once after an append, and a serial
// miss costs several times an append, so the round then runs an append
// stream: kZipfStreamCycles fresh copies of the base shard, each grown
// by the same appends with no reads between. That gives the round's
// append timings about a second of work, not two appends.

void SmallZipfIngest(const Args& args, RunResult& out) {
  constexpr int kSetupReps = 9;
  const std::string base_path = args.work_dir + "/base.snap";
  const std::string work_path = args.work_dir + "/work.snap";
  std::vector<double> setup_s;
  double setup_rss = 0;  // after the first set-up, in a fresh process
  std::unique_ptr<TpTrBenchmark> bench;
  std::unique_ptr<ReclaimService> service;
  // Generation g's lake: the base half plus the first g append groups.
  std::vector<DataLake> generation;
  std::vector<std::vector<Table>> groups;

  auto start_round = [&]() -> Status {
    service.reset();
    std::error_code ec;
    std::filesystem::copy_file(base_path, work_path,
                               std::filesystem::copy_options::overwrite_existing,
                               ec);
    if (ec) return Status::IOError("copy " + base_path + ": " + ec.message());
    ServiceOptions options;
    options.config = SerialConfig();
    options.dict = bench->lake->dict();
    options.cache_capacity = kZipfCacheEntries;
    options.storage.compact_after_runs = 0;  // compactions are scheduled
    service = std::make_unique<ReclaimService>(std::move(options));
    return service->AddLakeFromSnapshot("small", work_path);
  };

  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    generation.clear();
    groups.clear();
    bench.reset();
    const auto t0 = Clock::now();
    auto made = gent::MakeTpTrBenchmark("TP-TR Small", gent::TpTrSmallConfig());
    if (!made.ok()) {
      out.status = made.status();
      return;
    }
    bench = std::make_unique<TpTrBenchmark>(std::move(*made));
    const DataLake& lake = *bench->lake;
    const size_t half = lake.size() / 2;
    generation.emplace_back(lake.dict());
    for (size_t i = 0; i < half; ++i) {
      if (Status s = generation[0].AddTable(lake.table(i)); !s.ok()) {
        out.status = s;
        return;
      }
    }
    groups.resize(kZipfAppends);
    for (size_t i = half; i < lake.size(); ++i) {
      groups[(i - half) * kZipfAppends / (lake.size() - half)].push_back(
          lake.table(i));
    }
    for (size_t g = 0; g < kZipfAppends; ++g) {
      generation.push_back(generation.back());
      for (const Table& t : groups[g]) {
        if (Status s = generation.back().AddTable(t); !s.ok()) {
          out.status = s;
          return;
        }
      }
    }
    if (Status s = SaveV2(generation[0], base_path); !s.ok()) {
      out.status = s;
      return;
    }
    if (Status s = start_round(); !s.ok()) {
      out.status = s;
      return;
    }
    setup_s.push_back(MsSince(t0) / 1000.0);
    if (rep == 0) setup_rss = CurrentRssMb();
  }

  const std::vector<Table> sources = CloneSources(*bench);
  const size_t n = sources.size();
  const std::vector<size_t> counts =
      ZipfCounts(n, kZipfReadsPerWindow, kZipfAlpha);
  Rng rng(args.seed);
  // The schedule's read windows, drawn once: every round replays them.
  std::vector<std::vector<size_t>> windows(kZipfAppends + 1);
  for (auto& window : windows) {
    for (size_t i = 0; i < n; ++i) window.insert(window.end(), counts[i], i);
    const std::vector<size_t> order = Permutation(window.size(), rng);
    std::vector<size_t> shuffled;
    for (size_t j : order) shuffled.push_back(window[j]);
    window = std::move(shuffled);
  }

  const ReclaimRequest request = Request("small", /*bypass_cache=*/false);
  using Key = std::pair<size_t, size_t>;  // (generation, source)
  OutcomeBook<Key> book;
  Tally& tally = out.tally;
  Layers& layers = out.layers;
  Slots hit_ms;             // slot: (window, source), window-major
  Slots miss_ms, read_ms;   // slot: source
  Slots append_ms;          // slot: append group
  std::vector<double> compact_ms;
  uint64_t snapshot_bytes = 0;  // the shard's file at the end of a schedule
  bool first_round = true;

  // One round of the schedule. Timings land in the vectors above only
  // for untraced rounds; traced rounds feed `traced` instead.
  auto round = [&](Layers* traced, Slots* reads) -> Status {
    if (!first_round) GENT_RETURN_IF_ERROR(start_round());
    first_round = false;
    std::shared_ptr<const ColumnStatsCatalog> chain_catalog;
    std::unique_ptr<GenT> chain;
    auto reopen_chain = [&](size_t g) -> Status {
      if (traced == nullptr) return Status::OK();
      gent::storage::MappedCatalog::Options mapped_options;
      mapped_options.verify_checksums = false;
      auto catalog = ColumnStatsCatalog::OpenMapped(generation[g], work_path,
                                                    mapped_options);
      if (!catalog.ok()) return catalog.status();
      chain_catalog = std::move(*catalog);
      chain = std::make_unique<GenT>(chain_catalog, SerialConfig());
      traced->chain = chain.get();
      traced->chain_regions = chain_catalog->num_regions();
      return Status::OK();
    };
    GENT_RETURN_IF_ERROR(reopen_chain(0));
    size_t gen = 0;
    for (size_t w = 0; w < windows.size(); ++w) {
      for (size_t i : windows[w]) {
        Served served = Serve(*service, sources[i], request, traced,
                              &sources[i]);
        reads->Add(i, served.ms);
        if (traced == nullptr) {
          if (served.hit) {
            hit_ms.Add(w * n + i, served.ms);
          } else {
            miss_ms.Add(i, served.ms);
          }
        }
        Check(std::move(served), Key(gen, i), sources[i], book, tally,
              "zipf read of source " + std::to_string(i));
      }
      if (w == kZipfAppends) break;
      std::vector<Table> batch(groups[w].begin(), groups[w].end());
      ++tally.attempted;
      auto t0 = Clock::now();
      Status appended = service->AppendTablesToLake("small", std::move(batch));
      if (traced == nullptr) append_ms.Add(w, MsSince(t0));
      if (!appended.ok()) {
        tally.Fail("append: " + appended.ToString());
        return Status::OK();  // later reads would read the wrong generation
      }
      ++gen;
      if (gen % kZipfCompactEvery == 0) {
        ++tally.attempted;
        t0 = Clock::now();
        Status compacted = service->CompactShardSnapshot("small");
        if (traced == nullptr) compact_ms.push_back(MsSince(t0));
        if (!compacted.ok()) tally.Fail("compact: " + compacted.ToString());
      }
      GENT_RETURN_IF_ERROR(reopen_chain(gen));
    }
    snapshot_bytes = FileBytes(work_path);
    if (traced != nullptr) {
      AddServiceCounters(*service, *traced);
      ++traced->traced_rounds;
      traced->chain = nullptr;
      return Status::OK();
    }
    for (size_t c = 0; c < kZipfStreamCycles; ++c) {
      GENT_RETURN_IF_ERROR(start_round());
      for (size_t g = 0; g < kZipfAppends; ++g) {
        std::vector<Table> batch(groups[g].begin(), groups[g].end());
        ++tally.attempted;
        const auto t0 = Clock::now();
        Status appended = service->AppendTablesToLake("small", std::move(batch));
        append_ms.Add(g, MsSince(t0));
        if (!appended.ok()) tally.Fail("stream append: " + appended.ToString());
      }
      // The grown shard must hold the same tables as a one-shot lake.
      auto grown = service->lake("small");
      if (!grown.ok() || !SameLake(**grown, generation.back())) {
        tally.Fail("stream: grown shard differs from the one-shot lake");
      }
    }
    return Status::OK();
  };

  const double budget_ms = args.seconds * 1000.0;
  const auto t0 = Clock::now();
  do {
    Status s = round(nullptr, &read_ms);
    if (s.ok() && args.trace) {
      Slots traced;
      s = round(&layers, &traced);
    }
    if (!s.ok()) {
      out.status = s;
      return;
    }
  } while (MsSince(t0) < budget_ms);
  layers.reclaim_untraced_ms = read_ms.All();
  layers.peak_rss_mb = PeakRssMb();

  // Reference: for every generation, a fresh RAM service built over the
  // same tables in one shot, cache bypassed. Hits and misses alike must
  // match it, which also proves the grown shard equals a one-shot build.
  std::vector<std::unique_ptr<ReclaimService>> references(generation.size());
  CheckAgainstReference(
      book,
      [&](const Key& key) -> Result<Outcome> {
        auto& ref = references[key.first];
        if (ref == nullptr) {
          ServiceOptions options;
          options.dict = bench->lake->dict();
          options.cache_capacity = 0;
          ref = std::make_unique<ReclaimService>(std::move(options));
          GENT_RETURN_IF_ERROR(ref->AddLakeView("small", generation[key.first]));
        }
        auto r = ref->Reclaim(sources[key.second],
                              Request("small", /*bypass_cache=*/true));
        if (!r.ok()) return r.status();
        return ToOutcome(std::move(*r));
      },
      tally, "small-zipf-ingest");
  const double eis = MeanEis(
      book, [&](const Key& key) -> const Table& { return sources[key.second]; });

  if (!args.trace) {
    const std::vector<double> hits = hit_ms.All(), misses = miss_ms.All();
    Note("reads %zu: hits %zu p50 %.3f ms %s; misses %zu p50 %.3f ms",
         read_ms.All().size(), hits.size(), Median(hits),
         TailText(hits).c_str(), misses.size(), Median(misses));
    // A hit's cost depends on the window's generation, so hits are
    // costed per (window, source). Which reads hit depends on the drawn
    // order, so each slot weighs by its source's share of a window's
    // reads, not by its hit count, and only the sources read at least
    // kZipfMinHitReads times per window count: they hit in every window
    // whatever the order, where a rarer source's slot may have no hit.
    std::vector<double> weights;
    for (size_t w = 0; w < windows.size(); ++w) {
      for (size_t i = 0; i < n; ++i) {
        weights.push_back(counts[i] >= kZipfMinHitReads ? counts[i] : 0.0);
      }
    }
    const double hit_request_ms = hit_ms.MeanOfMedians(weights);
    Note("mean of per-source medians: reads %.3f ms, misses %.3f ms; "
         "hits (request_ms) %.3f ms",
         read_ms.MeanOfMedians(), miss_ms.MeanOfMedians(), hit_request_ms);
    const std::vector<double> appends = append_ms.All();
    double append_total_s = 0;
    for (double ms : appends) append_total_s += ms / 1000.0;
    Note("appends %zu p50 %.3f ms, %.2f s in all; compactions %zu p50 %.3f "
         "ms; snapshot_mb %.3f; eis_mean %.6f",
         appends.size(), Median(appends), append_total_s, compact_ms.size(),
         Median(compact_ms), snapshot_bytes / 1e6, eis);
    Note("peak_rss_mb %.1f", layers.peak_rss_mb);
    out.report.Add("setup_s", "s", Median(setup_s));
    out.report.Add("request_ms", "ms", hit_request_ms);
    out.report.Add("bulk_op_ms", "ms", append_ms.MeanOfMedians());
    out.report.Add("setup_rss_mb", "MB", setup_rss);
    return;
  }
  {
    // Pool probe: one cache-bypassed ReclaimBatch over every source on
    // the fully grown shard.
    const auto b0 = Clock::now();
    auto results =
        service->ReclaimBatch(sources, Request("small", /*bypass_cache=*/true));
    layers.pool_busy_ratio =
        PoolBusyRatio(results, MsSince(b0), service->num_threads());
  }
  layers.eis_mean = eis;
  out.status = ProbeLayers(*bench->lake, args.work_dir, out.report);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <small-batch-cold|med-restart|"
                 "small-zipf-ingest> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n");
    return 2;
  }
  using Workload = void (*)(const Args&, RunResult&);
  const std::map<std::string, Workload> workloads = {
      {"small-batch-cold", SmallBatchCold},
      {"med-restart", MedRestart},
      {"small-zipf-ingest", SmallZipfIngest},
      {"med-source-costs", MedSourceCosts},
  };
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  args.work_dir = args.out_dir + "/" + args.workload;
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  RunResult run;
  workload->second(args, run);
  // The scratch snapshots are set-up inputs, not results.
  std::filesystem::remove_all(args.work_dir, ec);
  if (!run.status.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(),
                 run.status.ToString().c_str());
    return 1;
  }
  if (args.trace) {
    AddRequestLayers(run.layers, run.report);
    if (Status s = WriteTrace(run.layers, args); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& e : run.tally.errors) {
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  }
  const bool correct = run.tally.failed == 0;
  std::printf("%s\n", run.report.Json(correct, run.tally).c_str());
  return correct ? 0 : 1;
}
