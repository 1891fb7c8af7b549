// Gen-T: end-to-end table reclamation (paper Fig. 2).
//
//   Source Table ──► Discovery (Set Similarity + diversification)
//                ──► Expand (key-covering joins)
//                ──► Matrix Traversal (originating-table selection)
//                ──► Table Integration (⊎, σ, π, κ, β)
//                ──► Reclaimed Source Table + originating tables
//
// Usage:
//   DataLake lake;                       // register tables...
//   GenT gent(lake);                     // builds the stats catalog once
//   auto result = gent.Reclaim(source);  // per-source reclamation
//   double eis = EisScore(source, result->reclaimed).value();
//
// Batch and resident serving (many sources, a worker pool, a discovery
// cache) go through ReclaimService (src/engine/reclaim_service.h),
// which runs these same seams per source.

#ifndef GENT_GENT_GENT_H_
#define GENT_GENT_GENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/discovery/discovery.h"
#include "src/engine/column_stats_catalog.h"
#include "src/integration/integrator.h"
#include "src/lake/data_lake.h"
#include "src/matrix/expand.h"
#include "src/matrix/traversal.h"
#include "src/util/status.h"

namespace gent {

struct GenTConfig {
  DiscoveryConfig discovery;
  ExpandOptions expand;
  TraversalOptions traversal;
  IntegrationOptions integration;
  /// Ablation: bypass matrix traversal and integrate every candidate
  /// (what ALITE-style direct integration does).
  bool skip_traversal = false;
};

/// Everything a reclamation run produces.
struct ReclamationResult {
  /// The reclaimed table, with exactly the source's schema.
  Table reclaimed;
  /// The originating tables, in selection order, in their integrated
  /// (projected/expanded) form.
  std::vector<Table> originating;
  /// Lake names of the originating tables (pre-expansion identity).
  std::vector<std::string> originating_names;
  /// EIS the matrix traversal predicted for the integration.
  double predicted_eis = 0.0;
  /// Phase timings, seconds.
  double discovery_seconds = 0.0;
  double traversal_seconds = 0.0;
  double integration_seconds = 0.0;

  explicit ReclamationResult(Table r) : reclaimed(std::move(r)) {}
};

class GenT {
 public:
  /// Builds the column-stats catalog over `lake` (shared across Reclaim
  /// calls and worker threads). The lake must outlive this object.
  explicit GenT(const DataLake& lake, GenTConfig config = {});

  /// Shares a prebuilt catalog (no per-instance rebuild). The catalog's
  /// lake must outlive this object.
  explicit GenT(std::shared_ptr<const ColumnStatsCatalog> catalog,
                GenTConfig config = {});

  /// Reclaims one source table (must declare a key) under per-call
  /// operator limits (e.g. a fresh wall-clock budget per source; OpLimits
  /// deadlines are fixed at construction). Runs DiscoverCandidates,
  /// Expand, then ReclaimFromExpanded with the construction-time config;
  /// the result's discovery_seconds covers discovery and expansion.
  Result<ReclamationResult> Reclaim(const Table& source,
                                    const OpLimits& limits = {}) const;

  /// The discovery stage alone (recall + Set Similarity +
  /// diversification + schema matching). Exposed as a seam so
  /// ReclaimService can run it per catalog shard with a per-request
  /// config and merge candidate sets before expansion. Polls
  /// OpLimits::Interrupted() at its stage checkpoints and aborts with
  /// Cancelled/Timeout (never a truncated candidate list).
  Result<std::vector<Candidate>> DiscoverCandidates(
      const Table& source, const DiscoveryConfig& discovery,
      const OpLimits& limits) const;

  /// The pipeline downstream of expansion (Matrix Traversal →
  /// Integration), for callers that already hold the expanded,
  /// key-covering candidate tables — ReclaimService replays them from
  /// its discovery cache. Deterministic in (source, tables, config):
  /// bit-identical to running the full pipeline whose expansion
  /// produced `tables`.
  Result<ReclamationResult> ReclaimFromExpanded(
      const Table& source, std::vector<Table> tables, const OpLimits& limits,
      const TraversalOptions& traversal, double discovery_seconds = 0.0) const;

  const ColumnStatsCatalog& catalog() const { return *catalog_; }
  const std::shared_ptr<const ColumnStatsCatalog>& shared_catalog() const {
    return catalog_;
  }
  const GenTConfig& config() const { return config_; }

 private:
  GenTConfig config_;
  std::shared_ptr<const ColumnStatsCatalog> catalog_;
};

}  // namespace gent

#endif  // GENT_GENT_GENT_H_
