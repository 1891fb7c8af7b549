#include "src/matrix/expand.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "src/engine/column_stats_catalog.h"
#include "src/engine/thread_pool.h"
#include "src/matrix/alignment_matrix.h"
#include "src/ops/join.h"
#include "src/ops/unary.h"
#include "src/ops/union.h"

namespace gent {

namespace {

// A joinable column pair between two candidate tables, discovered by
// value overlap (lake metadata is unreliable, so edges are value-based:
// "edges = tables that have joinable columns; edge weights = value
// overlap of joinable columns", Algorithm 5).
struct JoinPair {
  size_t a_col = 0;
  size_t b_col = 0;
  double weight = 0.0;  // |Va ∩ Vb| / max(|Va|, |Vb|)
  size_t inter = 0;
};

// Distinct value sets per column as sorted, deduplicated id vectors.
// Views either borrow the shared catalog's immutable sets (untouched
// lake candidates: zero recomputation, zero copies) or point into
// `owned` (ad-hoc candidates and joined intermediates: one one-pass
// sort-unique build, no hash sets). Move-safe: moving the outer vectors
// keeps the inner heap buffers, so views survive container moves.
struct ColumnSets {
  std::vector<std::vector<ValueId>> owned;
  std::vector<ValueSpan> views;

  // Move-only: `views` may point into `owned`, so a copy's views would
  // alias the source object's storage and dangle with it. Moves are
  // safe — the outer vectors' heap buffers (the memory views point at)
  // survive the move. Catalog-backed views point into the shared
  // catalog instead and are valid for its lifetime (either backend).
  ColumnSets() = default;
  ColumnSets(const ColumnSets&) = delete;
  ColumnSets& operator=(const ColumnSets&) = delete;
  ColumnSets(ColumnSets&&) = default;
  ColumnSets& operator=(ColumnSets&&) = default;

  size_t size() const { return views.size(); }
  ValueSpan col(size_t c) const { return views[c]; }
};

ColumnSets SetsFromTable(const Table& t) {
  ColumnSets s;
  s.owned.resize(t.num_cols());
  for (size_t c = 0; c < t.num_cols(); ++c) {
    s.owned[c] = SortedDistinctValues(t, c);
  }
  s.views.reserve(s.owned.size());
  for (const auto& v : s.owned) s.views.push_back(ValueSpan(v));
  return s;
}

ColumnSets SetsFromCatalog(const ColumnStatsCatalog& catalog,
                           size_t lake_index, size_t num_cols) {
  ColumnSets s;
  s.views.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    s.views.push_back(catalog.SortedValuesOf(lake_index, c));
  }
  return s;
}

// True when the candidate's per-column stats can be served straight from
// its catalog: discovery produces row-identical clones (renames only),
// so the shape check is a cheap guard against hand-built candidates
// whose rows diverged from the lake table they claim to be.
bool CatalogBacked(const Candidate& cand) {
  if (cand.stats == nullptr) return false;
  const DataLake& lake = cand.stats->lake();
  if (cand.lake_index >= lake.size()) return false;
  const Table& lt = lake.table(cand.lake_index);
  return lt.dict() == cand.table.dict() &&
         lt.num_cols() == cand.table.num_cols() &&
         lt.num_rows() == cand.table.num_rows();
}

// Best joinable pair between tables a and b, or nullopt when no pair is
// strong enough. Pair weight = containment × keyness:
//   containment = |Va ∩ Vb| / max(|Va|, |Vb|) — max-normalization avoids
//     spurious edges from small domains inside large unrelated ones;
//   keyness = max over the two sides of (distinct values / rows) — joins
//     should run into a column that behaves like a key, keeping the path
//     "as close to functional as possible" (Algorithm 5). A low-keyness
//     pair (e.g. a 25-value nation id over 400 rows) is a many-to-many
//     join that attaches rows to unrelated keys.
// Before intersecting, each pair is screened by the upper bound
// min(|Va|,|Vb|)/max(|Va|,|Vb|) × keyness: since |Va ∩ Vb| ≤ min, the
// bound dominates the true weight (division and multiplication by a
// shared non-negative operand are monotone in IEEE), so a sub-threshold
// bound skips the merge without changing any outcome. Ties on (weight,
// intersection) break to the smallest (a_col, b_col) — the documented
// edge-choice contract in expand.h.
std::optional<JoinPair> BestJoinPair(const ColumnSets& a, size_t rows_a,
                                     const ColumnSets& b, size_t rows_b,
                                     double threshold) {
  std::optional<JoinPair> best;
  for (size_t i = 0; i < a.size(); ++i) {
    const ValueSpan va = a.col(i);
    if (va.empty()) continue;
    const double keyness_a =
        rows_a == 0 ? 0.0
                    : static_cast<double>(va.size()) /
                          static_cast<double>(rows_a);
    for (size_t j = 0; j < b.size(); ++j) {
      const ValueSpan vb = b.col(j);
      if (vb.empty()) continue;
      double keyness = std::max(
          keyness_a, rows_b == 0 ? 0.0
                                 : static_cast<double>(vb.size()) /
                                       static_cast<double>(rows_b));
      double max_size =
          static_cast<double>(std::max(va.size(), vb.size()));
      double bound =
          static_cast<double>(std::min(va.size(), vb.size())) / max_size *
          keyness;
      if (bound < threshold) continue;
      size_t inter = SortedIntersectionSize(va, vb);
      if (inter == 0) continue;
      double containment = static_cast<double>(inter) / max_size;
      double w = containment * keyness;
      if (w < threshold) continue;
      bool better;
      if (!best) {
        better = true;
      } else if (w != best->weight) {
        better = w > best->weight;
      } else if (inter != best->inter) {
        better = inter > best->inter;
      } else {
        better = std::make_pair(i, j) <
                 std::make_pair(best->a_col, best->b_col);
      }
      if (better) best = JoinPair{i, j, w, inter};
    }
  }
  return best;
}

// Joins `left` with `right` on exactly the given column pair: the right
// join column is renamed to the left's name, and colliding non-join
// columns are suffixed out of the way. Collisions on names in
// `preserve_right` keep the RIGHT column (the expansion-start candidate's
// data) and move the left's aside — the left (hop) table's same-named
// column is usually a spurious mapping over an overlapping domain.
// Inputs are taken by value: both are single-use locals of the
// expansion loop, so renaming in place saves two full table copies per
// hop (the reference implementation clones instead — same cells, same
// result).
Result<Table> JoinOnPair(Table l, Table r, size_t left_col, size_t right_col,
                         const std::unordered_set<std::string>& preserve_right,
                         const OpLimits& limits) {
  for (size_t c = 0; c < r.num_cols(); ++c) {
    if (c == right_col) continue;
    const std::string& name = r.column_name(c);
    auto lc = l.ColumnIndex(name);
    if (!lc.has_value()) continue;
    if (preserve_right.count(name) > 0 && *lc != left_col) {
      std::string fresh = name + "#hop";
      while (r.HasColumn(fresh) || l.HasColumn(fresh)) fresh += "'";
      GENT_RETURN_IF_ERROR(l.RenameColumn(*lc, fresh));
    } else {
      std::string fresh = name + "#dup";
      while (r.HasColumn(fresh) || l.HasColumn(fresh)) fresh += "'";
      GENT_RETURN_IF_ERROR(r.RenameColumn(c, fresh));
    }
  }
  const std::string& join_name = l.column_name(left_col);
  if (r.column_name(right_col) != join_name) {
    if (r.HasColumn(join_name)) {
      // Can't happen after the collision pass, but guard anyway.
      return Status::Internal("join column collision");
    }
    GENT_RETURN_IF_ERROR(r.RenameColumn(right_col, join_name));
  }
  return NaturalJoin(l, r, JoinKind::kInner, limits);
}

}  // namespace

Result<ExpandResult> Expand(const Table& source,
                            const std::vector<Candidate>& candidates,
                            const OpLimits& limits,
                            const ExpandOptions& options) {
  constexpr double kJoinThreshold = 0.3;
  const size_t n = candidates.size();
  ExpandResult result;
  GENT_RETURN_IF_ERROR(limits.Interrupted());

  // Expansion joins are a means to key coverage, not an end product; a
  // path whose intermediate result explodes is a wrong join (weak pair,
  // many-to-many) and gets dropped rather than materialized. The cap also
  // protects the caller's memory when `limits` is unbounded.
  OpLimits join_limits = limits;
  join_limits.MaxRows(std::min<uint64_t>(limits.max_rows(), 200000));

  // One pool serves all three parallel phases. Every phase writes only
  // to its own index slot and reduces in candidate-index order, so
  // thread count never changes results.
  size_t threads = std::min(ThreadPool::ResolveThreads(options.num_threads), n);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && n >= 4) pool = std::make_unique<ThreadPool>(threads);

  // Column value sets and canonical (sorted) schemas, once per candidate
  // — catalog-backed candidates borrow the shared sorted sets, the rest
  // get a one-pass sorted build; schema-family comparisons are then
  // plain vector equality.
  std::vector<ColumnSets> sets(n);
  std::vector<std::vector<std::string>> sorted_schemas(n);
  ParallelFor(pool.get(), n, [&](size_t i) {
    const Candidate& c = candidates[i];
    sets[i] = CatalogBacked(c)
                  ? SetsFromCatalog(*c.stats, c.lake_index, c.table.num_cols())
                  : SetsFromTable(c.table);
    sorted_schemas[i] = c.table.column_names();
    std::sort(sorted_schemas[i].begin(), sorted_schemas[i].end());
  });
  GENT_RETURN_IF_ERROR(limits.Interrupted());

  // Join graph: value-overlap edges with their best column pair. The
  // pairwise scan shards by the lower candidate index; the reduction
  // below rebuilds the adjacency lists in exactly the serial insertion
  // order.
  struct Edge {
    size_t to;
    JoinPair pair;  // pair.a_col indexes the *from* table
  };
  std::vector<std::vector<Edge>> forward(n);
  ParallelFor(pool.get(), n, [&](size_t i) {
    for (size_t j = i + 1; j < n; ++j) {
      auto pair =
          BestJoinPair(sets[i], candidates[i].table.num_rows(), sets[j],
                       candidates[j].table.num_rows(), kJoinThreshold);
      if (!pair) continue;
      forward[i].push_back(Edge{j, *pair});
    }
  });
  GENT_RETURN_IF_ERROR(limits.Interrupted());
  std::vector<std::vector<Edge>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    for (const Edge& e : forward[i]) {
      adj[i].push_back(e);
      adj[e.to].push_back(Edge{i, JoinPair{e.pair.b_col, e.pair.a_col,
                                           e.pair.weight, e.pair.inter}});
    }
  }

  // Hop-family unions, once per candidate: the inner-union of a hop
  // table with its same-schema siblings depends only on the hop (an
  // ascending fold; InnerUnion rejects every other schema), so
  // expansion paths share one precomputed copy instead of refolding the
  // family per (start, hop) pair. The lone exception — the start
  // candidate itself belongs to the hop's family and must be excluded —
  // refolds in build_expansion. Only potentially reachable hops get a
  // union: paths need a keyless start AND a key-covering end to exist
  // at all, and an edgeless candidate appears on no path.
  bool any_keyless = false, any_covers = false;
  for (const Candidate& c : candidates) {
    any_keyless |= !c.covers_key;
    any_covers |= c.covers_key;
  }
  std::vector<std::optional<Table>> family_union(n);
  if (any_keyless && any_covers) {
    ParallelFor(pool.get(), n, [&](size_t i) {
      if (adj[i].empty()) return;
      Table t = candidates[i].table.Clone();
      for (size_t other = 0; other < n; ++other) {
        if (other == i) continue;
        auto unioned = InnerUnion(t, candidates[other].table);
        if (unioned.ok()) t = std::move(unioned).value();
      }
      family_union[i] = std::move(t);
    });
    GENT_RETURN_IF_ERROR(limits.Interrupted());
  }

  // Best join path from `start` to any key-covering candidate: Dijkstra
  // with edge cost (1 + penalty - w); `forced_first` optionally pins the
  // first hop (alternative-path enumeration).
  constexpr double kHopPenalty = 0.25;
  auto best_path = [&](size_t start, size_t forced_first) -> std::vector<size_t> {
    std::vector<double> cost(n, 1e18);
    std::vector<size_t> parent(n, SIZE_MAX);
    std::vector<bool> settled(n, false);
    size_t root = start;
    if (forced_first != SIZE_MAX) {
      root = forced_first;
      if (candidates[root].covers_key) return {start, root};
      settled[start] = true;  // never route back through the start
    }
    cost[root] = 0.0;
    size_t end_node = SIZE_MAX;
    while (true) {
      size_t node = SIZE_MAX;
      double bc = 1e18;
      for (size_t v = 0; v < n; ++v) {
        if (!settled[v] && cost[v] < bc) { bc = cost[v]; node = v; }
      }
      if (node == SIZE_MAX) break;
      settled[node] = true;
      if (node != start && candidates[node].covers_key) { end_node = node; break; }
      for (const Edge& e : adj[node]) {
        double c = cost[node] + (1.0 - e.pair.weight) + kHopPenalty;
        if (c < cost[e.to]) { cost[e.to] = c; parent[e.to] = node; }
      }
    }
    if (end_node == SIZE_MAX) return {};
    std::vector<size_t> path;
    for (size_t cur = end_node; cur != SIZE_MAX; cur = parent[cur]) path.push_back(cur);
    if (forced_first != SIZE_MAX) path.push_back(start);
    std::reverse(path.begin(), path.end());
    return path;
  };

  // Materializes one expansion along `path`; nullopt = unusable.
  // Intermediates are not lake tables, so their sets fall back to the
  // one-pass sorted build.
  auto build_expansion = [&](size_t ci, const std::vector<size_t>& path)
      -> std::optional<Table> {
    const Candidate& cand = candidates[ci];
    Table joined = candidates[path[0]].table.Clone();
    ColumnSets local_sets;
    const ColumnSets* joined_sets = &sets[path[0]];
    for (size_t p = 1; p < path.size(); ++p) {
      // Per-hop checkpoint. An interrupted hop drops the path like any
      // failed join; the driver's terminal Interrupted() check below
      // turns the run into a hard Cancelled/Timeout, so the dropped
      // path can never masquerade as a complete expansion.
      if (!limits.Interrupted().ok()) return std::nullopt;
      size_t next = path[p];
      auto pair = BestJoinPair(*joined_sets, joined.num_rows(), sets[next],
                               candidates[next].table.num_rows(),
                               kJoinThreshold);
      if (!pair) return std::nullopt;
      // Join against the inner-union of the hop table's schema family: a
      // single lake table may be missing join-key values (nulls) that a
      // sibling variant supplies. The start candidate's own rows never
      // join back into its expansion, so it is excluded from the family
      // — when it isn't part of it anyway, the precomputed union serves.
      Table hop_table("", source.dict());
      if (sorted_schemas[ci] != sorted_schemas[next]) {
        hop_table = family_union[next]->Clone();
      } else {
        hop_table = candidates[next].table.Clone();
        for (size_t other = 0; other < n; ++other) {
          if (other == next || other == ci) continue;
          auto unioned = InnerUnion(hop_table, candidates[other].table);
          if (unioned.ok()) hop_table = std::move(unioned).value();
        }
      }
      // Hop table on the LEFT so its column names -- including the mapped
      // source key columns of the path's end table -- survive the rename.
      std::unordered_set<std::string> preserve(
          cand.table.column_names().begin(), cand.table.column_names().end());
      auto j = JoinOnPair(std::move(hop_table), std::move(joined),
                          pair->b_col, pair->a_col, preserve, join_limits);
      if (!j.ok()) return std::nullopt;
      joined = std::move(j).value();
      // The intermediate's column sets feed only the NEXT hop's pair
      // search; on the last hop (the overwhelmingly common 2-node path)
      // the rebuild is dead work and skipped.
      if (p + 1 < path.size()) {
        local_sets = SetsFromTable(joined);
        joined_sets = &local_sets;
      }
    }
    if (joined.num_rows() == 0) return std::nullopt;
    for (size_t kc : source.key_columns()) {
      if (!joined.HasColumn(source.column_name(kc))) return std::nullopt;
    }
    // Keep only the start candidate's own columns plus the source key:
    // the join partners are candidates in their own right, and carrying
    // their cells here would duplicate (and, for erroneous variants,
    // pollute) what they already contribute directly.
    std::vector<std::string> keep;
    for (size_t kc : source.key_columns()) {
      keep.push_back(source.column_name(kc));
    }
    for (const auto& name : cand.table.column_names()) {
      if (std::find(keep.begin(), keep.end(), name) == keep.end() &&
          joined.HasColumn(name)) {
        keep.push_back(name);
      }
    }
    auto projected = Project(joined, keep);
    if (!projected.ok()) return std::nullopt;
    joined = Distinct(*projected);

    // Post-expansion mapping verification: now that the table covers the
    // key, aligned rows expose mis-mapped columns (a constant or tiny
    // source domain is trivially "contained" in many unrelated columns).
    // Columns whose aligned values systematically contradict the source
    // are unmapped so they cannot block complementation later.
    {
      std::vector<size_t> key_cols;
      for (size_t kc : source.key_columns()) {
        key_cols.push_back(*joined.ColumnIndex(source.column_name(kc)));
      }
      KeyIndex source_keys = source.BuildKeyIndex();
      std::vector<std::pair<size_t, size_t>> align;
      KeyTuple key(key_cols.size());
      for (size_t r = 0; r < joined.num_rows(); ++r) {
        bool null_key = false;
        for (size_t k = 0; k < key_cols.size(); ++k) {
          key[k] = joined.cell(r, key_cols[k]);
          null_key |= key[k] == kNull;
        }
        if (null_key) continue;
        auto it = source_keys.find(key);
        if (it != source_keys.end()) align.emplace_back(r, it->second.front());
      }
      for (size_t c = 0; c < joined.num_cols(); ++c) {
        auto sc = source.ColumnIndex(joined.column_name(c));
        if (!sc.has_value() || source.IsKeyColumn(*sc)) continue;
        size_t both = 0, eq = 0;
        for (const auto& [jr, sr] : align) {
          ValueId jv = joined.cell(jr, c);
          ValueId sv = source.cell(sr, *sc);
          if (jv == kNull || sv == kNull) continue;
          ++both;
          eq += jv == sv;
        }
        if (both >= 3 &&
            static_cast<double>(eq) / static_cast<double>(both) < 0.15) {
          std::string neutral = "#mismapped_" + joined.column_name(c);
          while (joined.HasColumn(neutral)) neutral += "'";
          (void)joined.RenameColumn(c, neutral);
        }
      }
    }
    joined.set_name(cand.table.name() + "+expanded");
    return joined;
  };

  // One key lookup serves every path's scoring matrix (the source is
  // fixed for the whole expansion).
  SourceKeyLookup source_keys(source);

  // Expands one candidate end to end: path enumeration, materialization,
  // and simulated-EIS scoring. Reads only immutable per-run state
  // (candidates, sets, adj, family unions, key lookup) and the shared
  // dictionary (never appended to by join/union/project), so candidates
  // expand concurrently with bit-identical outcomes.
  struct Slot {
    std::optional<Table> table;
    bool expanded = false;
    bool dropped = false;
  };
  std::vector<Slot> slots(n);
  ParallelFor(pool.get(), n, [&](size_t i) {
    const Candidate& cand = candidates[i];
    Slot& slot = slots[i];
    // Cooperative abort: leave the slot untouched and let the terminal
    // checkpoint below fail the whole call.
    if (!limits.Interrupted().ok()) return;
    if (cand.covers_key) {
      slot.table = cand.table.Clone();
      return;
    }
    // Alternative paths: the globally best path plus paths forced through
    // the strongest schema-distinct neighbors. Value statistics cannot
    // always tell a true foreign key from a coincidental dense-integer
    // containment, so each materialized alternative is scored against
    // the source (simulated EIS) and the best expansion wins.
    constexpr size_t kMaxAlternativePaths = 4;
    std::vector<std::vector<size_t>> paths;
    auto add_path = [&](std::vector<size_t> p) {
      if (p.empty()) return;
      for (const auto& existing : paths) {
        if (existing == p) return;
      }
      paths.push_back(std::move(p));
    };
    add_path(best_path(i, SIZE_MAX));
    std::vector<const Edge*> neighbors;
    for (const Edge& e : adj[i]) neighbors.push_back(&e);
    std::sort(neighbors.begin(), neighbors.end(),
              [](const Edge* a, const Edge* b) {
                return a->pair.weight > b->pair.weight;
              });
    std::vector<const std::vector<std::string>*> used_hop_schemas;
    for (size_t k = 0;
         k < neighbors.size() && paths.size() < kMaxAlternativePaths; ++k) {
      size_t hop = neighbors[k]->to;
      const std::vector<std::string>& schema = sorted_schemas[hop];
      if (schema == sorted_schemas[i]) continue;  // sibling variant: useless hop
      bool seen = false;
      for (const auto* u : used_hop_schemas) seen = seen || *u == schema;
      if (seen) continue;  // one forced path per neighbor family
      used_hop_schemas.push_back(&schema);
      add_path(best_path(i, hop));
    }
    if (paths.empty()) {
      slot.dropped = true;
      return;
    }

    std::optional<Table> best_table;
    double best_score = -1.0;
    for (const auto& path : paths) {
      if (!limits.Interrupted().ok()) return;
      auto expansion = build_expansion(i, path);
      if (!expansion.has_value()) continue;
      auto matrix =
          InitializeMatrix(source, *expansion, MatrixOptions{}, source_keys);
      if (!matrix.ok()) continue;
      double score = EvaluateMatrixSimilarity(*matrix, source);
      if (score > best_score) {
        best_score = score;
        best_table = std::move(expansion);
      }
    }
    if (!best_table.has_value()) {
      slot.dropped = true;
      return;
    }
    slot.table = std::move(best_table);
    slot.expanded = true;
  });

  // Terminal checkpoint — authoritative. The cancel token and an
  // expired deadline are both permanent, so any path or slot silently
  // dropped by an interruption above is caught here, and a truncated
  // expansion can never escape as an OK result (the discovery cache
  // depends on this: only complete expansions are ever inserted).
  GENT_RETURN_IF_ERROR(limits.Interrupted());

  // Deterministic reduction: candidate-index order, exactly the serial
  // emission order.
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    if (slot.table.has_value()) {
      result.tables.push_back(std::move(*slot.table));
      result.num_expanded += slot.expanded;
    } else if (slot.dropped) {
      ++result.num_dropped;
    }
  }
  return result;
}

}  // namespace gent
