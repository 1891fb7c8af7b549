// Reference semantics of the expansion stage (paper Algorithm 5) — the
// exact pre-ExpandEngine implementation, kept verbatim as the oracle for
// the randomized parity tests (tests/expand_parity_test.cc) and as the
// recorded cold-path baseline for bench_microops' expand section. This
// includes the old unordered_map build side of the natural join, so the
// oracle exercises none of the catalog-backed or flat-hash machinery it
// verifies. NOT part of the library: the production path is the
// catalog-aware ExpandEngine in src/matrix/expand.{h,cc}.

#ifndef GENT_TESTS_EXPAND_REFERENCE_H_
#define GENT_TESTS_EXPAND_REFERENCE_H_

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/engine/column_stats_catalog.h"
#include "src/matrix/alignment_matrix.h"
#include "src/matrix/expand.h"
#include "src/ops/join.h"
#include "src/ops/unary.h"
#include "src/ops/union.h"
#include "src/table/table.h"
#include "src/util/status.h"

namespace gent::ref {

// The old unordered_map-build-side natural join (pre flat-hash rewrite of
// src/ops/join.cc), so expansion parity does not depend on the new join.
inline Result<Table> RefNaturalJoin(const Table& left, const Table& right,
                                    JoinKind kind, const OpLimits& limits) {
  const auto shared = SharedColumns(left, right);
  if (shared.empty() && kind == JoinKind::kInner) {
    return CrossProduct(left, right, limits);
  }

  std::vector<size_t> lshared, rshared;
  for (const auto& n : shared) {
    lshared.push_back(*left.ColumnIndex(n));
    rshared.push_back(*right.ColumnIndex(n));
  }
  std::vector<size_t> rextra;
  for (size_t rc = 0; rc < right.num_cols(); ++rc) {
    if (!left.HasColumn(right.column_name(rc))) rextra.push_back(rc);
  }

  Table out(left.name() + "⋈" + right.name(), left.dict());
  for (const auto& n : left.column_names()) {
    GENT_RETURN_IF_ERROR(out.AddColumn(n));
  }
  for (size_t rc : rextra) {
    GENT_RETURN_IF_ERROR(out.AddColumn(right.column_name(rc)));
  }

  std::unordered_map<KeyTuple, std::vector<size_t>, KeyTupleHash> rindex;
  rindex.reserve(right.num_rows());
  KeyTuple key(shared.size());
  auto key_of = [&](const Table& t, const std::vector<size_t>& cols,
                    size_t r) -> bool {
    for (size_t i = 0; i < cols.size(); ++i) {
      key[i] = t.cell(r, cols[i]);
      if (key[i] == kNull) return false;
    }
    return true;
  };
  for (size_t r = 0; r < right.num_rows(); ++r) {
    if (key_of(right, rshared, r)) rindex[key].push_back(r);
  }

  std::vector<bool> right_matched(right.num_rows(), false);
  std::vector<ValueId> row(out.num_cols());
  auto emit = [&](size_t lr, ptrdiff_t rr) {
    for (size_t lc = 0; lc < left.num_cols(); ++lc) {
      row[lc] = lr == SIZE_MAX ? kNull : left.cell(lr, lc);
    }
    if (lr == SIZE_MAX && rr >= 0) {
      for (size_t i = 0; i < lshared.size(); ++i) {
        row[lshared[i]] = right.cell(static_cast<size_t>(rr), rshared[i]);
      }
    }
    for (size_t i = 0; i < rextra.size(); ++i) {
      row[left.num_cols() + i] =
          rr < 0 ? kNull : right.cell(static_cast<size_t>(rr), rextra[i]);
    }
    out.AddRow(row);
  };

  for (size_t lr = 0; lr < left.num_rows(); ++lr) {
    GENT_RETURN_IF_ERROR(limits.Check(out.num_rows()));
    bool matched = false;
    if (key_of(left, lshared, lr)) {
      auto it = rindex.find(key);
      if (it != rindex.end()) {
        for (size_t rr : it->second) {
          emit(lr, static_cast<ptrdiff_t>(rr));
          right_matched[rr] = true;
          matched = true;
        }
      }
    }
    if (!matched && kind != JoinKind::kInner) {
      emit(lr, -1);
    }
  }
  if (kind == JoinKind::kFullOuter) {
    for (size_t rr = 0; rr < right.num_rows(); ++rr) {
      GENT_RETURN_IF_ERROR(limits.Check(out.num_rows()));
      if (!right_matched[rr]) emit(SIZE_MAX, static_cast<ptrdiff_t>(rr));
    }
  }
  return out;
}

struct RefJoinPair {
  size_t a_col = 0;
  size_t b_col = 0;
  double weight = 0.0;  // |Va ∩ Vb| / max(|Va|, |Vb|)
  size_t inter = 0;
};

// Distinct value sets per column, computed once per candidate — the old
// per-candidate hash-set rebuild the catalog-backed engine eliminates.
using RefColumnSets = std::vector<std::unordered_set<ValueId>>;

inline RefColumnSets RefComputeColumnSets(const Table& t) {
  RefColumnSets sets(t.num_cols());
  for (size_t c = 0; c < t.num_cols(); ++c) {
    sets[c] = DistinctColumnValues(t, c);
  }
  return sets;
}

inline std::optional<RefJoinPair> RefBestJoinPair(const RefColumnSets& a,
                                                  size_t rows_a,
                                                  const RefColumnSets& b,
                                                  size_t rows_b,
                                                  double threshold) {
  std::optional<RefJoinPair> best;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].empty()) continue;
    for (size_t j = 0; j < b.size(); ++j) {
      if (b[j].empty()) continue;
      size_t inter = SetIntersectionSize(a[i], b[j]);
      if (inter == 0) continue;
      double containment =
          static_cast<double>(inter) /
          static_cast<double>(std::max(a[i].size(), b[j].size()));
      double keyness = std::max(
          rows_a == 0 ? 0.0
                      : static_cast<double>(a[i].size()) /
                            static_cast<double>(rows_a),
          rows_b == 0 ? 0.0
                      : static_cast<double>(b[j].size()) /
                            static_cast<double>(rows_b));
      double w = containment * keyness;
      if (w < threshold) continue;
      if (!best || w > best->weight ||
          (w == best->weight && inter > best->inter)) {
        best = RefJoinPair{i, j, w, inter};
      }
    }
  }
  return best;
}

inline Result<Table> RefJoinOnPair(
    const Table& left, const Table& right, size_t left_col, size_t right_col,
    const std::unordered_set<std::string>& preserve_right,
    const OpLimits& limits) {
  Table l = left.Clone();
  Table r = right.Clone();
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
      return Status::Internal("join column collision");
    }
    GENT_RETURN_IF_ERROR(r.RenameColumn(right_col, join_name));
  }
  return RefNaturalJoin(l, r, JoinKind::kInner, limits);
}

// The pre-ExpandEngine Expand(), verbatim: per-candidate hash-set column
// sets, O(n²·cols²) hash-probed join-graph edges, serial path
// materialization.
inline Result<ExpandResult> RefExpand(const Table& source,
                                      const std::vector<Candidate>& candidates,
                                      const OpLimits& limits = {}) {
  constexpr double kJoinThreshold = 0.3;
  const size_t n = candidates.size();
  ExpandResult result;

  OpLimits join_limits = limits;
  join_limits.MaxRows(std::min<uint64_t>(limits.max_rows(), 200000));

  std::vector<RefColumnSets> sets;
  sets.reserve(n);
  std::vector<std::vector<std::string>> sorted_schemas;
  sorted_schemas.reserve(n);
  for (const auto& c : candidates) {
    sets.push_back(RefComputeColumnSets(c.table));
    sorted_schemas.push_back(c.table.column_names());
    std::sort(sorted_schemas.back().begin(), sorted_schemas.back().end());
  }

  struct Edge {
    size_t to;
    RefJoinPair pair;  // pair.a_col indexes the *from* table
  };
  std::vector<std::vector<Edge>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      auto pair =
          RefBestJoinPair(sets[i], candidates[i].table.num_rows(), sets[j],
                          candidates[j].table.num_rows(), kJoinThreshold);
      if (!pair) continue;
      adj[i].push_back(Edge{j, *pair});
      adj[j].push_back(Edge{i, RefJoinPair{pair->b_col, pair->a_col,
                                           pair->weight, pair->inter}});
    }
  }

  constexpr double kHopPenalty = 0.25;
  auto best_path = [&](size_t start,
                       size_t forced_first) -> std::vector<size_t> {
    std::vector<double> cost(n, 1e18);
    std::vector<size_t> parent(n, SIZE_MAX);
    std::vector<bool> settled(n, false);
    size_t root = start;
    if (forced_first != SIZE_MAX) {
      root = forced_first;
      if (candidates[root].covers_key) return {start, root};
      settled[start] = true;
    }
    cost[root] = 0.0;
    size_t end_node = SIZE_MAX;
    while (true) {
      size_t node = SIZE_MAX;
      double bc = 1e18;
      for (size_t v = 0; v < n; ++v) {
        if (!settled[v] && cost[v] < bc) {
          bc = cost[v];
          node = v;
        }
      }
      if (node == SIZE_MAX) break;
      settled[node] = true;
      if (node != start && candidates[node].covers_key) {
        end_node = node;
        break;
      }
      for (const Edge& e : adj[node]) {
        double c = cost[node] + (1.0 - e.pair.weight) + kHopPenalty;
        if (c < cost[e.to]) {
          cost[e.to] = c;
          parent[e.to] = node;
        }
      }
    }
    if (end_node == SIZE_MAX) return {};
    std::vector<size_t> path;
    for (size_t cur = end_node; cur != SIZE_MAX; cur = parent[cur]) {
      path.push_back(cur);
    }
    if (forced_first != SIZE_MAX) path.push_back(start);
    std::reverse(path.begin(), path.end());
    return path;
  };

  auto build_expansion = [&](size_t ci, const std::vector<size_t>& path)
      -> std::optional<Table> {
    const Candidate& cand = candidates[ci];
    Table joined = candidates[path[0]].table.Clone();
    RefColumnSets joined_sets = sets[path[0]];
    for (size_t p = 1; p < path.size(); ++p) {
      size_t next = path[p];
      auto pair = RefBestJoinPair(joined_sets, joined.num_rows(), sets[next],
                                  candidates[next].table.num_rows(),
                                  kJoinThreshold);
      if (!pair) return std::nullopt;
      Table hop_table = candidates[next].table.Clone();
      for (size_t other = 0; other < n; ++other) {
        if (other == next || other == ci) continue;
        auto unioned = InnerUnion(hop_table, candidates[other].table);
        if (unioned.ok()) hop_table = std::move(unioned).value();
      }
      std::unordered_set<std::string> preserve(
          cand.table.column_names().begin(), cand.table.column_names().end());
      auto j = RefJoinOnPair(hop_table, joined, pair->b_col, pair->a_col,
                             preserve, join_limits);
      if (!j.ok()) return std::nullopt;
      joined = std::move(j).value();
      joined_sets = RefComputeColumnSets(joined);
    }
    if (joined.num_rows() == 0) return std::nullopt;
    for (size_t kc : source.key_columns()) {
      if (!joined.HasColumn(source.column_name(kc))) return std::nullopt;
    }
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

  for (size_t i = 0; i < n; ++i) {
    const Candidate& cand = candidates[i];
    if (cand.covers_key) {
      result.tables.push_back(cand.table.Clone());
      continue;
    }
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
      if (schema == sorted_schemas[i]) continue;
      bool seen = false;
      for (const auto* u : used_hop_schemas) seen = seen || *u == schema;
      if (seen) continue;
      used_hop_schemas.push_back(&schema);
      add_path(best_path(i, hop));
    }
    if (paths.empty()) {
      ++result.num_dropped;
      continue;
    }

    std::optional<Table> best_table;
    double best_score = -1.0;
    for (const auto& path : paths) {
      auto expansion = build_expansion(i, path);
      if (!expansion.has_value()) continue;
      auto matrix = InitializeMatrix(source, *expansion, MatrixOptions{});
      if (!matrix.ok()) continue;
      double score = EvaluateMatrixSimilarity(*matrix, source);
      if (score > best_score) {
        best_score = score;
        best_table = std::move(expansion);
      }
    }
    if (!best_table.has_value()) {
      ++result.num_dropped;
      continue;
    }
    result.tables.push_back(std::move(*best_table));
    ++result.num_expanded;
  }
  return result;
}

}  // namespace gent::ref

#endif  // GENT_TESTS_EXPAND_REFERENCE_H_
