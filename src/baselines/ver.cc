#include "src/baselines/ver.h"

#include <algorithm>

#include "src/engine/column_stats_catalog.h"
#include "src/ops/join.h"
#include "src/ops/unary.h"
#include "src/ops/union.h"

namespace gent {

Result<Table> VerBaseline::Run(const Table& source,
                               const std::vector<Table>& inputs,
                               const OpLimits& limits) const {
  auto empty_result = [&]() -> Result<Table> {
    Table empty("reclaimed", source.dict());
    for (const auto& name : source.column_names()) {
      GENT_RETURN_IF_ERROR(empty.AddColumn(name));
    }
    return empty;
  };
  if (inputs.empty() || source.key_columns().size() != 1) {
    // Ver's 2-column queries need a single-attribute key to anchor on.
    return empty_result();
  }
  const size_t key_col = source.key_columns()[0];
  const std::string& key_name = source.column_name(key_col);

  // Example values: the first example_rows of the key + attribute.
  const size_t n_examples = std::min(config_.example_rows, source.num_rows());

  Table aggregated("ver", source.dict());
  bool first_view = true;
  for (size_t c = 0; c < source.num_cols(); ++c) {
    if (c == key_col) continue;
    GENT_RETURN_IF_ERROR(limits.Check(aggregated.num_rows()));
    const std::string& attr_name = source.column_name(c);

    // Rank inputs by how well they contain the 2-column example.
    std::vector<std::pair<double, size_t>> ranked;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Table& t = inputs[i];
      auto kc = t.ColumnIndex(key_name);
      auto ac = t.ColumnIndex(attr_name);
      if (!kc.has_value() || !ac.has_value()) continue;
      auto kvals = DistinctColumnValues(t, *kc);
      auto avals = DistinctColumnValues(t, *ac);
      size_t hits = 0;
      for (size_t r = 0; r < n_examples; ++r) {
        hits += kvals.count(source.cell(r, key_col)) > 0;
        hits += avals.count(source.cell(r, c)) > 0;
      }
      if (hits > 0) {
        ranked.emplace_back(static_cast<double>(hits), i);
      }
    }
    if (ranked.empty()) continue;
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });

    // The view: union of full 2-column projections (all rows, QBE-style).
    Table view("view", source.dict());
    bool have_view = false;
    for (size_t v = 0; v < ranked.size() && v < config_.views_per_query;
         ++v) {
      auto proj = Project(inputs[ranked[v].second], {key_name, attr_name});
      if (!proj.ok()) continue;
      view = have_view ? OuterUnion(view, *proj) : std::move(proj).value();
      have_view = true;
    }
    if (!have_view) continue;
    view = Distinct(view);

    // Aggregate per-attribute views on the key column.
    if (first_view) {
      aggregated = std::move(view);
      first_view = false;
    } else {
      GENT_ASSIGN_OR_RETURN(
          aggregated,
          NaturalJoin(aggregated, view, JoinKind::kFullOuter, limits));
    }
  }
  if (first_view) return empty_result();

  for (const auto& name : source.column_names()) {
    if (!aggregated.HasColumn(name)) {
      GENT_RETURN_IF_ERROR(aggregated.AddColumn(name));
    }
  }
  GENT_ASSIGN_OR_RETURN(Table result,
                        Project(aggregated, source.column_names()));
  result = Distinct(result);
  result.set_name("reclaimed");
  return result;
}

}  // namespace gent
