// Reference checks: every output the benchmark times is compared with a
// result computed apart from the timed path, and checked for two
// properties the method must have.
//
//   * Identity. Two results are the same when their reclaimed tables
//     carry the same schema and the same cells and their originating
//     tables have the same names. Within one dictionary that is id-level
//     bit identity (TablesBitIdentical); across dictionaries (a restarted
//     service re-interns everything into a fresh one) cells are compared
//     by their strings.
//   * Properties. The reclaimed schema equals the source schema, and
//     every reclaimed row's key occurs in the source (the σ of the
//     paper's Algorithm 2).

#ifndef GENT_PERFBENCH_CHECKS_H_
#define GENT_PERFBENCH_CHECKS_H_

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/gent/gent.h"
#include "src/table/table.h"

namespace perfbench {

/// The part of a reclamation result the checks compare. Keeping only
/// this (not the expanded originating tables) keeps stored results small.
struct Outcome {
  gent::Table reclaimed;
  std::vector<std::string> names;
};

inline Outcome ToOutcome(gent::ReclamationResult&& result) {
  return Outcome{std::move(result.reclaimed),
                 std::move(result.originating_names)};
}

inline bool SameTable(const gent::Table& a, const gent::Table& b) {
  if (a.dict() == b.dict()) return gent::TablesBitIdentical(a, b);
  if (a.column_names() != b.column_names()) return false;
  if (a.num_rows() != b.num_rows()) return false;
  for (size_t c = 0; c < a.num_cols(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (a.CellString(r, c) != b.CellString(r, c)) return false;
    }
  }
  return true;
}

inline bool SameOutcome(const Outcome& a, const Outcome& b) {
  return a.names == b.names && SameTable(a.reclaimed, b.reclaimed);
}

/// The key of row `r` of `t` over the key columns `cols`, as strings.
inline std::string KeyString(const gent::Table& t, size_t r,
                             const std::vector<size_t>& cols) {
  std::string key;
  for (size_t c : cols) {
    key += t.CellString(r, c);
    key += '\x1f';
  }
  return key;
}

/// Empty when `reclaimed` has the properties every Gen-T output must
/// have for `source`; otherwise what is wrong.
inline std::string PropertyViolation(const gent::Table& source,
                                     const gent::Table& reclaimed) {
  if (reclaimed.column_names() != source.column_names()) {
    return "reclaimed schema differs from the source schema";
  }
  if (!source.has_key()) return "source declares no key";
  const std::vector<size_t>& key_cols = source.key_columns();
  std::unordered_set<std::string> keys;
  keys.reserve(source.num_rows());
  for (size_t r = 0; r < source.num_rows(); ++r) {
    keys.insert(KeyString(source, r, key_cols));
  }
  for (size_t r = 0; r < reclaimed.num_rows(); ++r) {
    if (keys.count(KeyString(reclaimed, r, key_cols)) == 0) {
      return "reclaimed row " + std::to_string(r) +
             " has a key that does not occur in the source";
    }
  }
  return std::string();
}

}  // namespace perfbench

#endif  // GENT_PERFBENCH_CHECKS_H_
