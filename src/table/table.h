// In-memory relational table with dictionary-encoded cells.
//
// Tables are column-major: each column is a vector<ValueId> into a shared
// ValueDictionary. Data-lake tables carry no constraints; a Source Table
// additionally designates key columns (paper §II assumes sources have a
// possibly multi-attribute key).

#ifndef GENT_TABLE_TABLE_H_
#define GENT_TABLE_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/status.h"
#include "src/value/dictionary.h"

namespace gent {

/// A tuple of key-column values; hashable so key→row lookups are O(1).
using KeyTuple = std::vector<ValueId>;

struct KeyTupleHash {
  size_t operator()(const KeyTuple& k) const {
    // FNV-1a over the id words.
    uint64_t h = 1469598103934665603ULL;
    for (ValueId v : k) {
      h ^= v;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// Maps each key tuple to the rows carrying it.
using KeyIndex =
    std::unordered_map<KeyTuple, std::vector<size_t>, KeyTupleHash>;

class Table {
 public:
  Table(std::string name, DictionaryPtr dict)
      : name_(std::move(name)), dict_(std::move(dict)) {}

  // --- Schema -----------------------------------------------------------

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const DictionaryPtr& dict() const { return dict_; }

  size_t num_cols() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  size_t num_cells() const { return num_cols() * num_rows(); }

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  const std::string& column_name(size_t c) const { return column_names_[c]; }

  /// Index of the column named `name`, if present.
  std::optional<size_t> ColumnIndex(const std::string& name) const;
  bool HasColumn(const std::string& name) const {
    return ColumnIndex(name).has_value();
  }

  /// Appends an empty (all-null if rows exist) column. Fails if the name
  /// already exists.
  Status AddColumn(const std::string& name);

  /// Renames column `c`. Fails if `name` collides with another column.
  Status RenameColumn(size_t c, const std::string& name);

  // --- Keys (source tables only) ----------------------------------------

  /// Declares the key columns by index. Indices must be valid and distinct.
  Status SetKeyColumns(std::vector<size_t> cols);
  /// Declares the key columns by name.
  Status SetKeyColumnsByName(const std::vector<std::string>& names);
  const std::vector<size_t>& key_columns() const { return key_columns_; }
  bool has_key() const { return !key_columns_.empty(); }
  bool IsKeyColumn(size_t c) const;

  /// Key-tuple of row `r` (empty if no key is declared).
  KeyTuple KeyOf(size_t r) const;

  /// key tuple → rows. Requires has_key().
  KeyIndex BuildKeyIndex() const;

  // --- Data -------------------------------------------------------------

  ValueId cell(size_t r, size_t c) const { return columns_[c][r]; }
  void set_cell(size_t r, size_t c, ValueId v) { columns_[c][r] = v; }

  const std::vector<ValueId>& column(size_t c) const { return columns_[c]; }
  std::vector<ValueId>& mutable_column(size_t c) { return columns_[c]; }

  /// Appends a row; `row.size()` must equal num_cols().
  void AddRow(const std::vector<ValueId>& row);

  /// Materializes row `r` as a vector of ids.
  std::vector<ValueId> Row(size_t r) const;

  /// Number of non-null cells in row `r`.
  size_t RowNonNullCount(size_t r) const;

  /// Deletes the given rows (indices need not be sorted or unique).
  void RemoveRows(const std::vector<size_t>& rows);

  /// Deep copy (shares the dictionary).
  Table Clone() const;

  /// Human-readable rendering (for logs/tests); cells shown as strings.
  std::string ToString(size_t max_rows = 32) const;

  /// String convenience accessors.
  const std::string& CellString(size_t r, size_t c) const {
    return dict_->StringOf(cell(r, c));
  }

 private:
  std::string name_;
  DictionaryPtr dict_;
  std::vector<std::string> column_names_;
  std::vector<std::vector<ValueId>> columns_;
  std::vector<size_t> key_columns_;
};

/// True if `a` and `b` carry the same column names in the same order and
/// identical cells in identical row order (table names may differ). This
/// is the "bit-identical" predicate of the ReclaimBatch determinism
/// contract (see src/engine/reclaim_service.h and DESIGN.md §5.2).
bool TablesBitIdentical(const Table& a, const Table& b);

}  // namespace gent

#endif  // GENT_TABLE_TABLE_H_
