// Dictionary encoding of cell values.
//
// Every distinct cell value in a corpus is interned exactly once into a
// ValueDictionary and represented everywhere else as a 32-bit ValueId.
// This makes the hot operations of Gen-T — set overlap, tuple alignment,
// and cell equality — integer comparisons, and makes labeled nulls
// (paper §V-B1, LabelSourceNulls) first-class values that can never
// collide with real data.
//
// Id 0 is the null sentinel. Numeric strings are canonicalized at intern
// time ("3.10" and "3.1" intern to the same id) because Gen-T matches
// values syntactically (paper §II: metadata and types are unreliable).
//
// Thread safety: all methods may be called concurrently (guarded by a
// shared_mutex; strings live in a deque so references returned by
// StringOf stay valid across concurrent Interns). This is what lets
// ReclaimService::ReclaimBatch run many reclamations against one lake in
// parallel.

#ifndef GENT_VALUE_DICTIONARY_H_
#define GENT_VALUE_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gent {

/// Interned value handle. 0 is null; all other ids index a dictionary.
using ValueId = uint32_t;

/// The null sentinel (missing value, ⊥ in the paper).
inline constexpr ValueId kNull = 0;

/// Corpus-wide value interning table. Shared (via shared_ptr) by every
/// table in a data lake so ids are comparable across tables.
class ValueDictionary {
 public:
  ValueDictionary();

  /// Interns `s` (numeric spellings canonicalized) and returns its id.
  /// Empty strings intern to kNull.
  ValueId Intern(std::string_view s);

  /// Returns the id of `s` if already interned, else kNull.
  ValueId Lookup(std::string_view s) const;

  /// The string for an id. id must be kNull or a valid interned id;
  /// kNull renders as "" and labeled nulls as "⟨null:k⟩". The returned
  /// reference stays valid for the dictionary's lifetime.
  const std::string& StringOf(ValueId id) const;

  /// Allocates a fresh labeled null: a unique non-null value distinct from
  /// every real value (used by LabelSourceNulls to protect source nulls
  /// from being overwritten during integration).
  ValueId CreateLabeledNull();

  /// True if `id` was produced by CreateLabeledNull().
  bool IsLabeledNull(ValueId id) const;

  /// Removes every labeled-null id from `ids` in one lock acquisition.
  /// Per-value IsLabeledNull takes the shared lock per call — a
  /// measurable cost in per-column loops; bulk callers (column-stats
  /// builds, expansion set rebuilds) use this instead.
  void RemoveLabeledNulls(std::vector<ValueId>* ids) const;

  /// Number of distinct interned values (including null and labels).
  size_t size() const;

 private:
  mutable std::shared_mutex mutex_;
  std::deque<std::string> strings_;  // deque: stable refs under growth
  std::unordered_map<std::string, ValueId> index_;
  std::unordered_set<ValueId> labeled_nulls_;
  uint64_t next_label_ = 0;
};

using DictionaryPtr = std::shared_ptr<ValueDictionary>;

/// Convenience: a fresh shared dictionary.
inline DictionaryPtr MakeDictionary() {
  return std::make_shared<ValueDictionary>();
}

}  // namespace gent

#endif  // GENT_VALUE_DICTIONARY_H_
