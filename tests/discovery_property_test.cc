// Property tests for candidate discovery (Algorithms 3-4): invariants
// that must hold for any lake, checked over seeded random lakes.

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/discovery/discovery.h"
#include "src/gent/gent.h"
#include "src/lake/data_lake.h"
#include "src/table/table_builder.h"
#include "src/util/random.h"

namespace gent {
namespace {

// A random lake whose tables draw from the source's value domain with
// varying overlap, plus unrelated distractors.
struct RandomLakeCase {
  std::unique_ptr<DataLake> lake;
  std::unique_ptr<Table> source;
};

RandomLakeCase MakeRandomLake(uint64_t seed) {
  RandomLakeCase out;
  out.lake = std::make_unique<DataLake>();
  const DictionaryPtr& dict = out.lake->dict();
  Rng rng(seed);

  const size_t rows = 8 + rng.Index(12);
  TableBuilder sb(dict, "source");
  sb.Columns({"k", "a", "b", "c"});
  std::vector<std::vector<std::string>> source_rows;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row = {
        "key" + std::to_string(r), "a" + std::to_string(rng.Index(6)),
        "b" + std::to_string(rng.Index(6)), "c" + std::to_string(rng.Index(6))};
    source_rows.push_back(row);
    sb.Row(row);
  }
  out.source = std::make_unique<Table>(sb.Key({"k"}).Build());

  // Overlapping tables: vertical fragments with random row subsets.
  const size_t n_overlapping = 2 + rng.Index(4);
  for (size_t t = 0; t < n_overlapping; ++t) {
    TableBuilder tb(dict, "overlap" + std::to_string(t));
    const bool with_b = rng.Bernoulli(0.5);
    tb.Columns(with_b ? std::vector<std::string>{"k", "a", "b"}
                      : std::vector<std::string>{"k", "c"});
    for (const auto& row : source_rows) {
      if (rng.Bernoulli(0.3)) continue;  // drop some rows
      if (with_b) {
        tb.Row({row[0], row[1], row[2]});
      } else {
        tb.Row({row[0], row[3]});
      }
    }
    (void)out.lake->AddTable(tb.Build());
  }
  // Distractors sharing nothing with the source.
  const size_t n_distractors = 1 + rng.Index(4);
  for (size_t t = 0; t < n_distractors; ++t) {
    TableBuilder tb(dict, "noise" + std::to_string(t));
    tb.Columns({"x", "y"});
    for (size_t r = 0; r < 10; ++r) {
      tb.Row({"nx" + std::to_string(rng.Index(50)) + "_" + std::to_string(t),
              "ny" + std::to_string(rng.Index(50)) + "_" + std::to_string(t)});
    }
    (void)out.lake->AddTable(tb.Build());
  }
  return out;
}

class DiscoverySweep : public ::testing::TestWithParam<int> {};

TEST_P(DiscoverySweep, MappedColumnsGenuinelyOverlap) {
  RandomLakeCase c = MakeRandomLake(GetParam() * 7331 + 3);
  GenT gent(*c.lake);
  Discovery discovery(gent.catalog(), {});
  auto candidates = discovery.FindCandidates(*c.source);
  ASSERT_TRUE(candidates.ok());
  for (const Candidate& cand : *candidates) {
    for (const auto& [src_name, cand_col] : cand.mapping) {
      auto src_col = c.source->ColumnIndex(src_name);
      ASSERT_TRUE(src_col.has_value());
      // The mapped candidate column must share at least one value with
      // the source column (τ > 0 guarantees non-empty overlap).
      std::unordered_set<ValueId> src_vals;
      for (ValueId v : c.source->column(*src_col)) {
        if (v != kNull) src_vals.insert(v);
      }
      bool any = false;
      for (ValueId v : cand.table.column(cand_col)) {
        if (v != kNull && src_vals.count(v)) any = true;
      }
      EXPECT_TRUE(any) << cand.table.name() << " col " << src_name;
    }
  }
}

TEST_P(DiscoverySweep, DistractorsNeverBecomeCandidates) {
  RandomLakeCase c = MakeRandomLake(GetParam() * 104729 + 11);
  GenT gent(*c.lake);
  Discovery discovery(gent.catalog(), {});
  auto candidates = discovery.FindCandidates(*c.source);
  ASSERT_TRUE(candidates.ok());
  for (const Candidate& cand : *candidates) {
    EXPECT_EQ(c.lake->table(cand.lake_index).name().rfind("noise", 0),
              std::string::npos)
        << "distractor retrieved: " << c.lake->table(cand.lake_index).name();
  }
}

TEST_P(DiscoverySweep, TauIsMonotone) {
  RandomLakeCase c = MakeRandomLake(GetParam() * 31 + 7);
  GenT gent(*c.lake);
  DiscoveryConfig lo, hi;
  lo.tau = 0.1;
  hi.tau = 0.7;
  auto loose = Discovery(gent.catalog(), lo).FindCandidates(*c.source);
  auto strict = Discovery(gent.catalog(), hi).FindCandidates(*c.source);
  ASSERT_TRUE(loose.ok());
  ASSERT_TRUE(strict.ok());
  // Raising τ can only shrink the candidate set (as a set of lake
  // tables).
  std::unordered_set<size_t> loose_set, strict_set;
  for (const auto& cand : *loose) loose_set.insert(cand.lake_index);
  for (const auto& cand : *strict) strict_set.insert(cand.lake_index);
  for (size_t idx : strict_set) {
    EXPECT_TRUE(loose_set.count(idx))
        << "table " << idx << " appears only under the stricter τ";
  }
}

TEST_P(DiscoverySweep, ExcludeTableIsHonored) {
  RandomLakeCase c = MakeRandomLake(GetParam() * 13 + 1);
  GenT gent(*c.lake);
  DiscoveryConfig config;
  auto all = Discovery(gent.catalog(), config).FindCandidates(*c.source);
  ASSERT_TRUE(all.ok());
  if (all->empty()) GTEST_SKIP() << "no candidates for this seed";
  const std::string excluded =
      c.lake->table(all->front().lake_index).name();
  config.exclude_table = excluded;
  auto rest = Discovery(gent.catalog(), config).FindCandidates(*c.source);
  ASSERT_TRUE(rest.ok());
  for (const Candidate& cand : *rest) {
    EXPECT_NE(c.lake->table(cand.lake_index).name(), excluded);
  }
}

TEST_P(DiscoverySweep, ExactDuplicateIsPruned) {
  RandomLakeCase c = MakeRandomLake(GetParam() * 997 + 5);
  GenT base_gent(*c.lake);
  auto base = Discovery(base_gent.catalog(), {}).FindCandidates(*c.source);
  ASSERT_TRUE(base.ok());
  if (base->empty()) GTEST_SKIP() << "no candidates for this seed";

  // Clone the lake and append an exact duplicate of the top candidate.
  DataLake bigger(c.lake->dict());
  for (const Table& t : c.lake->tables()) {
    (void)bigger.AddTable(t.Clone());
  }
  Table dup = c.lake->table(base->front().lake_index).Clone();
  dup.set_name("the_duplicate");
  (void)bigger.AddTable(std::move(dup));

  GenT gent(bigger);
  auto with_dup = Discovery(gent.catalog(), {}).FindCandidates(*c.source);
  ASSERT_TRUE(with_dup.ok());
  // The duplicate and its original must not both survive (paper
  // Example 9 / Algorithm 3 line 15).
  bool original = false, duplicate = false;
  const std::string original_name =
      c.lake->table(base->front().lake_index).name();
  for (const Candidate& cand : *with_dup) {
    const std::string& name = bigger.table(cand.lake_index).name();
    original |= name == original_name;
    duplicate |= name == "the_duplicate";
  }
  EXPECT_FALSE(original && duplicate)
      << "both the table and its exact duplicate were kept";
}

TEST_P(DiscoverySweep, CandidatesSortedByScore) {
  RandomLakeCase c = MakeRandomLake(GetParam() * 41 + 9);
  GenT gent(*c.lake);
  auto candidates = Discovery(gent.catalog(), {}).FindCandidates(*c.source);
  ASSERT_TRUE(candidates.ok());
  for (size_t i = 1; i < candidates->size(); ++i) {
    EXPECT_GE((*candidates)[i - 1].score + 1e-12, (*candidates)[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoverySweep, ::testing::Range(1, 15));

}  // namespace
}  // namespace gent
