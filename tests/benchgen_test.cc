#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "src/benchgen/benchmarks.h"
#include "src/benchgen/noise_lake.h"
#include "src/benchgen/query_gen.h"
#include "src/benchgen/tpch.h"
#include "src/benchgen/variants.h"
#include "src/benchgen/web_tables.h"
#include "src/engine/column_stats_catalog.h"
#include "src/table/table_builder.h"

namespace gent {
namespace {

// --- TPC-H generator ------------------------------------------------------------

class TpchTest : public ::testing::Test {
 protected:
  DictionaryPtr dict_ = MakeDictionary();

  std::vector<Table> Generate(double scale = 1.0, uint64_t seed = 7) {
    TpchConfig cfg;
    cfg.scale = scale;
    cfg.seed = seed;
    return GenerateTpch(dict_, cfg);
  }
};

TEST_F(TpchTest, GeneratesAllEightTables) {
  auto tables = Generate();
  ASSERT_EQ(tables.size(), 8u);
  std::set<std::string> names;
  for (const auto& t : tables) names.insert(t.name());
  for (const char* expected :
       {"region", "nation", "supplier", "part", "partsupp", "customer",
        "orders", "lineitem"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
}

TEST_F(TpchTest, KeysAreUnique) {
  for (const auto& t : Generate()) {
    ASSERT_TRUE(t.has_key()) << t.name();
    KeyIndex idx = t.BuildKeyIndex();
    EXPECT_EQ(idx.size(), t.num_rows()) << t.name() << " has duplicate keys";
  }
}

TEST_F(TpchTest, ForeignKeysResolve) {
  auto tables = Generate();
  auto find = [&](const std::string& n) -> const Table& {
    for (const auto& t : tables) {
      if (t.name() == n) return t;
    }
    abort();
  };
  auto key_set = [&](const Table& t, const std::string& col) {
    return DistinctColumnValues(t, *t.ColumnIndex(col));
  };
  struct Check {
    const char* child;
    const char* fk;
    const char* parent;
    const char* pk;
  };
  for (const Check& c : std::initializer_list<Check>{
           {"nation", "n_regionkey", "region", "r_regionkey"},
           {"supplier", "s_nationkey", "nation", "n_nationkey"},
           {"customer", "c_nationkey", "nation", "n_nationkey"},
           {"orders", "o_custkey", "customer", "c_custkey"},
           {"lineitem", "l_orderkey", "orders", "o_orderkey"},
           {"lineitem", "l_partkey", "part", "p_partkey"},
           {"lineitem", "l_suppkey", "supplier", "s_suppkey"},
           {"partsupp", "ps_partkey", "part", "p_partkey"},
           {"partsupp", "ps_suppkey", "supplier", "s_suppkey"}}) {
    auto fks = key_set(find(c.child), c.fk);
    auto pks = key_set(find(c.parent), c.pk);
    for (ValueId v : fks) {
      ASSERT_TRUE(pks.count(v) > 0)
          << c.child << "." << c.fk << " dangles into " << c.parent;
    }
  }
}

TEST_F(TpchTest, DeterministicForSeed) {
  auto a = Generate(1.0, 99);
  DictionaryPtr dict2 = MakeDictionary();
  TpchConfig cfg;
  cfg.seed = 99;
  auto b = GenerateTpch(dict2, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].num_rows(), b[i].num_rows());
    for (size_t r = 0; r < a[i].num_rows(); ++r) {
      for (size_t c = 0; c < a[i].num_cols(); ++c) {
        ASSERT_EQ(a[i].CellString(r, c), b[i].CellString(r, c));
      }
    }
  }
}

TEST_F(TpchTest, ScaleGrowsTables) {
  auto small = Generate(1.0);
  auto big = Generate(4.0, 7);
  auto rows = [](const std::vector<Table>& ts) {
    size_t n = 0;
    for (const auto& t : ts) n += t.num_rows();
    return n;
  };
  EXPECT_GT(rows(big), 3 * rows(small));
}

TEST_F(TpchTest, AverageRowsNearPaperSmall) {
  auto tables = Generate(1.0);
  size_t total = 0;
  for (const auto& t : tables) total += t.num_rows();
  double avg = static_cast<double>(total) / 8.0;
  EXPECT_GT(avg, 600);  // paper: 782
  EXPECT_LT(avg, 1000);
}

// --- Variants ---------------------------------------------------------------------

class VariantTest : public ::testing::Test {
 protected:
  DictionaryPtr dict_ = MakeDictionary();

  Table Original() {
    TableBuilder b(dict_, "orig");
    b.Columns({"k", "a", "b", "c"});
    for (int i = 0; i < 50; ++i) {
      b.Row({std::to_string(i), "a" + std::to_string(i),
             "b" + std::to_string(i), "c" + std::to_string(i)});
    }
    return b.Key({"k"}).Build();
  }

  static size_t CountNulls(const Table& t) {
    size_t n = 0;
    for (size_t c = 0; c < t.num_cols(); ++c) {
      for (ValueId v : t.column(c)) n += v == kNull;
    }
    return n;
  }
};

TEST_F(VariantTest, KeyColumnsNeverDamaged) {
  Rng rng(9);
  Table orig = Original();
  for (auto kind : {VariantKind::kNullified, VariantKind::kErroneous}) {
    auto pair = MakeVariantPair(orig, kind, 0.9, rng);
    for (const auto& v : pair) {
      for (size_t r = 0; r < orig.num_rows(); ++r) {
        ASSERT_EQ(v.cell(r, 0), orig.cell(r, 0)) << v.name();
      }
    }
  }
}

TEST_F(VariantTest, NullifiedPairHasDisjointMasksAtHalf) {
  Rng rng(3);
  auto pair = MakeVariantPair(Original(), VariantKind::kNullified, 0.5, rng);
  ASSERT_EQ(pair.size(), 2u);
  Table orig = Original();
  // Damage targets non-key cells only: 50 rows × 3 non-key cols.
  size_t eligible = orig.num_rows() * (orig.num_cols() - 1);
  EXPECT_EQ(CountNulls(pair[0]), eligible / 2);
  EXPECT_EQ(CountNulls(pair[1]), eligible / 2);
  // Disjoint at 0.5: every cell is intact in at least one variant.
  for (size_t c = 0; c < orig.num_cols(); ++c) {
    for (size_t r = 0; r < orig.num_rows(); ++r) {
      EXPECT_TRUE(pair[0].cell(r, c) != kNull || pair[1].cell(r, c) != kNull)
          << "cell (" << r << "," << c << ") lost in both variants";
    }
  }
}

TEST_F(VariantTest, HighRateForcesOverlap) {
  Rng rng(3);
  auto pair = MakeVariantPair(Original(), VariantKind::kNullified, 0.8, rng);
  Table orig = Original();
  size_t both_lost = 0;
  for (size_t c = 0; c < orig.num_cols(); ++c) {
    for (size_t r = 0; r < orig.num_rows(); ++r) {
      both_lost +=
          pair[0].cell(r, c) == kNull && pair[1].cell(r, c) == kNull;
    }
  }
  // Overlap = 2p − 1 = 60% of the damage-eligible (non-key) cells.
  double eligible = static_cast<double>(orig.num_rows() * (orig.num_cols() - 1));
  EXPECT_NEAR(static_cast<double>(both_lost) / eligible, 0.6, 0.05);
}

TEST_F(VariantTest, ErroneousVariantInjectsNonNullNoise) {
  Rng rng(5);
  auto pair = MakeVariantPair(Original(), VariantKind::kErroneous, 0.5, rng);
  Table orig = Original();
  size_t changed = 0, nulls = 0;
  for (size_t c = 0; c < orig.num_cols(); ++c) {
    for (size_t r = 0; r < orig.num_rows(); ++r) {
      ValueId v = pair[0].cell(r, c);
      changed += v != orig.cell(r, c);
      nulls += v == kNull;
    }
  }
  EXPECT_EQ(nulls, 0u);
  EXPECT_EQ(changed, orig.num_rows() * (orig.num_cols() - 1) / 2);
}

TEST_F(VariantTest, TpTrVariantsMakeFourTables) {
  VariantConfig cfg;
  auto variants = MakeTpTrVariants(Original(), cfg);
  ASSERT_EQ(variants.size(), 4u);
  std::set<std::string> names;
  for (const auto& v : variants) {
    names.insert(v.name());
    EXPECT_FALSE(v.has_key());  // lake tables carry no key constraint
  }
  EXPECT_EQ(names.size(), 4u);
}

// --- Query generator ---------------------------------------------------------------

class QueryGenTest : public ::testing::Test {
 protected:
  DictionaryPtr dict_ = MakeDictionary();
  std::vector<Table> tpch_ = GenerateTpch(dict_, TpchConfig{});
};

TEST_F(QueryGenTest, GeneratesRequestedSources) {
  QueryGenConfig cfg;
  auto specs = GenerateSourceTables(tpch_, cfg);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs->size(), 26u);
}

TEST_F(QueryGenTest, EverySourceHasValidKey) {
  auto specs = GenerateSourceTables(tpch_, QueryGenConfig{});
  ASSERT_TRUE(specs.ok());
  for (const auto& spec : *specs) {
    ASSERT_TRUE(spec.source.has_key()) << spec.description;
    KeyIndex idx = spec.source.BuildKeyIndex();
    EXPECT_EQ(idx.size(), spec.source.num_rows())
        << spec.description << ": key not unique";
  }
}

TEST_F(QueryGenTest, AllThreeQueryClassesPresent) {
  auto specs = GenerateSourceTables(tpch_, QueryGenConfig{});
  ASSERT_TRUE(specs.ok());
  std::set<QueryClass> classes;
  for (const auto& spec : *specs) classes.insert(spec.query_class);
  EXPECT_EQ(classes.size(), 3u);
}

TEST_F(QueryGenTest, RowAndColumnTargetsRespected) {
  QueryGenConfig cfg;
  cfg.target_rows = 27;
  cfg.target_cols = 9;
  auto specs = GenerateSourceTables(tpch_, cfg);
  ASSERT_TRUE(specs.ok());
  for (const auto& spec : *specs) {
    EXPECT_LE(spec.source.num_rows(), 27u) << spec.description;
    EXPECT_GE(spec.source.num_rows(), 5u) << spec.description;
    EXPECT_LE(spec.source.num_cols(), 9u) << spec.description;
  }
}

TEST_F(QueryGenTest, BaseTablesTracked) {
  auto specs = GenerateSourceTables(tpch_, QueryGenConfig{});
  ASSERT_TRUE(specs.ok());
  for (const auto& spec : *specs) {
    EXPECT_FALSE(spec.base_tables.empty());
    size_t expected_min =
        spec.query_class == QueryClass::kProjectSelectUnion ? 1 : 2;
    EXPECT_GE(spec.base_tables.size(), expected_min) << spec.description;
  }
}

TEST_F(QueryGenTest, SourceValuesComeFromOriginals) {
  auto specs = GenerateSourceTables(tpch_, QueryGenConfig{});
  ASSERT_TRUE(specs.ok());
  // All values in a PSU source must exist in its single base table.
  for (const auto& spec : *specs) {
    if (spec.query_class != QueryClass::kProjectSelectUnion) continue;
    const Table* base = nullptr;
    for (const auto& t : tpch_) {
      if (t.name() == spec.base_tables[0]) base = &t;
    }
    ASSERT_NE(base, nullptr);
    std::unordered_set<ValueId> base_values;
    for (size_t c = 0; c < base->num_cols(); ++c) {
      for (ValueId v : base->column(c)) base_values.insert(v);
    }
    for (size_t c = 0; c < spec.source.num_cols(); ++c) {
      for (ValueId v : spec.source.column(c)) {
        EXPECT_TRUE(v == kNull || base_values.count(v) > 0);
      }
    }
  }
}

// --- Web corpus ----------------------------------------------------------------------

TEST(WebCorpusTest, GeneratesRequestedShape) {
  auto dict = MakeDictionary();
  WebCorpusConfig cfg;
  cfg.num_tables = 80;
  auto corpus = GenerateWebCorpus(dict, cfg);
  EXPECT_EQ(corpus.tables.size(), 80u);
  EXPECT_EQ(corpus.duplicate_tables.size(), 12u);  // 6 pairs
  EXPECT_EQ(corpus.partitioned_bases.size(), 3u);
  for (const auto& t : corpus.tables) {
    EXPECT_TRUE(t.has_key()) << t.name();
    EXPECT_GE(t.num_cols(), 2u) << t.name();
  }
}

TEST(WebCorpusTest, DuplicatePairsAreIdentical) {
  auto dict = MakeDictionary();
  WebCorpusConfig cfg;
  cfg.num_tables = 60;
  auto corpus = GenerateWebCorpus(dict, cfg);
  auto find = [&](const std::string& n) -> const Table* {
    for (const auto& t : corpus.tables) {
      if (t.name() == n) return &t;
    }
    return nullptr;
  };
  for (size_t i = 0; i < corpus.duplicate_tables.size(); i += 2) {
    const Table* a = find(corpus.duplicate_tables[i]);
    const Table* b = find(corpus.duplicate_tables[i + 1]);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->num_rows(), b->num_rows());
    ASSERT_EQ(a->num_cols(), b->num_cols());
    for (size_t r = 0; r < a->num_rows(); ++r) {
      for (size_t c = 0; c < a->num_cols(); ++c) {
        ASSERT_EQ(a->cell(r, c), b->cell(r, c));
      }
    }
  }
}

TEST(WebCorpusTest, PartitionsCoverTheBase) {
  auto dict = MakeDictionary();
  WebCorpusConfig cfg;
  cfg.num_tables = 60;
  auto corpus = GenerateWebCorpus(dict, cfg);
  // Every value of a base table appears in some partition table.
  for (const auto& base_name : corpus.partitioned_bases) {
    const Table* base = nullptr;
    std::vector<const Table*> parts;
    std::string prefix =
        "t2d_part_" + base_name.substr(std::string("t2d_base_").size());
    for (const auto& t : corpus.tables) {
      if (t.name() == base_name) base = &t;
      if (t.name().rfind(prefix, 0) == 0) parts.push_back(&t);
    }
    ASSERT_NE(base, nullptr);
    ASSERT_GE(parts.size(), 4u);
    std::unordered_set<ValueId> part_values;
    for (const Table* p : parts) {
      for (size_t c = 0; c < p->num_cols(); ++c) {
        for (ValueId v : p->column(c)) part_values.insert(v);
      }
    }
    for (size_t c = 0; c < base->num_cols(); ++c) {
      for (ValueId v : base->column(c)) {
        ASSERT_TRUE(v == kNull || part_values.count(v) > 0);
      }
    }
  }
}

TEST(WdcSampleTest, SmallTables) {
  auto dict = MakeDictionary();
  WdcConfig cfg;
  cfg.num_tables = 100;
  auto tables = GenerateWdcSample(dict, cfg);
  EXPECT_EQ(tables.size(), 100u);
  size_t total_rows = 0;
  for (const auto& t : tables) total_rows += t.num_rows();
  double avg = static_cast<double>(total_rows) / 100.0;
  EXPECT_GT(avg, 4);
  EXPECT_LT(avg, 30);
}

// --- Noise lake ------------------------------------------------------------------------

TEST(NoiseLakeTest, SliceDistractorsShareValues) {
  auto dict = MakeDictionary();
  auto tpch = GenerateTpch(dict, TpchConfig{});
  NoiseLakeConfig cfg;
  cfg.num_tables = 50;
  cfg.slice_fraction = 1.0;  // all distractors copy slices
  auto noise = GenerateNoiseLake(dict, tpch, cfg);
  ASSERT_EQ(noise.size(), 50u);
  std::unordered_set<ValueId> tpch_values;
  for (const auto& t : tpch) {
    for (size_t c = 0; c < t.num_cols(); ++c) {
      for (ValueId v : t.column(c)) tpch_values.insert(v);
    }
  }
  size_t sharing = 0;
  for (const auto& t : noise) {
    bool shares = false;
    for (size_t c = 0; c < t.num_cols() && !shares; ++c) {
      for (ValueId v : t.column(c)) {
        if (v != kNull && tpch_values.count(v) > 0) {
          shares = true;
          break;
        }
      }
    }
    sharing += shares;
  }
  EXPECT_GT(sharing, 45u);
}

// --- Benchmark assembly --------------------------------------------------------------------

TEST(BenchmarkTest, TpTrSmallShape) {
  auto bench = MakeTpTrBenchmark("tp-tr-small", TpTrSmallConfig());
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  EXPECT_EQ(bench->lake->size(), 32u);  // 8 tables × 4 variants
  EXPECT_EQ(bench->sources.size(), 26u);
  EXPECT_EQ(bench->integrating_sets.size(), 26u);
  for (const auto& set : bench->integrating_sets) {
    for (const auto& name : set) {
      EXPECT_TRUE(bench->lake->IndexOf(name).ok()) << name;
    }
  }
}

TEST(BenchmarkTest, EmbeddingAddsNoise) {
  auto base = MakeTpTrBenchmark("tp-tr-small", TpTrSmallConfig());
  ASSERT_TRUE(base.ok());
  auto embedded = EmbedInNoiseLake(*base, 100, 5);
  ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
  EXPECT_EQ(embedded->lake->size(), 132u);
  EXPECT_EQ(embedded->sources.size(), 26u);
}

TEST(BenchmarkTest, WebBenchmarkShape) {
  WebBenchConfig cfg;
  cfg.t2d_tables = 80;
  cfg.wdc_tables = 120;
  auto bench = MakeWebBenchmark("web", cfg);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  EXPECT_EQ(bench->lake->size(), 200u);
  EXPECT_EQ(bench->source_indices.size(), 80u);
}

}  // namespace
}  // namespace gent
