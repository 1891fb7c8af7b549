// Tests for batch reclamation through ReclaimService::ReclaimBatch (a
// one-shot service over one lake, as the benches use it) and the
// thread-safety of the shared dictionary underneath it.

#include "src/engine/reclaim_service.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/benchgen/benchmarks.h"
#include "src/metrics/similarity.h"
#include "src/table/table_builder.h"
#include "src/util/random.h"

namespace gent {
namespace {

// A lake of vertical fragments for N distinct sources.
struct BulkFixture {
  std::unique_ptr<DataLake> lake;
  std::vector<Table> sources;
};

BulkFixture MakeFixture(size_t n_sources) {
  BulkFixture out;
  out.lake = std::make_unique<DataLake>();
  const DictionaryPtr& dict = out.lake->dict();
  for (size_t s = 0; s < n_sources; ++s) {
    const std::string tag = "s" + std::to_string(s) + "_";
    TableBuilder sb(dict, "source" + std::to_string(s));
    sb.Columns({"k", "a", "b"});
    std::vector<std::vector<std::string>> rows;
    for (size_t r = 0; r < 10; ++r) {
      rows.push_back({tag + "k" + std::to_string(r),
                      tag + "a" + std::to_string(r),
                      tag + "b" + std::to_string(r)});
      sb.Row(rows.back());
    }
    out.sources.push_back(sb.Key({"k"}).Build());
    TableBuilder f1(dict, tag + "frag_a");
    f1.Columns({"k", "a"});
    for (const auto& row : rows) f1.Row({row[0], row[1]});
    (void)out.lake->AddTable(f1.Build());
    TableBuilder f2(dict, tag + "frag_b");
    f2.Columns({"k", "b"});
    for (const auto& row : rows) f2.Row({row[0], row[2]});
    (void)out.lake->AddTable(f2.Build());
  }
  return out;
}

// A one-shot service over `lake`: its dictionary, no discovery cache,
// `threads` pool workers.
std::unique_ptr<ReclaimService> OneShotService(const DataLake& lake,
                                               size_t threads) {
  ServiceOptions options;
  options.dict = lake.dict();
  options.cache_capacity = 0;
  options.num_threads = threads;
  auto service = std::make_unique<ReclaimService>(std::move(options));
  EXPECT_TRUE(service->AddLakeView("lake", lake).ok());
  return service;
}

TEST(ServiceBatchTest, EmptyInputs) {
  BulkFixture fx = MakeFixture(1);
  EXPECT_TRUE(OneShotService(*fx.lake, 2)->ReclaimBatch({}).empty());
}

TEST(ServiceBatchTest, KeylessSourceFailsItsSlotOnly) {
  BulkFixture fx = MakeFixture(3);
  Table keyless = TableBuilder(fx.lake->dict(), "keyless")
                      .Columns({"x"})
                      .Row({"1"})
                      .Build();
  std::vector<Table> sources;
  sources.push_back(fx.sources[0].Clone());
  sources.push_back(std::move(keyless));
  sources.push_back(fx.sources[2].Clone());
  auto results = OneShotService(*fx.lake, 2)->ReclaimBatch(sources);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
}

TEST(ServiceBatchTest, TpTrSmallSubsetUnderParallelism) {
  auto bench = MakeTpTrBenchmark("bulk", TpTrSmallConfig());
  ASSERT_TRUE(bench.ok());
  std::vector<Table> sources;
  for (size_t i = 0; i < 6 && i < bench->sources.size(); ++i) {
    sources.push_back(bench->sources[i].source.Clone());
  }
  ReclaimRequest request;
  request.timeout_seconds = 30;
  request.max_rows = 2'000'000;
  auto results =
      OneShotService(*bench->lake, 4)->ReclaimBatch(sources, request);
  size_t ok = 0;
  for (auto& result : results) ok += result.ok();
  EXPECT_GE(ok, 5u) << "parallel TP-TR reclamations failed";
}

// --- Batch determinism: bit-identical to serial GenT::Reclaim ---------------

TEST(ReclaimBatchTest, FourThreadsBitIdenticalToSerialLoop) {
  BulkFixture fx = MakeFixture(12);
  GenT gent(*fx.lake);

  // The reference: plain serial Reclaim calls in input order.
  std::vector<Result<ReclamationResult>> serial;
  for (const Table& source : fx.sources) {
    serial.push_back(gent.Reclaim(source));
  }

  auto batch = OneShotService(*fx.lake, 4)->ReclaimBatch(fx.sources);

  ASSERT_EQ(batch.size(), serial.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << i << ": " << batch[i].status().ToString();
    ASSERT_TRUE(serial[i].ok()) << "source " << i;
    EXPECT_DOUBLE_EQ(EisScore(fx.sources[i], batch[i]->reclaimed).value(), 1.0)
        << "source " << i;
    EXPECT_TRUE(TablesBitIdentical(batch[i]->reclaimed, serial[i]->reclaimed))
        << "source " << i;
    EXPECT_EQ(batch[i]->originating_names, serial[i]->originating_names);
    EXPECT_DOUBLE_EQ(batch[i]->predicted_eis, serial[i]->predicted_eis);
  }
}

TEST(ReclaimBatchTest, RepeatedParallelRunsAreBitIdentical) {
  // Sources generated through forked Rng substreams: each worker-ordering
  // of the batch must reproduce the same tables bit for bit.
  Rng rng(4242);
  BulkFixture fx;
  fx.lake = std::make_unique<DataLake>();
  const DictionaryPtr& dict = fx.lake->dict();
  for (size_t s = 0; s < 8; ++s) {
    Rng sub = rng.Fork();  // per-source substream
    const std::string tag = "r" + std::to_string(s) + "_";
    TableBuilder sb(dict, "source" + std::to_string(s));
    sb.Columns({"k", "a"});
    std::vector<std::vector<std::string>> rows;
    for (size_t r = 0; r < 8; ++r) {
      rows.push_back({tag + sub.AlphaNum(6), tag + sub.AlphaNum(6)});
      sb.Row(rows.back());
    }
    fx.sources.push_back(sb.Key({"k"}).Build());
    TableBuilder f(dict, tag + "frag");
    f.Columns({"k", "a"});
    for (const auto& row : rows) f.Row(row);
    (void)fx.lake->AddTable(f.Build());
  }
  auto service = OneShotService(*fx.lake, 4);
  auto first = service->ReclaimBatch(fx.sources);
  auto second = service->ReclaimBatch(fx.sources);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].ok()) << first[i].status().ToString();
    ASSERT_TRUE(second[i].ok());
    EXPECT_TRUE(TablesBitIdentical(first[i]->reclaimed, second[i]->reclaimed))
        << "source " << i;
  }
}

TEST(ReclaimBatchTest, ExcludeSourceNameLeavesOneOut) {
  BulkFixture fx = MakeFixture(2);
  // Register the sources themselves as lake tables (same names): without
  // leave-one-out each source would reclaim trivially from itself.
  for (const Table& source : fx.sources) {
    Table copy = source.Clone();
    (void)fx.lake->AddTable(std::move(copy));
  }
  ReclaimRequest request;
  request.exclude_source_name = true;
  auto results =
      OneShotService(*fx.lake, 2)->ReclaimBatch(fx.sources, request);
  ASSERT_EQ(results.size(), fx.sources.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    for (const auto& name : results[i]->originating_names) {
      EXPECT_NE(name, fx.sources[i].name()) << "source " << i;
    }
    // Fragments still reconstruct the source exactly.
    EXPECT_DOUBLE_EQ(
        EisScore(fx.sources[i], results[i]->reclaimed).value(), 1.0);
  }
}

TEST(ReclaimBatchTest, SharedCatalogAcrossGenTInstances) {
  BulkFixture fx = MakeFixture(3);
  auto catalog = std::make_shared<ColumnStatsCatalog>(*fx.lake);
  GenT a(catalog), b(catalog);
  for (size_t i = 0; i < fx.sources.size(); ++i) {
    auto ra = a.Reclaim(fx.sources[i]);
    auto rb = b.Reclaim(fx.sources[i]);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_TRUE(TablesBitIdentical(ra->reclaimed, rb->reclaimed));
  }
}

TEST(DictionaryConcurrencyTest, ParallelInternsAreConsistent) {
  auto dict = MakeDictionary();
  constexpr int kThreads = 8;
  constexpr int kValues = 2000;
  std::vector<std::vector<ValueId>> ids(kThreads,
                                        std::vector<ValueId>(kValues));
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (int v = 0; v < kValues; ++v) {
        // All threads intern the same value set concurrently.
        ids[t][v] = dict->Intern("value_" + std::to_string(v));
      }
    });
  }
  for (auto& t : pool) t.join();
  // Every thread must have received the same id for the same string.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t << " saw different ids";
  }
  // And lookups resolve to the same strings.
  for (int v = 0; v < kValues; ++v) {
    EXPECT_EQ(dict->StringOf(ids[0][v]), "value_" + std::to_string(v));
  }
}

TEST(DictionaryConcurrencyTest, MixedReadWriteUnderContention) {
  auto dict = MakeDictionary();
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  // Writers intern fresh values and create labeled nulls; readers hammer
  // StringOf/Lookup/IsLabeledNull on everything seen so far.
  std::thread writer([&]() {
    for (int i = 0; i < 5000; ++i) {
      dict->Intern("w" + std::to_string(i));
      if (i % 100 == 0) dict->CreateLabeledNull();
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      while (!stop) {
        const size_t n = dict->size();
        for (ValueId id = 0; id < n; id += 97) {
          const std::string& s = dict->StringOf(id);
          if (id != kNull && !dict->IsLabeledNull(id) &&
              dict->Lookup(s) != id) {
            ++errors;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace gent
