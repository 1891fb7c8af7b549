// Tests for binary lake snapshots (src/lake/snapshot), including
// corruption injection.

#include "src/lake/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/benchgen/tpch.h"
#include "src/gent/gent.h"
#include "src/ops/unary.h"
#include "src/storage/catalog_pager.h"
#include "src/storage/io.h"
#include "src/table/table_builder.h"

namespace gent {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("gent_snap_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~SnapshotTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static DataLake MakeLake() {
    DataLake lake;
    const DictionaryPtr& dict = lake.dict();
    (void)lake.AddTable(TableBuilder(dict, "people")
                            .Columns({"id", "name", "city"})
                            .Row({"1", "smith", "boston"})
                            .Row({"2", "brown", ""})
                            .Key({"id"})
                            .Build());
    (void)lake.AddTable(TableBuilder(dict, "empty")
                            .Columns({"a", "b"})
                            .Build());
    (void)lake.AddTable(TableBuilder(dict, "weird")
                            .Columns({"v"})
                            .Row({"comma,and\"quote"})
                            .Row({"3.10"})  // numeric canonicalization
                            .Build());
    return lake;
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveSnapshot(lake, Path("lake.snap")).ok());

  DataLake loaded;
  ASSERT_TRUE(LoadSnapshot(loaded, Path("lake.snap")).ok());
  ASSERT_EQ(loaded.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    const Table& a = lake.table(i);
    const Table& b = loaded.table(i);
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.column_names(), b.column_names());
    EXPECT_EQ(a.key_columns(), b.key_columns());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.num_cols(); ++c) {
        EXPECT_EQ(a.CellString(r, c), b.CellString(r, c))
            << a.name() << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST_F(SnapshotTest, LoadIntoNonEmptyLakeRemapsIds) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveSnapshot(lake, Path("lake.snap")).ok());

  // Target lake already has values interned in a different order, so
  // the saved ids cannot be reused verbatim — remap must kick in.
  DataLake target;
  (void)target.AddTable(TableBuilder(target.dict(), "pre")
                            .Columns({"x"})
                            .Row({"boston"})
                            .Row({"zzz"})
                            .Build());
  ASSERT_TRUE(LoadSnapshot(target, Path("lake.snap")).ok());
  ASSERT_EQ(target.size(), 4u);
  auto idx = target.IndexOf("people");
  ASSERT_TRUE(idx.ok());
  const Table& people = target.table(*idx);
  EXPECT_EQ(people.CellString(0, 2), "boston");
  // The same string must intern to one id across old and new tables.
  EXPECT_EQ(people.cell(0, 2), target.table(0).cell(0, 0));
}

TEST_F(SnapshotTest, RoundTripTpchScale) {
  DataLake lake;
  for (Table& t : GenerateTpch(lake.dict(), TpchConfig{.scale = 0.5})) {
    ASSERT_TRUE(lake.AddTable(std::move(t)).ok());
  }
  ASSERT_TRUE(SaveSnapshot(lake, Path("tpch.snap")).ok());
  DataLake loaded;
  ASSERT_TRUE(LoadSnapshot(loaded, Path("tpch.snap")).ok());
  ASSERT_EQ(loaded.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    EXPECT_EQ(RowsOf(lake.table(i)), RowsOf(loaded.table(i)))
        << lake.table(i).name();
  }
}

TEST_F(SnapshotTest, MissingFileFails) {
  DataLake lake;
  Status s = LoadSnapshot(lake, Path("nope.snap"));
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST_F(SnapshotTest, BadMagicRejected) {
  std::ofstream out(Path("bad.snap"), std::ios::binary);
  out << "NOTASNAPxxxxxxxxxxxxxxxx";
  out.close();
  DataLake lake;
  Status s = LoadSnapshot(lake, Path("bad.snap"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, TruncationAtEveryPrefixFailsCleanly) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveSnapshot(lake, Path("lake.snap")).ok());
  std::ifstream in(Path("lake.snap"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 32u);
  // Cut the file at a spread of prefixes; every load must fail with a
  // typed error and never crash. (Skipping prefix 0: an empty file fails
  // at the magic check, also typed.)
  for (size_t cut = 1; cut < bytes.size(); cut += 7) {
    const std::string path = Path("cut.snap");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    DataLake fresh;
    Status s = LoadSnapshot(fresh, path);
    EXPECT_FALSE(s.ok()) << "cut at " << cut << " unexpectedly loaded";
  }
}

TEST_F(SnapshotTest, FutureVersionRejected) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveSnapshot(lake, Path("lake.snap")).ok());
  // Bump the version field (bytes 8..11) to 99.
  std::fstream f(Path("lake.snap"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);
  uint32_t version = 99;
  f.write(reinterpret_cast<const char*>(&version), sizeof version);
  f.close();
  DataLake fresh;
  Status s = LoadSnapshot(fresh, Path("lake.snap"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST_F(SnapshotTest, NameCollisionRejected) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveSnapshot(lake, Path("lake.snap")).ok());
  DataLake target;
  (void)target.AddTable(TableBuilder(target.dict(), "people")
                            .Columns({"x"})
                            .Row({"1"})
                            .Build());
  Status s = LoadSnapshot(target, Path("lake.snap"));
  EXPECT_FALSE(s.ok());
}

TEST_F(SnapshotTest, LabeledNullsRefuseToSerialize) {
  DataLake lake = MakeLake();
  (void)lake.dict()->CreateLabeledNull();
  Status s = SaveSnapshot(lake, Path("lake.snap"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// --- Snapshot v2 (catalog-carrying, src/storage) -----------------------------

// Saves `lake` as a v2 snapshot, building the catalog the same way the
// engine does.
std::string SaveV2(const DataLake& lake, const std::string& path) {
  GenT gent(lake);
  Status s = SaveSnapshotV2(lake, gent.catalog().section_views(), path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return path;
}

TEST_F(SnapshotTest, V2RoundTripLoadsTablesAndReportsIdentity) {
  DataLake lake = MakeLake();
  SaveV2(lake, Path("lake.snap2"));
  DataLake loaded;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(loaded, Path("lake.snap2"), &info).ok());
  EXPECT_EQ(info.version, 2u);
  // A fresh dictionary re-interns the saved dictionary in id order, so
  // the remap is the identity — the condition for mapped opens.
  EXPECT_TRUE(info.identity_remap);
  ASSERT_EQ(loaded.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    const Table& a = lake.table(i);
    const Table& b = loaded.table(i);
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.num_cols(); ++c) {
        EXPECT_EQ(a.CellString(r, c), b.CellString(r, c));
      }
    }
  }
}

TEST_F(SnapshotTest, V2LoadIntoPreInternedDictClearsIdentityFlag) {
  DataLake lake = MakeLake();
  SaveV2(lake, Path("lake.snap2"));
  DataLake target;
  // Interning anything first shifts ids, so the remap cannot be the
  // identity and a mapped open would be wrong — the flag must say so.
  (void)target.AddTable(TableBuilder(target.dict(), "pre")
                            .Columns({"x"})
                            .Row({"zzz"})
                            .Build());
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(target, Path("lake.snap2"), &info).ok());
  EXPECT_EQ(info.version, 2u);
  EXPECT_FALSE(info.identity_remap);
}

TEST_F(SnapshotTest, V2TruncationFailsCleanlyAtStrategicCuts) {
  DataLake lake = MakeLake();
  SaveV2(lake, Path("lake.snap2"));
  std::ifstream in(Path("lake.snap2"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const size_t n = bytes.size();
  ASSERT_GT(n, storage::kFooterBytes + storage::kBlockSize);
  // Cuts inside the body, at the section region, inside the footer, and
  // one byte short of complete. Every one must fail typed, never crash,
  // and register nothing.
  std::vector<size_t> cuts = {1,
                              50,
                              storage::kBlockSize - 1,
                              storage::kBlockSize + 17,
                              n / 2,
                              n - storage::kFooterBytes - 1,
                              n - storage::kFooterBytes + 5,
                              n - 9,
                              n - 1};
  for (size_t cut : cuts) {
    ASSERT_LT(cut, n);
    const std::string path = Path("cut.snap2");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    DataLake fresh;
    Status s = LoadSnapshot(fresh, path);
    EXPECT_FALSE(s.ok()) << "cut at " << cut << " unexpectedly loaded";
    EXPECT_EQ(fresh.size(), 0u) << "cut at " << cut;
  }
}

TEST_F(SnapshotTest, V2CorruptedSectionChecksumRejected) {
  DataLake lake = MakeLake();
  SaveV2(lake, Path("lake.snap2"));
  const auto n = std::filesystem::file_size(Path("lake.snap2"));
  // Flip a byte inside the catalog region (after the first block, well
  // clear of the footer).
  std::fstream f(Path("lake.snap2"),
                 std::ios::binary | std::ios::in | std::ios::out);
  const std::streamoff pos = storage::kBlockSize + 64;
  ASSERT_LT(static_cast<uint64_t>(pos), n - storage::kFooterBytes);
  f.seekg(pos);
  char b;
  f.get(b);
  b ^= 0x08;
  f.seekp(pos);
  f.put(b);
  f.close();
  DataLake fresh;
  Status s = LoadSnapshot(fresh, Path("lake.snap2"));
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(fresh.size(), 0u);
}

TEST_F(SnapshotTest, V1FileRefusesMappedOpen) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveSnapshot(lake, Path("lake.snap")).ok());
  // A v1 snapshot has no catalog tail; treating it as v2 must be a
  // typed refusal, not garbage views.
  auto mapped = storage::MappedCatalog::Open(Path("lake.snap"), {});
  EXPECT_FALSE(mapped.ok());
}

TEST_F(SnapshotTest, V2FutureVersionRejected) {
  DataLake lake = MakeLake();
  SaveV2(lake, Path("lake.snap2"));
  std::fstream f(Path("lake.snap2"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);
  uint32_t version = 7;
  f.write(reinterpret_cast<const char*>(&version), sizeof version);
  f.close();
  DataLake fresh;
  Status s = LoadSnapshot(fresh, Path("lake.snap2"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST_F(SnapshotTest, CollisionLeavesTargetCompletelyUntouched) {
  // All-or-nothing: a collision on ANY snapshot table must register
  // NONE of them, for both formats.
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveSnapshot(lake, Path("lake.snap")).ok());
  SaveV2(lake, Path("lake.snap2"));
  for (const char* snap : {"lake.snap", "lake.snap2"}) {
    DataLake target;
    // Collides with "weird" — the LAST table in the snapshot, so a
    // non-atomic loader would have registered "people" and "empty"
    // before noticing.
    (void)target.AddTable(TableBuilder(target.dict(), "weird")
                              .Columns({"q"})
                              .Row({"1"})
                              .Build());
    Status s = LoadSnapshot(target, Path(snap));
    EXPECT_EQ(s.code(), StatusCode::kAlreadyExists) << snap;
    ASSERT_EQ(target.size(), 1u) << snap;
    EXPECT_EQ(target.table(0).name(), "weird");
    EXPECT_EQ(target.table(0).CellString(0, 0), "1");
  }
}

TEST_F(SnapshotTest, V2FullDiskSurfacesTypedError) {
  // Injected ENOSPC at the durability flush — the classic full-disk
  // shape, where every fwrite "succeeded" and the failure surfaces only
  // when the bytes drain. SaveSnapshotV2 must report it, never claim
  // success, and the crash-atomic commit must leave no file behind:
  // neither the destination nor the staging temp.
  DataLake lake = MakeLake();
  GenT gent(lake);
  const std::string path = Path("v2_enospc.snap");
  io::FaultInjector injector;
  io::FaultPlan plan;
  plan.op_mask = io::OpBit(io::Op::kFlush);
  plan.kind = io::FaultKind::kErrno;
  plan.error_code = ENOSPC;
  injector.Arm(plan);
  {
    io::ScopedFaultInjector scope(&injector);
    Status s = SaveSnapshotV2(lake, gent.catalog().section_views(), path);
    EXPECT_EQ(s.code(), StatusCode::kIOError);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." +
                                       std::to_string(::getpid())));
}

// --- Untrusted length fields ---------------------------------------------------
//
// A length field is checked against the bytes left in the file before it
// sizes an allocation or a loop, so a corrupt one fails with IOError
// instead of throwing std::bad_alloc out of the library.

// Offsets of the length fields in a v1 snapshot of a one-table lake, from
// the body layout: magic (8), version (4), dictionary size (8) and entries
// (4-byte length + bytes; id 0 is the empty string), table count (8), then
// the table's name, column count and names, key count, keys, row count.
struct LengthFields {
  size_t dict_size = 12;
  size_t table_name = 0;
  size_t key_count = 0;
  size_t rows = 0;
};

LengthFields SaveOneTable(const std::string& path) {
  DataLake lake;
  (void)lake.AddTable(
      TableBuilder(lake.dict(), "t").Columns({"k"}).Row({"1"}).Key({"k"}).Build());
  EXPECT_TRUE(SaveSnapshot(lake, path).ok());
  LengthFields f;
  size_t off = f.dict_size + 8;
  for (ValueId id = 1; id < lake.dict()->size(); ++id) {
    off += 4 + lake.dict()->StringOf(id).size();
  }
  off += 4;                    // id 0
  f.table_name = off + 8;      // after the table count
  off += 8 + 5 + 4 + 5;        // table count, "t", column count, "k"
  f.key_count = off;
  f.rows = off + 4 + 4;        // key count, one key
  return f;
}

// Checks that the field at `offset` holds `expected` (so the offsets
// above track the format), overwrites it with `value`, and loads.
template <typename T>
Status LoadWithField(const std::string& path, size_t offset, T expected,
                     T value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  T old{};
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(reinterpret_cast<char*>(&old), sizeof old);
  EXPECT_EQ(old, expected) << "field offset drifted from the format";
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof value);
  f.close();
  DataLake fresh;
  return LoadSnapshot(fresh, path);
}

TEST_F(SnapshotTest, CorruptDictionarySizeFailsWithIOError) {
  const std::string path = Path("dict.snap");
  const LengthFields f = SaveOneTable(path);
  Status s = LoadWithField<uint64_t>(path, f.dict_size, 2, uint64_t{1} << 40);
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
}

TEST_F(SnapshotTest, CorruptKeyCountFailsWithIOError) {
  const std::string path = Path("keys.snap");
  const LengthFields f = SaveOneTable(path);
  Status s = LoadWithField<uint32_t>(path, f.key_count, 1, 0xFFFFFFFFu);
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
}

// A string length under the 16 MiB per-string cap but past the end of
// the file fails before the string is allocated.
TEST_F(SnapshotTest, CorruptStringLengthFailsWithIOError) {
  const std::string path = Path("name.snap");
  const LengthFields f = SaveOneTable(path);
  Status s = LoadWithField<uint32_t>(path, f.table_name, 1, (1u << 24) - 1);
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
}

TEST_F(SnapshotTest, CorruptRowCountFailsWithIOError) {
  const std::string path = Path("rows.snap");
  const LengthFields f = SaveOneTable(path);
  Status s = LoadWithField<uint64_t>(path, f.rows, 1, uint64_t{1} << 40);
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
}

}  // namespace
}  // namespace gent
