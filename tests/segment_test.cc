// Segment file robustness tests (relational/segment.h): roundtrip
// property (random databases pack -> mmap -> bitwise-equal scans),
// typed-Status rejection of corrupt files (truncation, bad magic, bad
// version, checksum mismatch, arity-0), many concurrent readers over
// one SegmentView, and the open-time floor.
#include "relational/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "relational/database_io.h"
#include "relational/relation.h"
#include "relational/structure.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace cqcount {
namespace {

class SegmentTest : public ::testing::Test {
 protected:
  // A fresh path per test under the build tree's temp dir; removed on
  // teardown so reruns start clean.
  std::string TempPath(const std::string& tag) {
    std::string path = ::testing::TempDir() + "cqseg_" + tag + "_" +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name() +
                       ".seg";
    paths_.push_back(path);
    return path;
  }
  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }
  std::vector<std::string> paths_;
};

Database SmallDatabase() {
  Database db(50);
  (void)db.DeclareRelation("E", 2);
  (void)db.DeclareRelation("L", 1);
  for (Value a = 0; a < 20; ++a) {
    (void)db.AddFact("E", {a, (a * 7 + 3) % 50});
    (void)db.AddFact("E", {a, (a * 13 + 1) % 50});
  }
  for (Value v = 0; v < 50; v += 3) (void)db.AddFact("L", {v});
  db.Canonicalize();
  return db;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(SegmentTest, RoundTripPreservesEveryRelationBitwise) {
  const std::string path = TempPath("roundtrip");
  Database db = SmallDatabase();
  ASSERT_TRUE(WriteSegmentDatabase(db, path).ok());

  auto mapped = OpenSegmentDatabase(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->universe_size(), db.universe_size());
  ASSERT_EQ(mapped->RelationNames(), db.RelationNames());
  for (const std::string& name : db.RelationNames()) {
    const Relation& want = db.relation(name);
    const Relation& got = mapped->relation(name);
    EXPECT_TRUE(got.is_mapped());
    EXPECT_EQ(got.arity(), want.arity());
    ASSERT_EQ(got.size(), want.size());
    // Bitwise scan equality via the flat span, plus accessor agreement.
    EXPECT_TRUE(got.flat() == want.flat());
    EXPECT_EQ(got, want);
  }
}

TEST_F(SegmentTest, RoundTripPropertyOnRandomDatabases) {
  Rng rng(20260808);
  for (int trial = 0; trial < 12; ++trial) {
    const std::string path = TempPath("prop" + std::to_string(trial));
    Query q = testing_util::RandomQuery(rng);
    const uint32_t universe = 4 + static_cast<uint32_t>(rng.UniformInt(20));
    Database db =
        testing_util::RandomDatabaseFor(q, universe, 0.3, rng);
    ASSERT_TRUE(WriteSegmentDatabase(db, path).ok());

    auto mapped = OpenSegmentDatabase(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_EQ(mapped->RelationNames(), db.RelationNames());
    for (const std::string& name : db.RelationNames()) {
      const Relation& want = db.relation(name);
      const Relation& got = mapped->relation(name);
      ASSERT_EQ(got.size(), want.size()) << name;
      EXPECT_EQ(got, want) << name;
      // Random point probes agree between backends.
      for (int probe = 0; probe < 16 && want.size() > 0; ++probe) {
        Tuple t(want.arity());
        if (rng.Bernoulli(0.5)) {
          const size_t row = rng.UniformInt(want.size());
          for (int c = 0; c < want.arity(); ++c) t[c] = want[row][c];
        } else {
          for (int c = 0; c < want.arity(); ++c) {
            t[c] = static_cast<Value>(rng.UniformInt(universe));
          }
        }
        EXPECT_EQ(got.Contains(t), want.Contains(t)) << name;
      }
    }
  }
}

TEST_F(SegmentTest, FullChecksumVerificationPassesOnCleanFile) {
  const std::string path = TempPath("audit");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  SegmentOpenOptions audit;
  audit.verify_data_checksum = true;
  EXPECT_TRUE(OpenSegmentDatabase(path, audit).ok());
}

TEST_F(SegmentTest, RejectsMissingFile) {
  auto view = SegmentView::Open(TempPath("missing"));
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kNotFound);
}

TEST_F(SegmentTest, RejectsTruncatedFile) {
  const std::string path = TempPath("trunc");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  // Chop at several depths: inside the trailer, inside the directory,
  // inside the header.
  for (size_t keep : {bytes.size() - 8, bytes.size() / 2, size_t{48},
                      size_t{10}, size_t{0}}) {
    std::vector<char> cut(bytes.begin(), bytes.begin() + keep);
    WriteAll(path, cut);
    auto view = SegmentView::Open(path);
    ASSERT_FALSE(view.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument)
        << "kept " << keep << " bytes";
  }
}

TEST_F(SegmentTest, RejectsBadMagic) {
  const std::string path = TempPath("magic");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  bytes[0] = 'X';
  WriteAll(path, bytes);
  auto view = SegmentView::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
  // The auto-loader then treats it as text and fails in the parser, but
  // never crashes.
  EXPECT_FALSE(LooksLikeSegmentFile(path));
  EXPECT_FALSE(LoadDatabaseAuto(path).ok());
}

TEST_F(SegmentTest, RejectsBadVersion) {
  const std::string path = TempPath("version");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  bytes[8] = 99;  // version field follows the 8-byte magic.
  WriteAll(path, bytes);
  auto view = SegmentView::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, RejectsDirectoryCorruption) {
  const std::string path = TempPath("dircorrupt");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  // Flip one byte of the first directory entry's name; the directory
  // checksum must catch it even though open never reads the data blocks.
  const size_t dir_guess = bytes.size() - 32 - 2 * 64;
  bytes[dir_guess] ^= 0x5A;
  WriteAll(path, bytes);
  auto view = SegmentView::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, ZoneCorruptionRejectedAtPlainOpen) {
  // The O(1) open certifies every value against the universe from the
  // zone maxima alone, so zone blocks must be covered by an
  // always-verified checksum: a corrupt zone that understates the data
  // (here: zeroed, so any out-of-universe value would "pass") has to be
  // rejected WITHOUT the opt-in full data audit.
  const std::string path = TempPath("zonecorrupt");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  // Locate the first relation's zone block via its directory entry
  // (directory = 2 entries of 64 B just before the 32 B trailer;
  // zone_offset is the u64 at byte 56 of an entry).
  const size_t dir = bytes.size() - 32 - 2 * 64;
  uint64_t zone_offset = 0;
  std::memcpy(&zone_offset, bytes.data() + dir + 56, sizeof(zone_offset));
  ASSERT_LT(zone_offset + 8, bytes.size());
  // Zero the first column's MAX (bytes 4..7 of the zone block; its min
  // at bytes 0..3 is already 0) — the certification-relevant bound.
  for (int b = 4; b < 8; ++b) bytes[zone_offset + b] = 0;
  WriteAll(path, bytes);
  auto view = SegmentView::Open(path);  // Plain open, no data audit.
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, DataCorruptionCaughtOnlyByFullAudit) {
  const std::string path = TempPath("datacorrupt");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  // Flip a value byte inside the first (page-aligned) data block without
  // breaking the relation's sort order: bump the low byte of a value.
  bytes[4096 + 1] ^= 0x01;
  WriteAll(path, bytes);
  // O(1) open does not read data blocks, so it succeeds...
  EXPECT_TRUE(SegmentView::Open(path).ok());
  // ...but the opt-in full audit flags the mismatch.
  SegmentOpenOptions audit;
  audit.verify_data_checksum = true;
  auto audited = SegmentView::Open(path, audit);
  ASSERT_FALSE(audited.ok());
  EXPECT_EQ(audited.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, RejectsArityZeroRelations) {
  const std::string path = TempPath("arity0");
  auto writer = SegmentWriter::Create(path, 10);
  ASSERT_TRUE(writer.ok());
  Status s = (*writer)->BeginRelation("G", 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // A database holding a nullary guard relation is therefore unpackable.
  Database db(10);
  (void)db.DeclareRelation("guard", 0);
  (void)db.AddFact("guard", {});
  db.Canonicalize();
  Status packed = WriteSegmentDatabase(db, path);
  ASSERT_FALSE(packed.ok());
  EXPECT_EQ(packed.code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, WriterEnforcesNameAndOrderInvariants) {
  const std::string path = TempPath("invariants");
  auto writer = SegmentWriter::Create(path, 100);
  ASSERT_TRUE(writer.ok());
  // Over-long names are rejected.
  EXPECT_EQ((*writer)
                ->BeginRelation(std::string(kSegmentMaxNameLen + 1, 'n'), 1)
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*writer)->BeginRelation("R", 2).ok());
  const Value row1[] = {3, 4};
  ASSERT_TRUE((*writer)->AppendRow(row1).ok());
  // Out-of-order and duplicate rows are rejected.
  const Value row_dup[] = {3, 4};
  EXPECT_EQ((*writer)->AppendRow(row_dup).code(),
            StatusCode::kInvalidArgument);
  const Value row_less[] = {2, 9};
  EXPECT_EQ((*writer)->AppendRow(row_less).code(),
            StatusCode::kInvalidArgument);
  // Values at/above the universe are rejected.
  const Value row_big[] = {3, 100};
  EXPECT_EQ((*writer)->AppendRow(row_big).code(),
            StatusCode::kInvalidArgument);
  // Duplicate relation names are rejected.
  ASSERT_TRUE((*writer)->EndRelation().ok());
  EXPECT_EQ((*writer)->BeginRelation("R", 1).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, ManyConcurrentReadersOverOneView) {
  const std::string path = TempPath("concurrent");
  Database db = SmallDatabase();
  ASSERT_TRUE(WriteSegmentDatabase(db, path).ok());
  auto mapped = OpenSegmentDatabase(path);
  ASSERT_TRUE(mapped.ok());
  const Relation& shared = mapped->relation("E");
  const Relation& truth = db.relation("E");

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int iter = 0; iter < 2000; ++iter) {
        const Value key = static_cast<Value>(rng.UniformInt(50));
        const auto got = shared.NarrowRange(0, shared.size(), 0, key);
        const auto want = truth.NarrowRange(0, truth.size(), 0, key);
        if (got != want) mismatches.fetch_add(1);
        Tuple probe = {key, static_cast<Value>(rng.UniformInt(50))};
        if (shared.Contains(probe) != truth.Contains(probe)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(SegmentTest, ViewReportsMappingDiagnostics) {
  const std::string path = TempPath("diag");
  ASSERT_TRUE(WriteSegmentDatabase(SmallDatabase(), path).ok());
  auto view = SegmentView::Open(path);
  ASSERT_TRUE(view.ok());
  EXPECT_GT((*view)->mapped_bytes(), 0u);
  auto resident = (*view)->ResidentPages();
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  // The header/directory/trailer walk at open touches at least one page.
  EXPECT_GE(*resident, 1u);
}

// A plain open reads the header, directory and zone blocks but no data
// page, so it stays far below the cost of reading the data: at 2x10^5
// rows an open that also verifies the data checksum takes milliseconds.
TEST_F(SegmentTest, PlainOpenStaysUnderOneMillisecond) {
  constexpr uint64_t kRows = 200000;
  constexpr uint32_t kSplit = 1000;
  const std::string path = TempPath("open_floor");
  {
    auto writer = SegmentWriter::Create(path, kSplit);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->BeginRelation("E", 2).ok());
    for (uint64_t i = 0; i < kRows; ++i) {
      const Value row[2] = {static_cast<Value>(i / kSplit),
                            static_cast<Value>(i % kSplit)};
      ASSERT_TRUE((*writer)->AppendRow(row).ok());
    }
    ASSERT_TRUE((*writer)->EndRelation().ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  double best_us = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    auto view = SegmentView::Open(path);
    const auto stop = std::chrono::steady_clock::now();
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    best_us = std::min(
        best_us,
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  EXPECT_LT(best_us, 1000.0);
}

}  // namespace
}  // namespace cqcount
