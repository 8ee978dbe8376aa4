#include "storage/file_page_store.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "geom/aabb.h"
#include "gtest/gtest.h"
#include "index/rtree.h"
#include "storage/fault_model.h"
#include "testing/test_util.h"

namespace scout {
namespace {

/// Exact bit equality for doubles — the round-trip contract is stronger
/// than value equality (it must survive NaN payloads and -0.0 too).
bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectObjectBitIdentical(const SpatialObject& got,
                              const SpatialObject& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.structure_id, want.structure_id);
  EXPECT_EQ(got.path_index, want.path_index);
  EXPECT_TRUE(BitEq(got.geom.p0().x, want.geom.p0().x));
  EXPECT_TRUE(BitEq(got.geom.p0().y, want.geom.p0().y));
  EXPECT_TRUE(BitEq(got.geom.p0().z, want.geom.p0().z));
  EXPECT_TRUE(BitEq(got.geom.p1().x, want.geom.p1().x));
  EXPECT_TRUE(BitEq(got.geom.p1().y, want.geom.p1().y));
  EXPECT_TRUE(BitEq(got.geom.p1().z, want.geom.p1().z));
  EXPECT_TRUE(BitEq(got.geom.r0(), want.geom.r0()));
  EXPECT_TRUE(BitEq(got.geom.r1(), want.geom.r1()));
}

class FilePageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto objects = testing::MakeFiber(Vec3(5, 50, 50), Vec3(1, 0, 0), 150,
                                      2.0, 0, 0, 41);
    auto clutter = testing::MakeRandomObjects(
        400, Aabb(Vec3(0, 0, 0), Vec3(320, 100, 100)), 42);
    for (auto& obj : clutter) {
      obj.id += 10000;
      objects.push_back(obj);
    }
    auto built = RTreeIndex::Build(objects);
    ASSERT_TRUE(built.ok()) << built.status().message();
    index_ = std::move(built).value();
    path_ = ::testing::TempDir() + "scout_fps_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".pages";
    const Status st = FilePageStore::WriteFile(index_->store(), path_);
    ASSERT_TRUE(st.ok()) << st.message();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<FilePageStore> OpenOrDie() {
    auto opened = FilePageStore::Open(path_);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    return std::move(opened).value();
  }

  std::unique_ptr<RTreeIndex> index_;
  std::string path_;
};

TEST_F(FilePageStoreTest, HeaderCountsMatchSourceStore) {
  auto store = OpenOrDie();
  EXPECT_EQ(store->NumPages(), index_->store().NumPages());
  EXPECT_EQ(store->NumObjects(), index_->store().NumObjects());
  EXPECT_GT(store->NumPages(), 1u);
}

TEST_F(FilePageStoreTest, RoundTripIsBitIdentical) {
  auto store = OpenOrDie();
  const PageStore& mem = index_->store();
  for (PageId id = 0; id < store->NumPages(); ++id) {
    Page page;
    const Status st = store->ReadPage(id, &page);
    ASSERT_TRUE(st.ok()) << st.message();
    const Page& want = mem.pages()[id];
    EXPECT_EQ(page.id, want.id);
    ASSERT_EQ(page.objects.size(), want.objects.size());
    for (size_t i = 0; i < page.objects.size(); ++i) {
      ExpectObjectBitIdentical(page.objects[i], want.objects[i]);
    }
    // Bounds are recomputed from bit-identical objects, so they must be
    // bit-identical too.
    EXPECT_TRUE(BitEq(page.bounds.min().x, want.bounds.min().x));
    EXPECT_TRUE(BitEq(page.bounds.max().z, want.bounds.max().z));
  }
  EXPECT_EQ(store->reads(), store->NumPages());
  EXPECT_EQ(store->failed_reads(), 0u);
}

TEST_F(FilePageStoreTest, OutOfRangePageIdIsRejected) {
  auto store = OpenOrDie();
  Page page;
  const Status st = store->ReadPage(store->NumPages(), &page);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST_F(FilePageStoreTest, MissingFileFailsToOpen) {
  auto opened = FilePageStore::Open(path_ + ".does-not-exist");
  EXPECT_FALSE(opened.ok());
}

TEST_F(FilePageStoreTest, BadMagicIsRejected) {
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const char garbage[8] = {'N', 'O', 'T', 'S', 'C', 'O', 'U', 'T'};
    f.write(garbage, sizeof(garbage));
  }
  auto opened = FilePageStore::Open(path_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FilePageStoreTest, WrongVersionIsRejected) {
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(8);
    const uint32_t bad_version = FilePageStore::kFormatVersion + 1;
    f.write(reinterpret_cast<const char*>(&bad_version), sizeof(bad_version));
  }
  auto opened = FilePageStore::Open(path_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FilePageStoreTest, FetchLogRecordsIssueOrder) {
  auto store = OpenOrDie();
  store->EnableFetchLog();
  Page page;
  const std::vector<PageId> order = {2, 0, 1, 0};
  for (PageId id : order) {
    ASSERT_TRUE(store->ReadPage(id, &page).ok());
  }
  EXPECT_EQ(store->FetchLog(), order);
}

// Fault storm: the schedule draws over the store's own op counter, so a
// fresh Open replays the exact same ok/fail pattern — the determinism
// the engine-level soak and the degraded-mode tests build on.
TEST_F(FilePageStoreTest, FaultStormIsDeterministicAcrossFreshOpens) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.read_failure_prob = 0.3;
  cfg.read_failure_burst_us = 1000;
  const FaultSchedule faults(cfg);
  ASSERT_TRUE(faults.Armed());

  auto sweep = [&](FilePageStore* store) {
    std::vector<bool> pattern;
    Page page;
    for (int round = 0; round < 3; ++round) {
      for (PageId id = 0; id < store->NumPages(); ++id) {
        const Status st = store->ReadPage(id, &page);
        if (!st.ok()) {
          EXPECT_EQ(st.code(), StatusCode::kUnavailable);
        }
        pattern.push_back(st.ok());
      }
    }
    return pattern;
  };

  auto a = OpenOrDie();
  a->AttachFaults(&faults);
  const std::vector<bool> first = sweep(a.get());

  auto b = OpenOrDie();
  b->AttachFaults(&faults);
  const std::vector<bool> second = sweep(b.get());

  EXPECT_EQ(first, second);
  EXPECT_EQ(a->failed_reads(), b->failed_reads());
  EXPECT_GT(a->failed_reads(), 0u);
  EXPECT_GT(a->reads(), a->failed_reads());  // Some reads still succeed.
}

}  // namespace
}  // namespace scout
