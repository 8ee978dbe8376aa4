// Lifecycle tests of the async prefetch pipeline's two lanes: FIFO
// issue order within each lane, urgent pages before every plan page,
// pages the executor takes are never read by the worker, bounded
// enqueue, a Stop that drains both lanes, and a destructor that joins
// the worker. Nothing here asserts on time: wherever an outcome could
// depend on scheduling, the lanes are filled before the worker starts.
#include "prefetch/async_pipeline.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "geom/aabb.h"
#include "gtest/gtest.h"
#include "index/rtree.h"
#include "testing/test_util.h"

namespace scout {
namespace {

using Stage = AsyncPrefetchPipeline::Stage;

class AsyncPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto built = RTreeIndex::Build(testing::MakeRandomObjects(
        1000, Aabb(Vec3(0, 0, 0), Vec3(100, 100, 100)), 7));
    ASSERT_TRUE(built.ok()) << built.status().message();
    path_ = ::testing::TempDir() + "scout_pipeline_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".pages";
    const Status st = FilePageStore::WriteFile(built.value()->store(), path_);
    ASSERT_TRUE(st.ok()) << st.message();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Opens the page file with a fetch log and `latency_us` per read.
  std::unique_ptr<FilePageStore> OpenStore(int64_t latency_us = 0) {
    FilePageStoreOptions options;
    options.device_latency_us = latency_us;
    auto opened = FilePageStore::Open(path_, options);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    std::unique_ptr<FilePageStore> store = std::move(opened).value();
    EXPECT_GE(store->NumPages(), 8u);
    store->EnableFetchLog();
    return store;
  }

  static AsyncPrefetchPipeline::Options MaxInFlight(size_t n) {
    AsyncPrefetchPipeline::Options options;
    options.max_in_flight = n;
    return options;
  }

  /// Pops every ready completion; each must hold its page's bytes.
  /// Appends to `urgent` whether each came from the urgent lane.
  static std::vector<PageId> DrainAll(AsyncPrefetchPipeline* pipeline,
                                      std::vector<bool>* urgent = nullptr) {
    std::vector<PageId> pages;
    AsyncFetchResult r;
    while (pipeline->TryDrainOne(&r)) {
      EXPECT_TRUE(r.status.ok()) << r.status.message();
      EXPECT_EQ(r.data.id, r.page);
      pages.push_back(r.page);
      if (urgent != nullptr) urgent->push_back(r.urgent);
    }
    return pages;
  }

  std::string path_;
};

TEST_F(AsyncPipelineTest, WorkerIssuesQueuedPagesInFifoOrder) {
  auto store = OpenStore();
  AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(64));
  const std::vector<PageId> plan = {5, 2, 7, 0, 3};
  for (PageId p : plan) ASSERT_TRUE(pipeline.TryEnqueue(p));
  pipeline.Start();
  pipeline.Stop();

  EXPECT_EQ(pipeline.IssueLog(), plan);
  EXPECT_EQ(store->FetchLog(), plan);
  EXPECT_EQ(DrainAll(&pipeline), plan);
}

TEST_F(AsyncPipelineTest, UrgentPagesAreIssuedBeforeEveryPlanPage) {
  auto store = OpenStore();
  AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(64));
  for (PageId p : {5, 2, 7}) ASSERT_TRUE(pipeline.TryEnqueue(p));
  for (PageId p : {6, 0, 3}) pipeline.PushUrgent(p);
  pipeline.Start();
  pipeline.Stop();

  // Each lane in FIFO order, the urgent lane first; only plan-lane
  // pages enter the issue log.
  const std::vector<PageId> issued = {6, 0, 3, 5, 2, 7};
  EXPECT_EQ(store->FetchLog(), issued);
  EXPECT_EQ(pipeline.IssueLog(), (std::vector<PageId>{5, 2, 7}));
  std::vector<bool> urgent;
  EXPECT_EQ(DrainAll(&pipeline, &urgent), issued);
  EXPECT_EQ(urgent,
            (std::vector<bool>{true, true, true, false, false, false}));
  EXPECT_EQ(pipeline.WorkerUrgentReads(), 3u);
}

TEST_F(AsyncPipelineTest, PlanPageMovedToTheUrgentLaneIsReadOnce) {
  auto store = OpenStore();
  AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(64));
  for (PageId p : {1, 2, 3, 4}) ASSERT_TRUE(pipeline.TryEnqueue(p));
  ASSERT_EQ(pipeline.TakeQueued(3), Stage::kTaken);
  pipeline.PushUrgent(3);
  // On the urgent lane the page is still coming, but no longer takeable
  // from the plan lane.
  EXPECT_EQ(pipeline.TakeQueued(3), Stage::kInFlight);
  pipeline.Start();
  pipeline.Stop();

  EXPECT_EQ(store->FetchLog(), (std::vector<PageId>{3, 1, 2, 4}));
  EXPECT_EQ(store->reads(), 4u);
  EXPECT_EQ(pipeline.IssueLog(), (std::vector<PageId>{1, 2, 4}));
  EXPECT_EQ(DrainAll(&pipeline), (std::vector<PageId>{3, 1, 2, 4}));
}

TEST_F(AsyncPipelineTest, ExecutorTakesUrgentPagesInFifoOrder) {
  auto store = OpenStore();
  AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(64));
  ASSERT_TRUE(pipeline.TryEnqueue(1));
  for (PageId p : {6, 2}) pipeline.PushUrgent(p);
  PageId page = kInvalidPageId;
  ASSERT_TRUE(pipeline.TakeUrgent(&page));
  EXPECT_EQ(page, 6u);
  ASSERT_TRUE(pipeline.TakeUrgent(&page));
  EXPECT_EQ(page, 2u);
  EXPECT_FALSE(pipeline.TakeUrgent(&page));  // Plan pages are not urgent.
  pipeline.Start();
  pipeline.Stop();
  EXPECT_EQ(store->FetchLog(), (std::vector<PageId>{1}));
  EXPECT_EQ(pipeline.WorkerUrgentReads(), 0u);
}

TEST_F(AsyncPipelineTest, TakenPagesAreNeverReadByTheWorker) {
  auto store = OpenStore();
  AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(64));
  for (PageId p : {1, 2, 3, 4}) ASSERT_TRUE(pipeline.TryEnqueue(p));

  EXPECT_EQ(pipeline.TakeQueued(3), Stage::kTaken);
  EXPECT_EQ(pipeline.TakeQueued(3), Stage::kAbsent);  // Taken only once.
  PageId oldest = kInvalidPageId;
  ASSERT_TRUE(pipeline.TakeOldest(&oldest));
  EXPECT_EQ(oldest, 1u);
  pipeline.Start();
  pipeline.Stop();

  const std::vector<PageId> rest = {2, 4};
  EXPECT_EQ(pipeline.IssueLog(), rest);
  EXPECT_EQ(store->FetchLog(), rest);
  // A completed page that is not yet drained is still in flight for
  // the executor; once drained, it is gone from the pipeline.
  EXPECT_EQ(pipeline.TakeQueued(2), Stage::kInFlight);
  EXPECT_EQ(DrainAll(&pipeline), rest);
  EXPECT_EQ(pipeline.TakeQueued(2), Stage::kAbsent);
  EXPECT_FALSE(pipeline.TakeOldest(&oldest));
}

TEST_F(AsyncPipelineTest, PageInServiceIsWaitedForNotTaken) {
  auto store = OpenStore(/*latency_us=*/1000);
  AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(64));
  ASSERT_TRUE(pipeline.TryEnqueue(1));
  ASSERT_TRUE(pipeline.TryEnqueue(2));
  pipeline.Start();
  // The worker publishes page 1 and takes page 2 under one hold of the
  // lock, so once page 1's completion is seen, page 2 is in service.
  AsyncFetchResult r;
  ASSERT_TRUE(pipeline.WaitDrainOne(&r));
  EXPECT_EQ(r.page, 1u);
  EXPECT_EQ(pipeline.TakeQueued(2), Stage::kInFlight);
  ASSERT_TRUE(pipeline.WaitDrainOne(&r));
  EXPECT_EQ(r.page, 2u);
  pipeline.Stop();
  EXPECT_EQ(store->FetchLog(), (std::vector<PageId>{1, 2}));
}

TEST_F(AsyncPipelineTest, WaitReturnsFalseWhenNothingIsPending) {
  auto store = OpenStore();
  AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(64));
  AsyncFetchResult r;
  // No worker runs, so a queued page can never complete.
  ASSERT_TRUE(pipeline.TryEnqueue(0));
  pipeline.PushUrgent(2);
  EXPECT_FALSE(pipeline.WaitDrainOne(&r));
  PageId urgent = kInvalidPageId;
  ASSERT_TRUE(pipeline.TakeUrgent(&urgent));

  pipeline.Start();
  ASSERT_TRUE(pipeline.TryEnqueue(1));
  ASSERT_TRUE(pipeline.WaitDrainOne(&r));
  EXPECT_EQ(r.page, 0u);
  ASSERT_TRUE(pipeline.WaitDrainOne(&r));
  EXPECT_EQ(r.page, 1u);
  EXPECT_FALSE(pipeline.WaitDrainOne(&r));  // Nothing queued or in service.
  pipeline.Stop();
  EXPECT_FALSE(pipeline.WaitDrainOne(&r));
}

TEST_F(AsyncPipelineTest, WaitTreatsUrgentPagesAsPending) {
  auto store = OpenStore(/*latency_us=*/1000);
  AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(64));
  pipeline.Start();
  // Nothing is on the plan lane or in service when the wait may begin:
  // an urgent page alone must keep it waiting for its completion.
  pipeline.PushUrgent(4);
  AsyncFetchResult r;
  ASSERT_TRUE(pipeline.WaitDrainOne(&r));
  EXPECT_EQ(r.page, 4u);
  EXPECT_TRUE(r.urgent);
  EXPECT_FALSE(pipeline.WaitDrainOne(&r));
  pipeline.Stop();
}

TEST_F(AsyncPipelineTest, EnqueueRefusesAtMaxInFlight) {
  auto store = OpenStore();
  AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(3));
  for (PageId p : {0, 1, 2}) ASSERT_TRUE(pipeline.TryEnqueue(p));
  EXPECT_FALSE(pipeline.TryEnqueue(3));

  // Completions count against the bound until they are drained.
  pipeline.Start();
  pipeline.Stop();
  EXPECT_FALSE(pipeline.TryEnqueue(3));
  AsyncFetchResult r;
  ASSERT_TRUE(pipeline.TryDrainOne(&r));
  EXPECT_TRUE(pipeline.TryEnqueue(3));
}

TEST_F(AsyncPipelineTest, StopDrainsQueuedPages) {
  auto store = OpenStore(/*latency_us=*/1000);
  AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(64));
  pipeline.Start();
  const std::vector<PageId> plan = {6, 4, 2, 0};
  for (PageId p : plan) ASSERT_TRUE(pipeline.TryEnqueue(p));
  for (PageId p : {5, 3}) pipeline.PushUrgent(p);
  pipeline.Stop();

  // Both lanes were drained. Which plan pages were read before the
  // urgent pages arrived depends on timing, but each lane keeps its
  // own order.
  EXPECT_EQ(pipeline.IssueLog(), plan);
  std::vector<bool> urgent;
  const std::vector<PageId> drained = DrainAll(&pipeline, &urgent);
  std::vector<PageId> plan_drained;
  std::vector<PageId> urgent_drained;
  for (size_t i = 0; i < drained.size(); ++i) {
    (urgent[i] ? urgent_drained : plan_drained).push_back(drained[i]);
  }
  EXPECT_EQ(plan_drained, plan);
  EXPECT_EQ(urgent_drained, (std::vector<PageId>{5, 3}));
  EXPECT_EQ(store->reads(), plan.size() + 2);
}

TEST_F(AsyncPipelineTest, DestructionWithoutStopJoinsTheWorker) {
  auto store = OpenStore(/*latency_us=*/1000);
  {
    AsyncPrefetchPipeline pipeline(store.get(), MaxInFlight(64));
    pipeline.Start();
    for (PageId p : {0, 1, 2, 3}) ASSERT_TRUE(pipeline.TryEnqueue(p));
  }
  // A worker left joinable would have terminated the process; this one
  // read the whole queue before it was joined.
  EXPECT_EQ(store->reads(), 4u);
}

}  // namespace
}  // namespace scout
