// Differential tests of real-I/O serving (RunSequenceFile): the async
// decoupled pipeline must be BIT-IDENTICAL to the synchronous file path
// — same result hash, same logical-cache behaviour, same fetch plan in
// the same order — and the synchronous file path must reproduce the
// in-memory oracle exactly. Wall-clock is deliberately not asserted
// here (scout_bench measures it); these tests pin correctness.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_executor.h"
#include "geom/aabb.h"
#include "gtest/gtest.h"
#include "index/rtree.h"
#include "prefetch/scout_prefetcher.h"
#include "storage/cache.h"
#include "storage/fault_model.h"
#include "storage/file_page_store.h"
#include "testing/test_util.h"

namespace scout {
namespace {

class AsyncDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto objects = testing::MakeFiber(Vec3(5, 50, 50), Vec3(1, 0, 0), 150,
                                      2.0, 0, 0, 41);
    auto clutter = testing::MakeRandomObjects(
        1500, Aabb(Vec3(0, 0, 0), Vec3(320, 100, 100)), 42);
    for (auto& obj : clutter) {
      obj.id += 10000;
      objects.push_back(obj);
    }
    auto built = RTreeIndex::Build(objects);
    ASSERT_TRUE(built.ok()) << built.status().message();
    index_ = std::move(built).value();
    path_ = ::testing::TempDir() + "scout_diff_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".pages";
    const Status st = FilePageStore::WriteFile(index_->store(), path_);
    ASSERT_TRUE(st.ok()) << st.message();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<Region> Sequence(size_t n) const {
    std::vector<Region> queries;
    for (size_t q = 0; q < n; ++q) {
      queries.push_back(
          Region::CubeAt(Vec3(30.0 + 20.0 * q, 50, 50), 8000.0));
    }
    return queries;
  }

  std::unique_ptr<FilePageStore> OpenStore() {
    auto opened = FilePageStore::Open(path_, store_options_);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    return std::move(opened).value();
  }

  ExecutorConfig FileConfig(FilePageStore* store, bool async) const {
    ExecutorConfig config;
    config.io.backend = IoBackend::kFile;
    config.io.store = store;
    config.cache_bytes = cache_bytes_;
    config.io.async_prefetch = async;
    config.io.prefetch_budget_pages = budget_pages_;
    config.io.think_time_us = think_us_;
    return config;
  }

  /// One cold run over a fresh store + fresh prefetcher (both modes are
  /// stateful, so reruns must not share them). Returns the stats and,
  /// via `store_out`, the store (for its fetch log).
  FileSequenceStats Run(bool async, std::span<const Region> queries,
                        const FileRunOptions& options,
                        std::unique_ptr<FilePageStore>* store_out) {
    *store_out = OpenStore();
    (*store_out)->EnableFetchLog();
    ScoutPrefetcher prefetcher{ScoutConfig{}};
    QueryExecutor executor(index_.get(), &prefetcher,
                           FileConfig(store_out->get(), async));
    return executor.RunSequenceFile(queries, options);
  }

  std::unique_ptr<RTreeIndex> index_;
  std::string path_;
  /// Think gap used by FileConfig. > 0 lets the async executor read
  /// queued plan pages itself while the gap lasts; 0 leaves the plan to
  /// the worker, except for late hits the executor takes.
  int64_t think_us_ = 0;
  size_t budget_pages_ = 8;  ///< Plan pages per query (FileConfig).
  uint64_t cache_bytes_ = 64ull << 20;  ///< Cache capacity (FileConfig).
  FilePageStoreOptions store_options_;
};

std::vector<PageId> Sorted(std::vector<PageId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Every page a run asked the device for: its plan pages, then its
/// demand reads.
std::vector<PageId> LogicalFetches(const FileSequenceStats& stats) {
  std::vector<PageId> v = stats.prefetch_order;
  v.insert(v.end(), stats.demand_order.begin(), stats.demand_order.end());
  return v;
}

TEST_F(AsyncDifferentialTest, SyncFileMatchesInMemoryOracle) {
  const auto queries = Sequence(10);
  FileRunOptions options;
  options.collect_results = true;
  std::unique_ptr<FilePageStore> store;
  const FileSequenceStats stats = Run(/*async=*/false, queries, options,
                                      &store);

  // Oracle: Prepare() on the in-memory index, hashed through the same
  // fingerprint the file path folds as it serves.
  uint64_t oracle_hash = QueryExecutor::kResultHashSeed;
  QueryExecutor::PreparedQuery prep;
  ASSERT_EQ(stats.results.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryExecutor::Prepare(*index_, queries[qi], &prep);
    oracle_hash = QueryExecutor::HashPreparedObjects(
        oracle_hash, std::span<const GraphInput>(prep.objects));
    // Value-level comparison, object for object, in order.
    ASSERT_EQ(stats.results[qi].size(), prep.objects.size()) << "query " << qi;
    for (size_t i = 0; i < prep.objects.size(); ++i) {
      EXPECT_EQ(stats.results[qi][i].id, prep.objects[i].object->id);
    }
    EXPECT_EQ(stats.queries[qi].result_objects, prep.objects.size());
    EXPECT_EQ(stats.queries[qi].outcome, StatusCode::kOk);
  }
  EXPECT_EQ(stats.result_hash, oracle_hash);
  EXPECT_GT(stats.TotalPagesHit(), 0u) << "prefetching never hit";
}

TEST_F(AsyncDifferentialTest, AsyncIsBitIdenticalToSync) {
  const auto queries = Sequence(10);
  std::unique_ptr<FilePageStore> sync_store;
  std::unique_ptr<FilePageStore> async_store;
  const FileSequenceStats sync_stats =
      Run(/*async=*/false, queries, FileRunOptions{}, &sync_store);
  const FileSequenceStats async_stats =
      Run(/*async=*/true, queries, FileRunOptions{}, &async_store);

  EXPECT_EQ(async_stats.result_hash, sync_stats.result_hash);

  // The logical cache plane is driven through the identical operation
  // sequence in both modes, so every logical counter matches per query.
  ASSERT_EQ(async_stats.queries.size(), sync_stats.queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const FileQueryStats& s = sync_stats.queries[qi];
    const FileQueryStats& a = async_stats.queries[qi];
    EXPECT_EQ(a.pages_total, s.pages_total) << "query " << qi;
    EXPECT_EQ(a.pages_hit, s.pages_hit) << "query " << qi;
    EXPECT_EQ(a.demand_reads, s.demand_reads) << "query " << qi;
    EXPECT_EQ(a.prefetch_planned, s.prefetch_planned) << "query " << qi;
    EXPECT_EQ(a.result_objects, s.result_objects) << "query " << qi;
    EXPECT_EQ(a.outcome, StatusCode::kOk);
  }

  // Superset-ordering contract: both modes issue the identical plan in
  // the identical order (the worker's issue log is a subsequence of it,
  // asserted inside the engine), and demand reads run in the same
  // order; fault-free, the global fetch multisets coincide exactly.
  EXPECT_EQ(async_stats.prefetch_order, sync_stats.prefetch_order);
  EXPECT_EQ(async_stats.demand_order, sync_stats.demand_order);
  EXPECT_GT(sync_stats.prefetch_order.size(), 0u);
  EXPECT_EQ(Sorted(async_store->FetchLog()), Sorted(sync_store->FetchLog()));
}

TEST_F(AsyncDifferentialTest, HybridInlineTransportKeepsBitIdentity) {
  // A non-zero think gap makes the transport hybrid: the async
  // executor reads the oldest queued plan pages while the gap lasts,
  // beside the worker. Which thread reads which page is
  // timing-dependent run to run, but it must never be observable:
  // results, logical counters, plan order, and the global fetch
  // multiset all stay bit-identical to sync serving.
  think_us_ = 400;
  // A real per-read latency makes the gap actually fill up, so both
  // the executor and the worker read plan pages instead of the
  // executor reading everything inline instantly.
  store_options_.device_latency_us = 100;
  const auto queries = Sequence(10);
  std::unique_ptr<FilePageStore> sync_store;
  std::unique_ptr<FilePageStore> async_store;
  const FileSequenceStats sync_stats =
      Run(/*async=*/false, queries, FileRunOptions{}, &sync_store);
  const FileSequenceStats async_stats =
      Run(/*async=*/true, queries, FileRunOptions{}, &async_store);

  EXPECT_EQ(async_stats.result_hash, sync_stats.result_hash);
  EXPECT_EQ(async_stats.prefetch_order, sync_stats.prefetch_order);
  EXPECT_EQ(async_stats.demand_order, sync_stats.demand_order);
  EXPECT_EQ(Sorted(async_store->FetchLog()), Sorted(sync_store->FetchLog()));
  ASSERT_EQ(async_stats.queries.size(), sync_stats.queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(async_stats.queries[qi].pages_hit,
              sync_stats.queries[qi].pages_hit);
    EXPECT_EQ(async_stats.queries[qi].demand_reads,
              sync_stats.queries[qi].demand_reads);
    EXPECT_EQ(async_stats.queries[qi].result_objects,
              sync_stats.queries[qi].result_objects);
  }
}

TEST_F(AsyncDifferentialTest, LateHitsTakeQueuedPagesAndKeepBitIdentity) {
  // No think gap and a slow device: the next query starts while most of
  // the previous plan is still queued, so its late hits are taken out
  // of the plan lane into the query's batch, which the executor and the
  // worker read before any plan page. Taking must never be observable:
  // every page is still read exactly once, and results, counters, plan
  // and demand order and the fetch multiset stay bit-identical to sync
  // serving.
  think_us_ = 0;
  store_options_.device_latency_us = 2000;
  const auto queries = Sequence(14);  // The whole fiber: more late hits.
  std::unique_ptr<FilePageStore> sync_store;
  std::unique_ptr<FilePageStore> async_store;
  const FileSequenceStats sync_stats =
      Run(/*async=*/false, queries, FileRunOptions{}, &sync_store);
  const FileSequenceStats async_stats =
      Run(/*async=*/true, queries, FileRunOptions{}, &async_store);

  size_t steals = 0;
  for (const FileQueryStats& q : async_stats.queries) {
    EXPECT_LE(q.late_hit_steals, q.late_hit_waits);
    steals += q.late_hit_steals;
  }
  EXPECT_GT(steals, 0u) << "no late hit took a queued page";

  EXPECT_EQ(async_stats.result_hash, sync_stats.result_hash);
  ASSERT_EQ(async_stats.queries.size(), sync_stats.queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const FileQueryStats& s = sync_stats.queries[qi];
    const FileQueryStats& a = async_stats.queries[qi];
    EXPECT_EQ(a.pages_total, s.pages_total) << "query " << qi;
    EXPECT_EQ(a.pages_hit, s.pages_hit) << "query " << qi;
    EXPECT_EQ(a.demand_reads, s.demand_reads) << "query " << qi;
    EXPECT_EQ(a.prefetch_planned, s.prefetch_planned) << "query " << qi;
    EXPECT_EQ(a.result_objects, s.result_objects) << "query " << qi;
    EXPECT_EQ(a.outcome, StatusCode::kOk);
  }
  EXPECT_EQ(async_stats.prefetch_order, sync_stats.prefetch_order);
  EXPECT_EQ(async_stats.demand_order, sync_stats.demand_order);
  EXPECT_EQ(Sorted(async_store->FetchLog()), Sorted(sync_store->FetchLog()));
}

TEST_F(AsyncDifferentialTest, DemandBatchIsHandedOffWithoutAPlan) {
  // No plan, so the worker is otherwise idle and every page is a miss.
  // Most of the fiber's queries have 3-4 result pages: the executor
  // reads the first page of each batch and the worker reads beside it
  // from the urgent lane. The hand-off must never be observable.
  budget_pages_ = 0;
  store_options_.device_latency_us = 2000;
  const auto queries = Sequence(14);
  std::unique_ptr<FilePageStore> sync_store;
  std::unique_ptr<FilePageStore> async_store;
  const FileSequenceStats sync_stats =
      Run(/*async=*/false, queries, FileRunOptions{}, &sync_store);
  const FileSequenceStats async_stats =
      Run(/*async=*/true, queries, FileRunOptions{}, &async_store);

  size_t worker_reads = 0;
  for (const FileQueryStats& q : async_stats.queries) {
    EXPECT_LE(q.batch_worker_reads, q.demand_reads);
    worker_reads += q.batch_worker_reads;
  }
  EXPECT_GT(worker_reads, 0u) << "the worker read no batch page";
  for (const FileQueryStats& q : sync_stats.queries) {
    EXPECT_EQ(q.batch_worker_reads, 0u);
  }

  EXPECT_EQ(async_stats.result_hash, sync_stats.result_hash);
  ASSERT_EQ(async_stats.queries.size(), sync_stats.queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const FileQueryStats& s = sync_stats.queries[qi];
    const FileQueryStats& a = async_stats.queries[qi];
    EXPECT_EQ(a.pages_total, s.pages_total) << "query " << qi;
    EXPECT_EQ(a.pages_hit, s.pages_hit) << "query " << qi;
    EXPECT_EQ(a.demand_reads, s.demand_reads) << "query " << qi;
    EXPECT_EQ(a.prefetch_planned, s.prefetch_planned) << "query " << qi;
    EXPECT_EQ(a.result_objects, s.result_objects) << "query " << qi;
    EXPECT_EQ(a.outcome, StatusCode::kOk);
  }
  EXPECT_TRUE(sync_stats.prefetch_order.empty());
  EXPECT_EQ(async_stats.prefetch_order, sync_stats.prefetch_order);
  EXPECT_EQ(async_stats.demand_order, sync_stats.demand_order);
  EXPECT_EQ(Sorted(async_store->FetchLog()), Sorted(sync_store->FetchLog()));
}

TEST_F(AsyncDifferentialTest, AsyncRerunsAreDeterministic) {
  const auto queries = Sequence(8);
  std::unique_ptr<FilePageStore> store_a;
  std::unique_ptr<FilePageStore> store_b;
  const FileSequenceStats a =
      Run(/*async=*/true, queries, FileRunOptions{}, &store_a);
  const FileSequenceStats b =
      Run(/*async=*/true, queries, FileRunOptions{}, &store_b);

  EXPECT_EQ(a.result_hash, b.result_hash);
  EXPECT_EQ(a.prefetch_order, b.prefetch_order);
  EXPECT_EQ(a.demand_order, b.demand_order);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t qi = 0; qi < a.queries.size(); ++qi) {
    EXPECT_EQ(a.queries[qi].pages_hit, b.queries[qi].pages_hit);
    EXPECT_EQ(a.queries[qi].demand_reads, b.queries[qi].demand_reads);
    EXPECT_EQ(a.queries[qi].prefetch_planned, b.queries[qi].prefetch_planned);
  }
}

TEST_F(AsyncDifferentialTest, WarmRerunHitsCacheAndKeepsResults) {
  // A cold run, then a warm rerun on the same executor, in each mode.
  // Warm serving starts from the cold run's cache and frames, and the
  // two warm runs must still agree on every logical outcome.
  const auto queries = Sequence(8);
  FileRunOptions warm_options;
  warm_options.warm_start = true;
  FileSequenceStats warm_runs[2];
  for (const bool async : {false, true}) {
    auto store = OpenStore();
    ScoutPrefetcher prefetcher{ScoutConfig{}};
    QueryExecutor executor(index_.get(), &prefetcher,
                           FileConfig(store.get(), async));
    const FileSequenceStats cold = executor.RunSequenceFile(queries);
    const FileSequenceStats warm =
        executor.RunSequenceFile(queries, warm_options);

    EXPECT_EQ(warm.result_hash, cold.result_hash);
    EXPECT_GE(warm.TotalPagesHit(), cold.TotalPagesHit());
    EXPECT_LE(warm.TotalDemandReads(), cold.TotalDemandReads());
    warm_runs[async] = warm;
  }

  const FileSequenceStats& sync_warm = warm_runs[0];
  const FileSequenceStats& async_warm = warm_runs[1];
  EXPECT_EQ(async_warm.result_hash, sync_warm.result_hash);
  ASSERT_EQ(async_warm.queries.size(), sync_warm.queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const FileQueryStats& s = sync_warm.queries[qi];
    const FileQueryStats& a = async_warm.queries[qi];
    EXPECT_EQ(a.pages_hit, s.pages_hit) << "query " << qi;
    EXPECT_EQ(a.demand_reads, s.demand_reads) << "query " << qi;
    EXPECT_EQ(a.prefetch_planned, s.prefetch_planned) << "query " << qi;
  }
  EXPECT_EQ(async_warm.prefetch_order, sync_warm.prefetch_order);
  EXPECT_EQ(async_warm.demand_order, sync_warm.demand_order);
}

TEST_F(AsyncDifferentialTest, EveryLogicalFetchIsOneDeviceRead) {
  // The device reads exactly the pages the logical plane fetches: every
  // plan page and every demand read is one read, even when the page's
  // bytes already sit in a frame from an earlier read. Sync vs async
  // comparisons cannot catch a change that skips the same reads in both
  // modes, so this pins each mode against its own logical fetches, cold
  // then warm, with a cache that holds everything and one that evicts.
  const auto queries = Sequence(8);
  FileRunOptions warm_options;
  warm_options.warm_start = true;
  for (const int64_t latency_us : {int64_t{0}, int64_t{2000}}) {
    for (const uint64_t cache_bytes :
         {uint64_t{64} << 20, uint64_t{8 * kPageBytes}}) {
      for (const bool async : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "latency " << latency_us << " us, cache "
                     << cache_bytes << " B, async " << async);
        store_options_.device_latency_us = latency_us;
        cache_bytes_ = cache_bytes;
        auto store = OpenStore();
        store->EnableFetchLog();
        ScoutPrefetcher prefetcher{ScoutConfig{}};
        QueryExecutor executor(index_.get(), &prefetcher,
                               FileConfig(store.get(), async));
        const FileSequenceStats cold = executor.RunSequenceFile(queries);
        const FileSequenceStats warm =
            executor.RunSequenceFile(queries, warm_options);

        std::vector<PageId> logical = LogicalFetches(cold);
        const std::vector<PageId> warm_fetches = LogicalFetches(warm);
        logical.insert(logical.end(), warm_fetches.begin(),
                       warm_fetches.end());
        EXPECT_EQ(Sorted(store->FetchLog()), Sorted(logical));
        EXPECT_EQ(warm.result_hash, cold.result_hash);
        if (cache_bytes == 8 * kPageBytes) {
          EXPECT_GT(executor.cache().evictions(), 0u);
          EXPECT_GT(warm.TotalPrefetchPlanned(), 0u);
        }
      }
    }
  }
}

TEST_F(AsyncDifferentialTest, StaleSharedEntriesDegradeIntoDemandReads) {
  // A borrowed cache keeps the entries another executor inserted, but a
  // fresh executor holds none of their bytes: those hits are not coming
  // from any pipeline, so they are demand-read (in the query's batch
  // when async). Both modes must still serve the oracle's results and
  // agree on every counter.
  const auto queries = Sequence(8);
  FileSequenceStats second_runs[2];
  for (const bool async : {false, true}) {
    auto store = OpenStore();
    PrefetchCache shared(64ull << 20);
    shared.ConfigureSharing(1);
    ScoutPrefetcher first_prefetcher{ScoutConfig{}};
    QueryExecutor first(index_.get(), &first_prefetcher,
                        FileConfig(store.get(), async), &shared);
    const FileSequenceStats cold = first.RunSequenceFile(queries);
    ScoutPrefetcher prefetcher{ScoutConfig{}};
    QueryExecutor second(index_.get(), &prefetcher,
                         FileConfig(store.get(), async), &shared);
    const FileSequenceStats stale = second.RunSequenceFile(queries);
    EXPECT_EQ(stale.result_hash, cold.result_hash);
    EXPECT_EQ(stale.UnavailableQueries(), 0u);
    // Some hits had no bytes, so demand reads exceed the misses.
    EXPECT_GT(stale.TotalDemandReads(),
              stale.TotalPagesTotal() - stale.TotalPagesHit());
    second_runs[async] = stale;
  }

  const FileSequenceStats& s = second_runs[0];
  const FileSequenceStats& a = second_runs[1];
  ASSERT_EQ(a.queries.size(), s.queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(a.queries[qi].pages_hit, s.queries[qi].pages_hit);
    EXPECT_EQ(a.queries[qi].demand_reads, s.queries[qi].demand_reads);
  }
  EXPECT_EQ(a.prefetch_order, s.prefetch_order);
  EXPECT_EQ(a.demand_order, s.demand_order);
}

// Satellite regression: async completions must be applied serially on
// the executor thread, so a shared cache's SetActiveSession attribution
// can never race the fetch worker. Runs under TSan in CI (tier1), where
// a worker-side cache mutation would fire instantly; the debug-mode
// ScopedWriter guard inside PrefetchCache checks the same invariant.
TEST_F(AsyncDifferentialTest, SharedCacheAttributionUnderAsyncServing) {
  const auto queries = Sequence(8);
  auto store = OpenStore();
  PrefetchCache shared(64ull << 20);
  shared.ConfigureSharing(2);
  ScoutPrefetcher prefetcher{ScoutConfig{}};
  QueryExecutor executor(index_.get(), &prefetcher,
                         FileConfig(store.get(), /*async=*/true), &shared);
  const FileSequenceStats stats = executor.RunSequenceFile(queries);

  EXPECT_GT(stats.result_hash, 0u);
  EXPECT_EQ(stats.UnavailableQueries(), 0u);
  // Every insert the sequence performed was attributed to session 0.
  EXPECT_GT(shared.session_stats()[0].inserts, 0u);
  EXPECT_EQ(shared.session_stats()[1].inserts, 0u);
  // The attribution bracket was closed on exit.
  EXPECT_EQ(shared.active_session(), PrefetchCache::kNoSession);
}

// Fault-storm soak over the file backend: serving degrades to partial
// results but never crashes, wedges, or loses the sequence; and the
// single-threaded sync path replays the identical degraded run on a
// fresh store (the op-counter fault timeline is deterministic).
TEST_F(AsyncDifferentialTest, FaultStormSoakServesDegraded) {
  const auto queries = Sequence(10);
  FaultConfig cfg;
  cfg.seed = 11;
  cfg.read_failure_prob = 0.25;
  cfg.read_failure_burst_us = 1000;
  const FaultSchedule faults(cfg);

  auto run = [&](bool async) {
    auto store = OpenStore();
    store->AttachFaults(&faults);
    ScoutPrefetcher prefetcher{ScoutConfig{}};
    QueryExecutor executor(index_.get(), &prefetcher,
                           FileConfig(store.get(), async));
    FileSequenceStats stats = executor.RunSequenceFile(queries);
    EXPECT_EQ(stats.queries.size(), queries.size());
    return stats;
  };

  const FileSequenceStats sync_a = run(/*async=*/false);
  const FileSequenceStats sync_b = run(/*async=*/false);
  EXPECT_EQ(sync_a.result_hash, sync_b.result_hash);
  EXPECT_EQ(sync_a.TotalFaultsSeen(), sync_b.TotalFaultsSeen());
  EXPECT_EQ(sync_a.TotalRetries(), sync_b.TotalRetries());
  EXPECT_GT(sync_a.TotalFaultsSeen(), 0u) << "storm did not fire";

  // Async under faults: thread interleaving may shift which attempt a
  // burst hits, so only robustness (not bit-identity) is asserted.
  const FileSequenceStats async_stats = run(/*async=*/true);
  QueryExecutor::PreparedQuery prep;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryExecutor::Prepare(*index_, queries[qi], &prep);
    EXPECT_LE(async_stats.queries[qi].result_objects, prep.objects.size());
  }
}

}  // namespace
}  // namespace scout
