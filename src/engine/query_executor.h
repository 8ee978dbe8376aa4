#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "engine/metrics.h"
#include "index/spatial_index.h"
#include "prefetch/cost_model.h"
#include "prefetch/prefetcher.h"
#include "storage/cache.h"
#include "storage/disk_model.h"
#include "storage/fault_model.h"
#include "storage/shared_disk.h"

namespace scout {

class FilePageStore;          // storage/file_page_store.h
class AsyncPrefetchPipeline;  // prefetch/async_pipeline.h
struct AsyncFetchResult;      // prefetch/async_pipeline.h

/// Degraded-mode serving policy: what a session does when the storage
/// layer reports transient failures (see FaultSchedule). All budgets are
/// simulated time, so policy decisions are bit-identical across reruns
/// and worker counts. With no fault schedule attached none of these
/// knobs changes any simulated metric.
struct FaultPolicy {
  /// Per-query response deadline. A query whose accumulated response
  /// time exceeds the budget stops retrying and reports
  /// kDeadlineExceeded (partial results are still accounted; the
  /// sequence keeps running). 0 disables the deadline.
  SimMicros query_deadline_us = 0;
  /// Retry budget for demand (residual) misses. Retries exhausted with
  /// failures outstanding report kUnavailable.
  uint32_t max_retries = 3;
  /// Exponential backoff between retry rounds: the k-th retry waits
  /// backoff_base_us << k, plus jitter.
  SimMicros backoff_base_us = 1000;
  /// Uniform jitter fraction added to each backoff wait (decorrelates
  /// sessions retrying into the same outage; drawn from a per-session
  /// seeded stream, so still fully deterministic).
  double backoff_jitter_frac = 0.25;
  /// Shed prefetch I/O while the session is under retry pressure:
  /// window fetches are dropped (the session falls back to on-demand
  /// serving) until degraded_window_us of simulated time passes without
  /// new failures. Demand misses are never shed — prefetches go first.
  bool shed_prefetch_on_retry = true;
  /// How long after the last observed failure the session keeps
  /// shedding prefetches.
  SimMicros degraded_window_us = 100000;
};

/// Multi-client serving-quality (QoS) knobs: how the ONE shared cache
/// and the ONE shared disk behave when N sessions contend. Consumed by
/// MultiClientEngine / RunSharedCacheExperiment; single-stream executors
/// (private cache, private disk) ignore it entirely.
///
/// The defaults are the QoS serving model (the `post-qos` baseline
/// family): quota-segmented eviction + priced admission on the shared
/// cache, per-session capacity scaling, and all reads through the shared
/// 4-channel disk queue. Legacy() restores the `post-multiclient`-era
/// semantics (pure global LRU, fixed capacity, one private simulated
/// disk per session) bit-identically — the `pre-qos` anchor proves it.
struct SharedServingConfig {
  /// Quota-segmented shared-cache eviction (PrefetchCache QoS mode).
  bool cache_quotas = true;
  /// Priced admission control for prefetch inserts into a full shared
  /// cache: reject inserts whose expected value does not cover the
  /// expected loss of the cross-session eviction they would cause.
  bool priced_admission = true;
  /// Pricing parameters for `priced_admission`.
  PrefetchAdmission admission;
  /// Shared-cache capacity multiplier per active session: the engine
  /// sizes the cache to cache_bytes * max(1, scale * num_sessions), so a
  /// serving deployment provisions cache with its session count. 0 keeps
  /// the legacy fixed `cache_bytes` capacity.
  double cache_scale_per_session = 1.0;
  /// Serve every session's reads through one shared SharedDiskQueue
  /// (cross-session head contention) instead of per-session DiskModels.
  bool shared_disk = true;
  /// Channel count of the shared disk array (the paper's 4-disk stripe).
  uint32_t disk_channels = 4;

  /// The pre-QoS serving semantics (global LRU, fixed capacity, private
  /// per-session disks): bit-identical to the `post-multiclient` era.
  static SharedServingConfig Legacy() {
    SharedServingConfig legacy;
    legacy.cache_quotas = false;
    legacy.priced_admission = false;
    legacy.cache_scale_per_session = 0.0;
    legacy.shared_disk = false;
    return legacy;
  }
};

/// Which backend serves page reads.
enum class IoBackend {
  /// DiskModel/SharedDiskQueue simulated time — the deterministic
  /// oracle; every published figure's simulated metrics come from here.
  kSimulated,
  /// FilePageStore real reads (RunSequenceFile): wall-clock measured
  /// serving over an on-disk page file.
  kFile,
};

/// Real-I/O serving configuration (consulted only by RunSequenceFile).
struct FileIoConfig {
  IoBackend backend = IoBackend::kSimulated;
  /// The on-disk page store to serve from. Borrowed, never owned;
  /// required when backend == kFile.
  FilePageStore* store = nullptr;
  /// Async prefetching: plan pages are queued for a dedicated fetch
  /// worker instead of being fetched inline, so fetch overlaps
  /// prediction, think time and the next query's execution. The
  /// executor takes queued plan pages too, during the think gap. Each
  /// query first reads the pages it blocks on (its certain misses and
  /// its late hits the worker has not started) as one batch, which the
  /// executor and the worker read together before any plan page.
  bool async_prefetch = false;
  /// Prefetch budget per window, in pages. The file backend has no
  /// simulated clock, so the window is bounded by page count rather
  /// than simulated time — fixed at a budget so sync and async modes
  /// plan identical fetch sets (the differential contract).
  size_t prefetch_budget_pages = 16;
  /// Emulated user think time between response delivery and the next
  /// query (wall microseconds). The sync path reads its whole plan
  /// inside this gap and overruns it when the plan is slow. The async
  /// path reads queued plan pages while the gap lasts, and a read it
  /// starts runs to completion, so it overruns the gap too whenever a
  /// read starts late in it; it sleeps only when no page is left queued.
  int64_t think_time_us = 0;
};

/// Per-query measurements of a real-I/O (file backend) run. Counters
/// (pages, hits, demand reads, faults) are deterministic at a fixed
/// configuration; wall_* fields are measured time.
struct FileQueryStats {
  size_t pages_total = 0;
  size_t pages_hit = 0;       ///< Logical prefetch-cache hits.
  size_t result_objects = 0;
  size_t demand_reads = 0;    ///< Reads issued for logical misses.
  size_t prefetch_planned = 0;  ///< Plan pages fetched/enqueued.
  size_t late_hit_waits = 0;  ///< Hits whose bytes were still queued or
                              ///< in flight, counted once each.
  size_t late_hit_steals = 0;  ///< Late hits taken out of the plan lane
                               ///< into the query's batch (also counted
                               ///< in late_hit_waits).
  size_t batch_worker_reads = 0;  ///< Batch pages the fetch worker read
                                  ///< (async); the executor read the rest.
  uint64_t faults_seen = 0;
  uint32_t retries = 0;
  StatusCode outcome = StatusCode::kOk;
  int64_t wall_response_us = 0;  ///< Demand I/O + decode + filter.
};

/// Whole-sequence measurements of a real-I/O run.
struct FileSequenceStats {
  std::vector<FileQueryStats> queries;
  /// FNV-1a over every query's decoded result objects, in order: the
  /// bit-identity fingerprint the differential tests compare across
  /// backends and modes.
  uint64_t result_hash = 0;
  /// Plan pages in plan order, the order the executor issued them in
  /// both modes.
  std::vector<PageId> prefetch_order;
  /// Pages in the order demand reads were issued.
  std::vector<PageId> demand_order;
  /// Decoded result objects per query; filled only when
  /// FileRunOptions::collect_results is set (tests).
  std::vector<std::vector<SpatialObject>> results;

  size_t TotalPagesTotal() const;
  size_t TotalPagesHit() const;
  size_t TotalDemandReads() const;
  size_t TotalPrefetchPlanned() const;
  size_t TotalLateHitWaits() const;
  uint64_t TotalFaultsSeen() const;
  uint32_t TotalRetries() const;
  size_t UnavailableQueries() const;
};

/// Options of one RunSequenceFile call.
struct FileRunOptions {
  /// Keep the prefetch cache and decoded frames from the previous run
  /// (the "warm cache" scenario); default is a cold start.
  bool warm_start = false;
  /// Copy every query's decoded result objects into
  /// FileSequenceStats::results (tests only; benches keep it off).
  bool collect_results = false;
};

/// Executor configuration. The prefetch window follows the paper's model
/// (§7.2): if d is the time to retrieve one query's data cold from disk
/// and u the user/compute time on the result, the window ratio is
/// r = u/d. r <= 1 is I/O bound, r > 1 CPU bound.
struct ExecutorConfig {
  double prefetch_window_ratio = 1.0;
  /// Prefetch cache capacity (the paper allows 4 GB for the 33 GB
  /// dataset; scaled down here with the datasets). In shared-cache mode
  /// this is the capacity of the one cache all sessions contend for.
  uint64_t cache_bytes = 64ull << 20;
  DiskConfig disk;
  /// Whether residual (cache-miss) reads also populate the prefetch
  /// cache. Off by default: the cache then holds prefetched data only, so
  /// the hit rate measures *prediction* accuracy — with it on, the page
  /// overlap between adjacent queries puts a high hit-rate floor under
  /// every policy (including no-prediction ones), which is inconsistent
  /// with the baseline accuracies the paper reports.
  bool cache_residual_reads = false;
  /// Charge the prediction computation against the prefetch window
  /// (Figure 2); prediction overflow beyond the window delays the next
  /// query's response.
  bool charge_prediction = true;
  /// Multi-client serving-quality knobs (ignored by single-stream runs).
  SharedServingConfig serving;
  /// Degraded-mode serving policy (only consulted when `fault_schedule`
  /// is attached and armed, except the deadline which always reports).
  FaultPolicy fault_policy;
  /// Deterministic storage fault schedule. Borrowed, never owned; null
  /// (the default) means fault-free serving with every simulated metric
  /// bit-identical to builds without the fault machinery (pinned by
  /// fault_differential_test). The executor attaches it to its private
  /// DiskModel; the owning engine attaches it to shared disk queues.
  const FaultSchedule* fault_schedule = nullptr;
  /// Real-I/O backend switch (RunSequenceFile only; the simulated
  /// paths never consult it, so attaching a file store changes no
  /// simulated metric).
  FileIoConfig io;
};

/// Runs guided query sequences against an index + simulated disk +
/// prefetch cache, modelling the resource timeline of the paper's
/// Figure 2: execute query (cache hits + residual I/O), run the
/// prediction computation, then prefetch during the idle window until
/// the user issues the next query.
///
/// The executor either owns its prefetch cache (single-stream mode, the
/// default) or borrows a shared one (multi-client serving): pass an
/// external PrefetchCache to serve this stream's queries over a cache
/// other sessions populate too. In borrowed mode the executor never
/// clears the cache — the owning engine controls its lifetime.
class QueryExecutor {
 public:
  /// The pure, cache-independent part of one query: its result pages
  /// (sorted ascending) and result objects. A PreparedQuery depends only
  /// on (index, region), so multi-client engines precompute them on
  /// worker threads while the deterministic apply loop serializes all
  /// cache/disk effects.
  struct PreparedQuery {
    std::vector<PageId> pages;
    std::vector<GraphInput> objects;
  };

  /// Computes the result pages (merged into ascending order) and result
  /// objects of `region`. Pages whose bounds the region fully contains
  /// skip the per-object filter: every object on such a page intersects
  /// the region by containment, so the batch-append keeps result sets
  /// exactly identical while avoiding the dominant per-object
  /// Intersects() tests on interior pages.
  static void Prepare(const SpatialIndex& index, const Region& region,
                      PreparedQuery* prep);

  /// Single-stream executor owning its prefetch cache.
  QueryExecutor(const SpatialIndex* index, Prefetcher* prefetcher,
                const ExecutorConfig& config);

  /// Shared-cache executor: serves this stream over `shared_cache`
  /// (not owned, never cleared by the executor).
  QueryExecutor(const SpatialIndex* index, Prefetcher* prefetcher,
                const ExecutorConfig& config, PrefetchCache* shared_cache);

  /// Full serving-engine form: `shared_cache` may be null (the executor
  /// then owns a private cache) and `disk_queue` may be null (reads then
  /// go through the private DiskModel). With a queue, all reads are
  /// issued to it at this stream's simulated timeline position under
  /// `session_id`, and residual misses are served as one elevator batch.
  /// Neither borrowed resource is reset by the executor.
  QueryExecutor(const SpatialIndex* index, Prefetcher* prefetcher,
                const ExecutorConfig& config, PrefetchCache* shared_cache,
                SharedDiskQueue* disk_queue, uint32_t session_id);

  /// Resets the per-stream state for a cold sequence start: simulated
  /// clock, disk model, carried prediction overflow and the prefetcher
  /// (BeginSequence). Clears the cache only when the executor owns it.
  void BeginSequence();

  /// Executes one query of the running sequence: serves `prep.pages`
  /// from the cache (misses from simulated disk), charges the prediction
  /// computation and drains the prefetcher during the idle window
  /// (paper's Figure 2 timeline). `prep` must be Prepare()d from
  /// `region` on the same index.
  QueryRunStats ExecuteQuery(const Region& region, const PreparedQuery& prep);

  /// Same, with the pure part of the prefetcher's Observe precomputed
  /// (PrepareObserve on a worker thread). `observe_prep` may be null or
  /// invalid — the prefetcher then builds its graph inline; simulated
  /// outcomes are identical either way.
  QueryRunStats ExecuteQuery(const Region& region, const PreparedQuery& prep,
                             ObservePrep* observe_prep);

  /// Executes one sequence cold (BeginSequence + Prepare/ExecuteQuery
  /// per query).
  SequenceRunStats RunSequence(std::span<const Region> queries);

  /// Same, but with the pure per-query work precomputed (one
  /// PreparedQuery per region, from the same index).
  SequenceRunStats RunSequence(std::span<const Region> queries,
                               std::span<const PreparedQuery> preps);

  /// Executes one sequence over the REAL-I/O backend (config().io must
  /// name a FilePageStore): result pages are decoded from the on-disk
  /// page file, the prefetch cache tracks the same logical plan as the
  /// simulated path, and wall-clock serving time is measured. With
  /// io.async_prefetch the plan is queued for a fetch worker that the
  /// executor helps drain (prefetch overlaps execution), and each
  /// query's blocking pages are read as one batch on both threads;
  /// without it, fetches block the query loop. Both modes drive the
  /// prefetch cache through an identical logical operation sequence, so
  /// hits, fetch sets and decoded results are bit-identical between
  /// them (fault-free; pinned by engine_async_differential_test).
  /// Single-stream executors only (owned cache, private disk).
  FileSequenceStats RunSequenceFile(std::span<const Region> queries);
  FileSequenceStats RunSequenceFile(std::span<const Region> queries,
                                    const FileRunOptions& options);

  /// FNV-1a fold of one result object (raw double bits + ids + page):
  /// the fingerprint primitive behind FileSequenceStats::result_hash.
  /// Exposed so tests and benches hash a simulated-oracle result set
  /// with the exact same encoding.
  static uint64_t HashResultObject(uint64_t h, const SpatialObject& obj,
                                   PageId page);
  /// Folds a whole Prepare() result (the simulated oracle's objects).
  static uint64_t HashPreparedObjects(uint64_t h,
                                      std::span<const GraphInput> objects);
  /// Seed of the result-hash fold.
  static constexpr uint64_t kResultHashSeed = 1469598103934665603ull;

  const PrefetchCache& cache() const { return *cache_; }
  const DiskModel& disk() const { return disk_; }
  bool owns_cache() const { return owned_cache_ != nullptr; }

 private:
  class WindowIo;
  class FilePlanIo;

  /// Cold-read cost of the given pages in sorted order (first page
  /// random, then sequential whenever physically adjacent).
  SimMicros ColdReadCost(const std::vector<PageId>& sorted_pages) const;

  /// Priced admission (shared-cache QoS): whether to pay for one more
  /// prefetch insert into the full shared cache, given who the eviction
  /// victim would be. Self- and unattributed-victim inserts are always
  /// admitted — only cross-session harm is priced.
  bool AdmitPrefetchInsert() const;

  /// Simulated backoff wait before retry round `attempt` (0-based):
  /// exponential in the round plus seeded uniform jitter.
  SimMicros RetryBackoffUs(uint32_t attempt);

  /// Records that a failure was observed at simulated instant `now`:
  /// extends the prefetch-shedding window (when the policy sheds).
  void NoteFailure(SimMicros now);

  /// Serves the residual-miss batch in `miss_pages_` through the shared
  /// queue with retries, backoff, deadline accounting and shedding
  /// bookkeeping. Returns the total simulated serving time (attempts +
  /// backoff waits); fault counters land in `q`. With no armed fault
  /// schedule no read fails, so this and ReadDemandPageWithRetries cost
  /// exactly one plain read.
  SimMicros ServeMissBatchWithRetries(QueryRunStats* q);

  /// Same for the private-disk path: one page, demand-miss retry loop.
  /// `*ok` reports whether the page finally arrived.
  SimMicros ReadDemandPageWithRetries(PageId page, SimMicros spent_so_far,
                                      QueryRunStats* q, bool* ok);

  // ---- Real-I/O (file backend) serving; see RunSequenceFile. --------

  /// One page of the current query's batch (async serving).
  struct BatchRead {
    PageId page = kInvalidPageId;
    /// A late hit taken out of the plan lane: its read is the
    /// prefetch's, applied like any plan completion. Otherwise the
    /// first attempt of the page's demand read.
    bool late_hit = false;
    bool done = false;  ///< The demand attempt finished, on either thread.
    Status status = Status::OK();  ///< Its outcome, once done.
  };

  /// Applies one fetch on the executor thread: decoded bytes land in
  /// frames_. A batch page's demand attempt records its outcome for
  /// DemandReadFilePage; any other failed fetch erases the page's
  /// logical cache entry (it never arrived). Returns status.ok(). The
  /// worker never touches the cache — this is the serial-apply seam.
  bool ApplyCompletion(AsyncFetchResult&& r, FileQueryStats* q);

  /// Reads one page on this thread and applies it: a plan page, or
  /// (`urgent`) a page of the query's batch.
  bool ReadPageInline(PageId page, bool urgent, FileQueryStats* q);

  /// Async: reads the pages of one query that block it (certain misses,
  /// hits whose bytes are not coming, and late hits still on the plan
  /// lane) as one batch before the per-page loop. The executor reads
  /// the first page and hands the rest to the pipeline's urgent lane,
  /// which it drains beside the worker. Moves no LRU position.
  void ReadQueryBatch(std::span<const PageId> pages,
                      AsyncPrefetchPipeline* pipeline, FileQueryStats* q);

  /// The current query's batch entry for `page`, or null.
  BatchRead* FindBatchRead(PageId page);

  /// Bytes of a logically-cached page: served from frames_, or (async)
  /// from the pipeline, waiting for a late hit that the worker reads.
  /// Null when the page's fetch failed or is not pending (caller
  /// demand-reads).
  const Page* AwaitFramePage(PageId page, AsyncPrefetchPipeline* pipeline,
                             FileQueryStats* q);

  /// Demand read, with retries (fault_policy.max_retries). A page in
  /// the query's batch takes its batch read as attempt 0; the other
  /// attempts, and every sync read, run on this thread. Null after
  /// retry exhaustion (outcome is set on `q`).
  const Page* DemandReadFilePage(PageId page, AsyncPrefetchPipeline* pipeline,
                                 FileQueryStats* q, FileSequenceStats* stats);

  const SpatialIndex* index_;
  Prefetcher* prefetcher_;
  ExecutorConfig config_;
  SimClock clock_;
  DiskModel disk_;
  std::unique_ptr<PrefetchCache> owned_cache_;  ///< Null in shared mode.
  PrefetchCache* cache_;                        ///< Owned or borrowed.
  SharedDiskQueue* disk_queue_ = nullptr;  ///< Borrowed; null = private disk.
  uint32_t session_id_ = 0;                ///< Queue attribution id.
  SimMicros sequence_now_ = 0;  ///< This stream's query-issue timeline
                                ///< (mirrors ClientSession::next_time).
  std::vector<PageId> miss_pages_;  ///< Residual-batch scratch buffer.
  SimMicros carried_overflow_ = 0;  ///< Prediction overflow delaying the
                                    ///< next query's response.
  Rng retry_rng_;                   ///< Backoff jitter stream (per-session
                                    ///< derived seed; see BeginSequence).
  SimMicros degraded_until_ = 0;    ///< Prefetch shedding active until this
                                    ///< instant of the stream's timeline.
  std::vector<PageId> retry_failed_;  ///< Failed-page scratch buffer.
  std::vector<PageId> retry_pages_;   ///< Retry-batch scratch buffer.

  // ---- Real-I/O (file backend) state; live only inside
  // RunSequenceFile runs. -------------------------------------------
  /// Decoded-page frames, indexed by PageId: the data plane of file
  /// serving. The PrefetchCache stays the (logical) metadata plane that
  /// decides which reads happen; frames just hold bytes that already
  /// arrived, so entries are never invalidated (the page file is
  /// immutable for the life of a sequence) and result-object pointers
  /// stay stable for the prefetcher's Observe.
  std::vector<std::unique_ptr<Page>> frames_;
  std::vector<PageId> file_plan_;     ///< Plan-capture scratch buffer.
  std::vector<BatchRead> batch_;      ///< The current query's batch.
  std::vector<GraphInput> file_objects_;  ///< Result scratch buffer.
};

}  // namespace scout

