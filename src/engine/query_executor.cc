#include "engine/query_executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/stopwatch.h"
#include "prefetch/async_pipeline.h"
#include "storage/file_page_store.h"

namespace scout {
namespace {

/// Restores ascending order of a page list that arrives as a
/// concatenation of ascending runs. Both index builders emit QueryPages
/// results in bulk-load (= page id) order, so the common case is a single
/// run and costs one O(n) scan instead of a full std::sort; genuinely
/// unsorted input degrades to balanced run merging, O(n log runs).
void MergeSortedRuns(std::vector<PageId>* pages) {
  std::vector<PageId>& p = *pages;
  if (p.size() < 2) return;
  // Allocation-free fast path: already one sorted run.
  size_t first_descent = p.size();
  for (size_t i = 1; i < p.size(); ++i) {
    if (p[i] < p[i - 1]) {
      first_descent = i;
      break;
    }
  }
  if (first_descent == p.size()) return;
  std::vector<size_t> bounds;  // Run boundaries: 0, ..., p.size().
  bounds.push_back(0);
  bounds.push_back(first_descent);
  for (size_t i = first_descent + 1; i < p.size(); ++i) {
    if (p[i] < p[i - 1]) bounds.push_back(i);
  }
  bounds.push_back(p.size());
  while (bounds.size() > 2) {
    std::vector<size_t> next;
    next.push_back(0);
    for (size_t i = 0; i + 2 < bounds.size(); i += 2) {
      std::inplace_merge(p.begin() + bounds[i], p.begin() + bounds[i + 1],
                         p.begin() + bounds[i + 2]);
      next.push_back(bounds[i + 2]);
    }
    if (bounds.size() % 2 == 0) next.push_back(bounds.back());
    bounds = std::move(next);
  }
}

/// The pages of `region`'s result, in ascending page id order.
void LookupPages(const SpatialIndex& index, const Region& region,
                 std::vector<PageId>* pages) {
  pages->clear();
  index.QueryPages(region, pages);
  MergeSortedRuns(pages);
}

/// Appends the objects of `data` (page `page`) that intersect `region`.
/// Containment fast path: when the page's bounding box (and therefore
/// every object bound inside it) lies fully inside the region, the
/// per-object Intersects test cannot fail, so the page is batch-appended.
void FilterPage(const Region& region, PageId page, const Page& data,
                std::vector<GraphInput>* out) {
  if (region.ContainsBox(data.bounds)) {
    for (const SpatialObject& obj : data.objects) {
      out->push_back(GraphInput{&obj, page});
    }
    return;
  }
  for (const SpatialObject& obj : data.objects) {
    if (region.Intersects(obj.Bounds())) out->push_back(GraphInput{&obj, page});
  }
}

}  // namespace

/// PrefetchIo implementation that charges fetches against the window
/// budget. The window also closes when the cache is full: a small cache
/// halts prefetching prematurely (paper §7.4.4).
class QueryExecutor::WindowIo : public PrefetchIo {
 public:
  /// `window_start` is the simulated instant prefetching begins (query
  /// issue + response + prediction charge); only consulted when fetches
  /// go through a shared disk queue.
  WindowIo(QueryExecutor* executor, SimMicros budget, SimMicros window_start)
      : executor_(executor),
        budget_(budget),
        remaining_(budget),
        window_start_(window_start) {}

  void QueryPages(const Region& region, std::vector<PageId>* out) override {
    executor_->index_->QueryPages(region, out);
  }

  bool IsCached(PageId page) const override {
    return executor_->cache_->Contains(page);
  }

  bool FetchPage(PageId page) override {
    if (executor_->cache_->Contains(page)) return true;
    if (remaining_ <= 0) return false;
    const SimMicros issue = window_start_ + (budget_ - remaining_);
    // degraded_until_ moves only when a read fails, so fault-free
    // serving never sheds.
    if (executor_->config_.fault_policy.shed_prefetch_on_retry &&
        issue < executor_->degraded_until_) {
      // Degraded mode: prefetch I/O is shed first. Close the window —
      // the session serves on demand until the shedding window passes.
      ++shed_;
      remaining_ = 0;
      return false;
    }
    if (executor_->cache_->Full()) {
      if (executor_->owns_cache()) {
        // Single-stream mode: prefetching halts once the cache is full
        // (paper §7.4.4 — a small cache stops prefetching prematurely).
        // A *shared* serving cache is a long-lived resource instead:
        // prefetches displace a page (Insert evicts), so capacity
        // pressure between sessions shows up as evictions, not as
        // silently halted windows.
        remaining_ = 0;
        return false;
      }
      if (!executor_->AdmitPrefetchInsert()) {
        // Priced admission rejected the insert. The prefetcher's plan is
        // in decreasing expected value and the price only moves with
        // cache activity this executor cannot cause within the window,
        // so the first rejection closes the window.
        admission_closed_ = true;
        remaining_ = 0;
        return false;
      }
    }
    // A read started while the window is open completes even if the user
    // issues the next query meanwhile; the window then closes.
    SimMicros cost;
    bool failed_read = false;
    if (executor_->disk_queue_ != nullptr) {
      // Shared disk: the fetch is issued where the window has advanced
      // to; queueing behind other sessions' reads consumes window budget
      // exactly like the read itself.
      const SharedDiskQueue::BatchResult served =
          executor_->disk_queue_->TryServeOne(executor_->session_id_, issue,
                                              page, &failed_read);
      cost = served.latency_us;
      wait_us_ += served.queue_wait_us;
    } else {
      const DiskModel::ReadResult read = executor_->disk_.TryReadPage(page);
      cost = read.cost_us;
      failed_read = !read.status.ok();
    }
    if (failed_read) {
      // The transfer failed: the window time is spent but the page never
      // arrived. Prefetches are never retried (demand misses own the
      // retry budget) — note the failure, which arms shedding, and let
      // the prefetcher continue with its plan.
      ++faults_;
      executor_->NoteFailure(issue + cost);
      remaining_ -= cost;
      return true;
    }
    executor_->cache_->Insert(page);
    remaining_ -= cost;
    ++pages_fetched_;
    return true;
  }

  bool WindowOpen() const override { return remaining_ > 0; }

  size_t pages_fetched() const { return pages_fetched_; }
  SimMicros wait_us() const { return wait_us_; }
  bool admission_closed() const { return admission_closed_; }
  size_t shed() const { return shed_; }
  uint64_t faults() const { return faults_; }

 private:
  QueryExecutor* executor_;
  SimMicros budget_;
  SimMicros remaining_;
  SimMicros window_start_;
  SimMicros wait_us_ = 0;
  size_t pages_fetched_ = 0;
  bool admission_closed_ = false;
  size_t shed_ = 0;       ///< Fetches dropped in degraded mode.
  uint64_t faults_ = 0;   ///< Failed prefetch transfers.
};

void QueryExecutor::Prepare(const SpatialIndex& index, const Region& region,
                            PreparedQuery* prep) {
  LookupPages(index, region, &prep->pages);
  prep->objects.clear();
  for (PageId page : prep->pages) {
    FilterPage(region, page, index.store().page(page), &prep->objects);
  }
}

QueryExecutor::QueryExecutor(const SpatialIndex* index,
                             Prefetcher* prefetcher,
                             const ExecutorConfig& config)
    : QueryExecutor(index, prefetcher, config, nullptr, nullptr, 0) {}

QueryExecutor::QueryExecutor(const SpatialIndex* index,
                             Prefetcher* prefetcher,
                             const ExecutorConfig& config,
                             PrefetchCache* shared_cache)
    : QueryExecutor(index, prefetcher, config, shared_cache, nullptr, 0) {}

QueryExecutor::QueryExecutor(const SpatialIndex* index,
                             Prefetcher* prefetcher,
                             const ExecutorConfig& config,
                             PrefetchCache* shared_cache,
                             SharedDiskQueue* disk_queue, uint32_t session_id)
    : index_(index),
      prefetcher_(prefetcher),
      config_(config),
      disk_(config.disk, &clock_),
      owned_cache_(shared_cache == nullptr
                       ? std::make_unique<PrefetchCache>(config.cache_bytes)
                       : nullptr),
      cache_(shared_cache == nullptr ? owned_cache_.get() : shared_cache),
      disk_queue_(disk_queue),
      session_id_(session_id) {
  // The private disk model consults the schedule on every read; shared
  // queues are borrowed, so the owning engine attaches it there.
  disk_.AttachFaults(config.fault_schedule);
}

SimMicros QueryExecutor::ColdReadCost(
    const std::vector<PageId>& sorted_pages) const {
  SimMicros cost = 0;
  PageId prev = kInvalidPageId;
  for (PageId page : sorted_pages) {
    const bool sequential = prev != kInvalidPageId && page == prev + 1;
    cost += sequential ? config_.disk.sequential_read_us
                       : config_.disk.random_read_us;
    prev = page;
  }
  return cost;
}

void QueryExecutor::BeginSequence() {
  // Cold start, as between the paper's measurement runs (§7.1: caches and
  // disk buffers cleared after each sequence). A borrowed shared cache is
  // deliberately left alone: its contents belong to all sessions and its
  // lifecycle to the serving engine.
  if (owned_cache_) owned_cache_->Clear();
  disk_.Reset();
  clock_.Reset();
  sequence_now_ = 0;
  carried_overflow_ = 0;
  degraded_until_ = 0;
  // Per-session derived jitter stream (mirrors how sessions derive their
  // prefetcher streams): independent across sessions, identical across
  // reruns. Only ever drawn from when retries actually happen, so the
  // seeding is free in fault-free runs.
  retry_rng_.Seed(FaultSchedule::SessionJitterSeed(
      config_.fault_schedule != nullptr ? config_.fault_schedule->config().seed
                                        : 0,
      session_id_));
  prefetcher_->BeginSequence();
}

SimMicros QueryExecutor::RetryBackoffUs(uint32_t attempt) {
  const FaultPolicy& policy = config_.fault_policy;
  // Exponential in the round, capped to keep the shift defined.
  const uint32_t shift = std::min<uint32_t>(attempt, 20);
  SimMicros wait = policy.backoff_base_us << shift;
  if (policy.backoff_jitter_frac > 0.0) {
    wait += static_cast<SimMicros>(policy.backoff_jitter_frac *
                                   static_cast<double>(wait) *
                                   retry_rng_.NextDouble());
  }
  return wait;
}

void QueryExecutor::NoteFailure(SimMicros now) {
  if (!config_.fault_policy.shed_prefetch_on_retry) return;
  degraded_until_ = std::max(degraded_until_,
                             now + config_.fault_policy.degraded_window_us);
}

SimMicros QueryExecutor::ServeMissBatchWithRetries(QueryRunStats* q) {
  const FaultPolicy& policy = config_.fault_policy;
  SimMicros elapsed = 0;
  SharedDiskQueue::BatchResult served = disk_queue_->TryServeBatch(
      session_id_, sequence_now_, miss_pages_, &retry_failed_);
  elapsed += served.latency_us;
  q->disk_wait_us += served.queue_wait_us;
  q->faults_seen += retry_failed_.size();
  uint32_t attempt = 0;
  while (!retry_failed_.empty() && attempt < policy.max_retries) {
    if (policy.query_deadline_us > 0 && elapsed >= policy.query_deadline_us) {
      break;
    }
    const SimMicros backoff = RetryBackoffUs(attempt);
    elapsed += backoff;
    q->backoff_wait_us += backoff;
    ++attempt;
    ++q->retries;
    // Reissue only the failed pages, at where the response has advanced
    // to — backoff included, so the retry sees later fault draws.
    retry_pages_.swap(retry_failed_);
    served = disk_queue_->TryServeBatch(session_id_, sequence_now_ + elapsed,
                                        retry_pages_, &retry_failed_);
    elapsed += served.latency_us;
    q->disk_wait_us += served.queue_wait_us;
    q->faults_seen += retry_failed_.size();
  }
  if (!retry_failed_.empty()) {
    q->outcome =
        policy.query_deadline_us > 0 && elapsed >= policy.query_deadline_us
            ? StatusCode::kDeadlineExceeded
            : StatusCode::kUnavailable;
  }
  if (q->faults_seen > 0) NoteFailure(sequence_now_ + elapsed);
  return elapsed;
}

SimMicros QueryExecutor::ReadDemandPageWithRetries(PageId page,
                                                   SimMicros spent_so_far,
                                                   QueryRunStats* q,
                                                   bool* ok) {
  const FaultPolicy& policy = config_.fault_policy;
  SimMicros elapsed = 0;
  bool saw_failure = false;
  DiskModel::ReadResult read = disk_.TryReadPage(page);
  elapsed += read.cost_us;
  uint32_t attempt = 0;
  while (!read.status.ok()) {
    saw_failure = true;
    ++q->faults_seen;
    if (attempt >= policy.max_retries) break;
    if (policy.query_deadline_us > 0 &&
        spent_so_far + elapsed >= policy.query_deadline_us) {
      break;
    }
    const SimMicros backoff = RetryBackoffUs(attempt);
    elapsed += backoff;
    q->backoff_wait_us += backoff;
    // Advance the private disk's clock so the retry's fault draw sees a
    // later issue instant (the backoff may cross the failure burst).
    clock_.Advance(backoff);
    ++attempt;
    ++q->retries;
    read = disk_.TryReadPage(page);
    elapsed += read.cost_us;
  }
  *ok = read.status.ok();
  if (!*ok) {
    q->outcome = policy.query_deadline_us > 0 &&
                         spent_so_far + elapsed >= policy.query_deadline_us
                     ? StatusCode::kDeadlineExceeded
                     : StatusCode::kUnavailable;
  }
  if (saw_failure) NoteFailure(sequence_now_ + spent_so_far + elapsed);
  return elapsed;
}

bool QueryExecutor::AdmitPrefetchInsert() const {
  if (!config_.serving.priced_admission) return true;
  const uint32_t self = cache_->active_session();
  const uint32_t victim = cache_->PeekVictimOwner();
  if (self == PrefetchCache::kNoSession ||
      victim == PrefetchCache::kNoSession || victim == self) {
    return true;
  }
  const std::vector<CacheSessionStats>& stats = cache_->session_stats();
  return config_.serving.admission.Admit(
      stats[self].inserts, stats[self].hits_own, stats[victim].inserts,
      stats[victim].hits_own, config_.disk.random_read_us);
}

QueryRunStats QueryExecutor::ExecuteQuery(const Region& region,
                                          const PreparedQuery& prep) {
  return ExecuteQuery(region, prep, nullptr);
}

QueryRunStats QueryExecutor::ExecuteQuery(const Region& region,
                                          const PreparedQuery& prep,
                                          ObservePrep* observe_prep) {
  QueryRunStats q;

  // --- Execute the query: cache hits first, misses from disk. ---
  q.pages_total = prep.pages.size();
  if (disk_queue_ != nullptr) {
    // Shared disk: collect the misses and serve them as ONE batch the
    // elevator scan may reorder; the residual I/O is the batch latency
    // (slowest page completion), which includes any queueing behind
    // other sessions' reads.
    miss_pages_.clear();
    for (PageId page : prep.pages) {
      if (cache_->TouchIfPresent(page)) {
        ++q.pages_hit;
      } else {
        miss_pages_.push_back(page);
      }
    }
    if (!miss_pages_.empty()) {
      q.residual_io_us = ServeMissBatchWithRetries(&q);
      if (config_.cache_residual_reads) {
        // Pages still failed after the retry budget never arrived.
        for (PageId page : miss_pages_) {
          if (std::find(retry_failed_.begin(), retry_failed_.end(), page) ==
              retry_failed_.end()) {
            cache_->Insert(page);
          }
        }
      }
    }
  } else {
    for (PageId page : prep.pages) {
      if (cache_->TouchIfPresent(page)) {
        ++q.pages_hit;
        continue;
      }
      bool ok = false;
      q.residual_io_us +=
          ReadDemandPageWithRetries(page, q.residual_io_us, &q, &ok);
      if (ok && config_.cache_residual_reads) cache_->Insert(page);
    }
  }
  q.result_objects = prep.objects.size();

  q.response_us = q.residual_io_us + carried_overflow_;
  carried_overflow_ = 0;
  // Graph building is part of the user-visible response (the Figure 14
  // breakdown): it is interleaved with result retrieval, so it extends
  // query execution, not the idle window.
  // (Added below once the breakdown is known.)

  // --- Prediction computation + prefetch window (Figure 2). ---
  const SimMicros d_cold = ColdReadCost(prep.pages);
  q.window_us = static_cast<SimMicros>(config_.prefetch_window_ratio *
                                       static_cast<double>(d_cold));

  QueryResultView view;
  view.region = &region;
  view.objects = std::span<const GraphInput>(prep.objects);
  view.pages = std::span<const PageId>(prep.pages);
  q.observe_us = prefetcher_->Observe(view, observe_prep);

  const ObserveBreakdown& breakdown = prefetcher_->last_observe();
  q.graph_build_us = breakdown.graph_build_us;
  q.prediction_us = breakdown.prediction_us;
  q.graph_vertices = breakdown.graph_vertices;
  q.graph_edges = breakdown.graph_edges;
  q.graph_memory_bytes = breakdown.graph_memory_bytes;
  q.num_candidates = breakdown.num_candidates;
  q.was_reset = breakdown.was_reset;
  q.wall_graph_build_us = breakdown.wall_graph_build_us;
  q.wall_prediction_us = breakdown.wall_prediction_us;

  q.response_us += q.graph_build_us;

  // The deadline never truncates work (simulated metrics stay identical
  // whether or not anyone watches the budget) — it reports: a query whose
  // full response overran the budget ends kDeadlineExceeded.
  if (config_.fault_policy.query_deadline_us > 0 &&
      q.outcome == StatusCode::kOk &&
      q.response_us > config_.fault_policy.query_deadline_us) {
    q.outcome = StatusCode::kDeadlineExceeded;
  }

  SimMicros budget = q.window_us;
  if (config_.charge_prediction) {
    // Only the prediction (traversal) competes with the prefetch
    // window; graph building overlaps result retrieval (paper §4,
    // Figure 2) and is charged to the response above.
    const SimMicros predict_part = q.observe_us - q.graph_build_us;
    budget = std::max<SimMicros>(0, q.window_us - predict_part);
    carried_overflow_ = std::max<SimMicros>(0, predict_part - q.window_us);
  }

  // Prefetching starts after the response and whatever window share the
  // prediction consumed (Figure 2 timeline, in this stream's simulated
  // time — only the shared disk queue reads the absolute instant).
  const SimMicros window_start =
      sequence_now_ + q.response_us + (q.window_us - budget);
  WindowIo io(this, budget, window_start);
  prefetcher_->RunPrefetch(&io);
  q.prefetch_pages = io.pages_fetched();
  q.disk_wait_us += io.wait_us();
  q.admission_closed_window = io.admission_closed();
  q.shed_prefetches = io.shed();
  q.faults_seen += io.faults();

  // Advance this stream's issue timeline exactly like ClientSession: the
  // user sees the response, computes for the window, then issues the
  // next query.
  sequence_now_ += q.response_us + q.window_us;
  return q;
}

SequenceRunStats QueryExecutor::RunSequence(std::span<const Region> queries) {
  SequenceRunStats stats;
  stats.queries.reserve(queries.size());
  BeginSequence();
  PreparedQuery prep;
  for (const Region& region : queries) {
    Prepare(*index_, region, &prep);
    stats.queries.push_back(ExecuteQuery(region, prep));
  }
  return stats;
}

SequenceRunStats QueryExecutor::RunSequence(
    std::span<const Region> queries, std::span<const PreparedQuery> preps) {
  assert(preps.size() >= queries.size());
  SequenceRunStats stats;
  stats.queries.reserve(queries.size());
  BeginSequence();
  for (size_t i = 0; i < queries.size(); ++i) {
    stats.queries.push_back(ExecuteQuery(queries[i], preps[i]));
  }
  return stats;
}

// ===================================================================
// Real-I/O (file backend) serving. See RunSequenceFile's declaration
// for the contract; the short version: the PrefetchCache remains a
// purely LOGICAL plane driven through the exact same operation sequence
// in sync and async mode (so hits, evictions and fetch sets are
// bit-identical and rerun-deterministic), while bytes travel through
// frames_ — inline in sync mode; in async mode through the
// AsyncPrefetchPipeline's plan queue, which the fetch worker and the
// executor both take pages from. The worker never touches the cache;
// every cache mutation below runs on the executor thread.
// ===================================================================

namespace {

uint64_t Fnv1a(uint64_t h, const void* bytes, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvDouble(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return Fnv1a(h, &bits, sizeof(bits));
}

/// True when `sub` appears within `seq` in order (not necessarily
/// contiguously) — the shape the worker's issue log must have relative
/// to the plan order.
[[maybe_unused]] bool IsSubsequence(const std::vector<PageId>& sub,
                                    const std::vector<PageId>& seq) {
  size_t matched = 0;
  for (PageId p : seq) {
    if (matched < sub.size() && sub[matched] == p) ++matched;
  }
  return matched == sub.size();
}

}  // namespace

uint64_t QueryExecutor::HashResultObject(uint64_t h, const SpatialObject& obj,
                                         PageId page) {
  h = Fnv1a(h, &obj.id, sizeof(obj.id));
  h = Fnv1a(h, &obj.structure_id, sizeof(obj.structure_id));
  h = Fnv1a(h, &obj.path_index, sizeof(obj.path_index));
  const Vec3 p0 = obj.geom.p0();
  const Vec3 p1 = obj.geom.p1();
  h = FnvDouble(h, p0.x);
  h = FnvDouble(h, p0.y);
  h = FnvDouble(h, p0.z);
  h = FnvDouble(h, p1.x);
  h = FnvDouble(h, p1.y);
  h = FnvDouble(h, p1.z);
  h = FnvDouble(h, obj.geom.r0());
  h = FnvDouble(h, obj.geom.r1());
  return Fnv1a(h, &page, sizeof(page));
}

uint64_t QueryExecutor::HashPreparedObjects(
    uint64_t h, std::span<const GraphInput> objects) {
  for (const GraphInput& g : objects) {
    h = HashResultObject(h, *g.object, g.page);
  }
  return h;
}

size_t FileSequenceStats::TotalPagesTotal() const {
  size_t v = 0;
  for (const FileQueryStats& q : queries) v += q.pages_total;
  return v;
}

size_t FileSequenceStats::TotalPagesHit() const {
  size_t v = 0;
  for (const FileQueryStats& q : queries) v += q.pages_hit;
  return v;
}

size_t FileSequenceStats::TotalDemandReads() const {
  size_t v = 0;
  for (const FileQueryStats& q : queries) v += q.demand_reads;
  return v;
}

size_t FileSequenceStats::TotalPrefetchPlanned() const {
  size_t v = 0;
  for (const FileQueryStats& q : queries) v += q.prefetch_planned;
  return v;
}

size_t FileSequenceStats::TotalLateHitWaits() const {
  size_t v = 0;
  for (const FileQueryStats& q : queries) v += q.late_hit_waits;
  return v;
}

uint64_t FileSequenceStats::TotalFaultsSeen() const {
  uint64_t v = 0;
  for (const FileQueryStats& q : queries) v += q.faults_seen;
  return v;
}

uint32_t FileSequenceStats::TotalRetries() const {
  uint32_t v = 0;
  for (const FileQueryStats& q : queries) v += q.retries;
  return v;
}

size_t FileSequenceStats::UnavailableQueries() const {
  size_t v = 0;
  for (const FileQueryStats& q : queries) {
    v += q.outcome == StatusCode::kUnavailable ? 1 : 0;
  }
  return v;
}

/// PrefetchIo implementation for the file backend: captures the
/// prefetcher's plan (in plan order, deduplicated against the logical
/// cache and the plan itself) instead of performing I/O. The window is
/// a fixed page budget — the file backend has no simulated clock, and a
/// deterministic budget is what keeps sync and async runs planning
/// identical fetch sets.
class QueryExecutor::FilePlanIo : public PrefetchIo {
 public:
  FilePlanIo(QueryExecutor* executor, size_t budget,
             std::vector<PageId>* plan)
      : executor_(executor), budget_(budget), plan_(plan) {}

  void QueryPages(const Region& region, std::vector<PageId>* out) override {
    executor_->index_->QueryPages(region, out);
  }

  bool IsCached(PageId page) const override {
    return executor_->cache_->Contains(page) ||
           std::find(plan_->begin(), plan_->end(), page) != plan_->end();
  }

  bool FetchPage(PageId page) override {
    if (IsCached(page)) return true;
    if (plan_->size() >= budget_) return false;
    plan_->push_back(page);
    return true;
  }

  bool WindowOpen() const override { return plan_->size() < budget_; }

 private:
  QueryExecutor* executor_;
  size_t budget_;
  std::vector<PageId>* plan_;
};

bool QueryExecutor::ApplyCompletion(AsyncFetchResult&& r, FileQueryStats* q) {
  BatchRead* b = r.urgent ? FindBatchRead(r.page) : nullptr;
  if (b != nullptr && !b->late_hit && !b->done) {
    // A demand attempt: DemandReadFilePage accounts its outcome.
    b->done = true;
    b->status = r.status;
  } else if (!r.status.ok()) {
    // The transfer failed, so the page never arrived: withdraw its
    // logical cache entry (mirrors the sync path's erase-on-failure).
    cache_->Erase(r.page);
    if (q != nullptr) ++q->faults_seen;
  }
  if (r.status.ok() && frames_[r.page] == nullptr) {
    frames_[r.page] = std::make_unique<Page>(std::move(r.data));
  }
  return r.status.ok();
}

bool QueryExecutor::ReadPageInline(PageId page, bool urgent,
                                   FileQueryStats* q) {
  AsyncFetchResult r;
  r.page = page;
  r.urgent = urgent;
  r.status = config_.io.store->ReadPage(page, &r.data);
  return ApplyCompletion(std::move(r), q);
}

void QueryExecutor::ReadQueryBatch(std::span<const PageId> pages,
                                   AsyncPrefetchPipeline* pipeline,
                                   FileQueryStats* q) {
  batch_.clear();
  for (PageId page : pages) {
    // Contains moves no LRU position, so the per-page loop's
    // TouchIfPresent sees the cache exactly as sync serving does.
    if (!cache_->Contains(page)) {
      batch_.push_back({.page = page});  // A certain miss.
      continue;
    }
    if (frames_[page] != nullptr) continue;
    switch (pipeline->TakeQueued(page)) {
      case AsyncPrefetchPipeline::Stage::kTaken:
        ++q->late_hit_waits;
        ++q->late_hit_steals;
        batch_.push_back({.page = page, .late_hit = true});
        break;
      case AsyncPrefetchPipeline::Stage::kAbsent:
        // A hit whose bytes are not coming: the loop demand-reads it.
        batch_.push_back({.page = page});
        break;
      case AsyncPrefetchPipeline::Stage::kInFlight:
        break;  // Waited for in AwaitFramePage.
    }
  }
  if (batch_.empty()) return;
  // The executor keeps the first page, so a one-page batch never waits
  // on a hand-off, and reads urgent pages beside the worker until none
  // is left.
  const size_t worker_reads = pipeline->WorkerUrgentReads();
  for (size_t i = 1; i < batch_.size(); ++i) {
    pipeline->PushUrgent(batch_[i].page);
  }
  PageId page = batch_[0].page;
  do {
    ReadPageInline(page, /*urgent=*/true, q);
  } while (pipeline->TakeUrgent(&page));
  // The urgent lane is empty: the worker took the pages this thread did
  // not.
  q->batch_worker_reads = pipeline->WorkerUrgentReads() - worker_reads;
}

QueryExecutor::BatchRead* QueryExecutor::FindBatchRead(PageId page) {
  for (BatchRead& b : batch_) {
    if (b.page == page) return &b;
  }
  return nullptr;
}

const Page* QueryExecutor::AwaitFramePage(PageId page,
                                          AsyncPrefetchPipeline* pipeline,
                                          FileQueryStats* q) {
  const BatchRead* batched =
      pipeline != nullptr ? FindBatchRead(page) : nullptr;
  // A hit whose bytes were not coming: the batch holds its demand read,
  // which DemandReadFilePage accounts even though the bytes arrived.
  if (batched != nullptr && !batched->late_hit) return nullptr;
  if (frames_[page] != nullptr) return frames_[page].get();
  if (pipeline == nullptr) return nullptr;
  // The page is logically cached but its bytes are not in frames_ yet.
  // Apply the completions that are ready; it may be among them.
  AsyncFetchResult r;
  while (pipeline->TryDrainOne(&r)) {
    const PageId done = r.page;
    if (!ApplyCompletion(std::move(r), q) && done == page) return nullptr;
  }
  if (frames_[page] != nullptr) return frames_[page].get();
  // A late hit the worker reads: one in service, or one taken into the
  // batch (counted there) that the worker took from the urgent lane.
  if (batched == nullptr) ++q->late_hit_waits;
  while (frames_[page] == nullptr && pipeline->WaitDrainOne(&r)) {
    const PageId done = r.page;
    if (!ApplyCompletion(std::move(r), q) && done == page) break;
  }
  return frames_[page].get();
}

const Page* QueryExecutor::DemandReadFilePage(PageId page,
                                              AsyncPrefetchPipeline* pipeline,
                                              FileQueryStats* q,
                                              FileSequenceStats* stats) {
  FilePageStore* store = config_.io.store;
  ++q->demand_reads;
  stats->demand_order.push_back(page);
  BatchRead* batched = pipeline != nullptr ? FindBatchRead(page) : nullptr;
  if (batched != nullptr && batched->late_hit) batched = nullptr;
  const uint32_t max_retries = config_.fault_policy.max_retries;
  for (uint32_t attempt = 0;; ++attempt) {
    Status st;
    if (attempt == 0 && batched != nullptr) {
      // The batch read is attempt 0; its bytes, if any, are in frames_.
      AsyncFetchResult r;
      while (!batched->done && pipeline->WaitDrainOne(&r)) {
        ApplyCompletion(std::move(r), q);
      }
      assert(batched->done && "a batch read is always in flight");
      st = batched->status;
    } else {
      Page data;
      st = store->ReadPage(page, &data);
      if (st.ok() && frames_[page] == nullptr) {
        frames_[page] = std::make_unique<Page>(std::move(data));
      }
    }
    if (st.ok()) return frames_[page].get();
    ++q->faults_seen;
    // Only transient (kUnavailable) failures are worth retrying; the
    // file backend has no simulated clock, so retries are immediate
    // (each attempt advances the fault schedule's op timeline).
    if (st.code() != StatusCode::kUnavailable || attempt >= max_retries) {
      q->outcome = st.code();
      return nullptr;
    }
    ++q->retries;
  }
}

FileSequenceStats QueryExecutor::RunSequenceFile(
    std::span<const Region> queries) {
  return RunSequenceFile(queries, FileRunOptions{});
}

FileSequenceStats QueryExecutor::RunSequenceFile(
    std::span<const Region> queries, const FileRunOptions& options) {
  FileSequenceStats stats;
  FilePageStore* store = config_.io.store;
  assert(config_.io.backend == IoBackend::kFile && store != nullptr);
  assert(disk_queue_ == nullptr && "file serving uses the page file, not "
                                   "the simulated shared disk");
  const size_t num_pages = store->NumPages();
  if (!options.warm_start || frames_.size() != num_pages) {
    // A borrowed shared cache is never cleared (its contents belong to
    // all sessions); stale logical entries whose bytes we don't hold
    // degrade gracefully into demand reads.
    if (owns_cache()) owned_cache_->Clear();
    frames_.clear();
    frames_.resize(num_pages);
  }
  // Shared-cache attribution: every cache operation below runs on this
  // thread — including completions applied from the async pipeline — so
  // one bracket covers the whole sequence and the fetch worker can
  // never race SetActiveSession.
  if (!owns_cache()) cache_->SetActiveSession(session_id_);
  prefetcher_->BeginSequence();

  std::unique_ptr<AsyncPrefetchPipeline> pipeline;
  if (config_.io.async_prefetch) {
    pipeline = std::make_unique<AsyncPrefetchPipeline>(
        store, AsyncPrefetchPipeline::Options{});
    pipeline->Start();
  }

  uint64_t hash = kResultHashSeed;
  stats.queries.reserve(queries.size());
  std::vector<PageId> pages;
  for (const Region& region : queries) {
    LookupPages(*index_, region, &pages);
    FileQueryStats q;
    const Stopwatch q_sw;
    q.pages_total = pages.size();
    file_objects_.clear();
    if (options.collect_results) stats.results.emplace_back();

    // --- Execute: read the query's blocking pages as one batch on both
    // device channels (async), then serve result pages, decode, filter.
    // Sync serving reads each miss inline, in the same order. ---------
    if (pipeline != nullptr) ReadQueryBatch(pages, pipeline.get(), &q);
    for (PageId page : pages) {
      const Page* data = nullptr;
      if (cache_->TouchIfPresent(page)) {
        ++q.pages_hit;
        data = AwaitFramePage(page, pipeline.get(), &q);
      }
      if (data == nullptr) {
        data = DemandReadFilePage(page, pipeline.get(), &q, &stats);
        if (data != nullptr && config_.cache_residual_reads) {
          cache_->Insert(page);
        }
      }
      if (data == nullptr) continue;  // Degraded: partial results.
      // The filter Prepare runs, so decoded results are object-for-object
      // identical to the in-memory oracle.
      FilterPage(region, page, *data, &file_objects_);
    }
    q.result_objects = file_objects_.size();
    for (const GraphInput& g : file_objects_) {
      hash = HashResultObject(hash, *g.object, g.page);
      if (options.collect_results) stats.results.back().push_back(*g.object);
    }
    q.wall_response_us = q_sw.ElapsedMicros();

    // --- Predict + capture the plan. ---------------------------------
    QueryResultView view;
    view.region = &region;
    view.objects = std::span<const GraphInput>(file_objects_);
    view.pages = std::span<const PageId>(pages);
    prefetcher_->Observe(view);
    file_plan_.clear();
    FilePlanIo io(this, config_.io.prefetch_budget_pages, &file_plan_);
    prefetcher_->RunPrefetch(&io);
    q.prefetch_planned = file_plan_.size();

    // --- Fetch the plan. The logical Insert happens at the same
    // operation position in both modes; only the bytes' transport
    // differs. Sync reads each plan page inline. Async queues the whole
    // plan at once, so the fetch worker starts at once, then spends
    // what is left of the think gap reading the oldest queued pages on
    // this thread: the executor's device channel works beside the
    // worker's instead of idling through the gap. --------------------
    for (PageId page : file_plan_) {
      cache_->Insert(page);
      stats.prefetch_order.push_back(page);
      if (pipeline == nullptr) {
        ReadPageInline(page, /*urgent=*/false, &q);
        continue;
      }
      while (!pipeline->TryEnqueue(page)) {
        // Backpressure: apply a completion to free a slot. Plan pages
        // are never dropped, preserving the superset-ordering contract.
        AsyncFetchResult r;
        if (pipeline->WaitDrainOne(&r)) ApplyCompletion(std::move(r), &q);
      }
    }
    PageId oldest = kInvalidPageId;
    while (pipeline != nullptr &&
           q_sw.ElapsedMicros() - q.wall_response_us <
               config_.io.think_time_us &&
           pipeline->TakeOldest(&oldest)) {
      ReadPageInline(oldest, /*urgent=*/false, &q);
    }

    // --- Think time: the user issues the next query think_time_us
    // after seeing the response. Prediction and the plan reads started
    // inside that gap delay the next query when they overrun it: sync
    // reads the whole plan there, async only the pages it took before
    // the gap ran out. -------------------------------------------------
    const int64_t after_response = q_sw.ElapsedMicros() - q.wall_response_us;
    if (config_.io.think_time_us > after_response) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.io.think_time_us - after_response));
    }
    stats.queries.push_back(q);
  }

  if (pipeline != nullptr) {
    // Quiesce: the worker reads what is still queued and exits, then
    // the remaining completions are applied on this thread.
    pipeline->Stop();
    FileQueryStats* tail =
        stats.queries.empty() ? nullptr : &stats.queries.back();
    AsyncFetchResult r;
    while (pipeline->TryDrainOne(&r)) ApplyCompletion(std::move(r), tail);
    // Superset-ordering contract: the worker issued the plan-lane pages
    // the executor did not take, in plan order — its log must be a
    // subsequence of the plan.
    assert(IsSubsequence(pipeline->IssueLog(), stats.prefetch_order));
  }
  if (!owns_cache()) cache_->SetActiveSession(PrefetchCache::kNoSession);
  stats.result_hash = hash;
  return stats;
}

}  // namespace scout
