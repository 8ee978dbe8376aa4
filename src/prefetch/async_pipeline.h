#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "storage/file_page_store.h"
#include "storage/page.h"

namespace scout {

/// One completed fetch handed back from the fetch worker to the
/// executor.
struct AsyncFetchResult {
  PageId page = kInvalidPageId;
  /// Read from the urgent lane (a query's batch) rather than the plan
  /// lane.
  bool urgent = false;
  Status status;
  Page data;  ///< Valid only when status.ok().
};

/// Asynchronous prefetch pipeline over a FilePageStore: two lanes of
/// queued pages that a dedicated fetch worker and the executor both
/// take pages from. One mutex guards both lanes, the page in service
/// and the list of completions; waits block on condition variables,
/// never poll.
///
/// Division of labour, by design:
///   * The plan lane holds prefetch plan pages in plan order. The urgent
///     lane holds the pages the current query blocks on: its certain
///     misses and its late hits taken out of the plan lane. The worker
///     reads every urgent page before any plan page, each lane in FIFO
///     order, and publishes each read as a completion. It never touches
///     the PrefetchCache — the executor applies completions on its own
///     thread, which is what keeps shared-cache attribution race-free
///     (TSan-pinned).
///   * The executor takes pages too and reads them on its own thread:
///     urgent pages beside the worker, a late hit out of the plan lane
///     before the worker starts it, and the oldest plan page while the
///     think gap leaves it idle. A taken page is never read by the
///     worker, so every page is read exactly once.
///   * Only plan-lane pages the worker reads enter its issue log, which
///     therefore stays a subsequence of the plan order.
///   * Backpressure, never loss: TryEnqueue refuses a plan page when
///     max_in_flight pages are pending, and the caller drains
///     completions and retries. PushUrgent never refuses; a query's
///     batch is bounded by its result pages.
class AsyncPrefetchPipeline {
 public:
  struct Options {
    /// Bound on pending pages (queued on either lane + in service +
    /// completed but not yet drained) that TryEnqueue admits.
    size_t max_in_flight = 64;
  };

  /// Where a page stands, as TakeQueued reports it.
  enum class Stage {
    kAbsent,    ///< Neither queued on either lane, in service nor
                ///< completed-undrained.
    kTaken,     ///< Was on the plan lane; now removed, the caller must
                ///< read it.
    kInFlight,  ///< Urgent, in service or completed: its completion
                ///< will come.
  };

  AsyncPrefetchPipeline(FilePageStore* store, const Options& options);
  AsyncPrefetchPipeline(const AsyncPrefetchPipeline&) = delete;
  AsyncPrefetchPipeline& operator=(const AsyncPrefetchPipeline&) = delete;
  /// Stops (draining both lanes) and joins the worker.
  ~AsyncPrefetchPipeline();

  /// Spawns the fetch worker (idempotent).
  void Start();
  /// Lets the worker read every queued page on both lanes, then joins
  /// it (idempotent). Undrained completions remain drainable afterwards.
  void Stop();

  /// Queues a plan page for the worker. Returns false when
  /// max_in_flight pages are pending.
  bool TryEnqueue(PageId page);
  /// Queues a page on the urgent lane, which the worker serves before
  /// any plan page. Never refuses.
  void PushUrgent(PageId page);

  /// Pops one completion if one is ready.
  bool TryDrainOne(AsyncFetchResult* out);
  /// Blocks until a completion is ready and pops it. Returns false at
  /// once when no completion can come: nothing is queued on either lane
  /// or in service, or no worker runs.
  bool WaitDrainOne(AsyncFetchResult* out);

  /// Removes `page` from the plan lane if the worker has not started
  /// it.
  Stage TakeQueued(PageId page);
  /// Removes the oldest plan-lane page, if any, into `*page`.
  bool TakeOldest(PageId* page);
  /// Removes the oldest urgent page, if any, into `*page`.
  bool TakeUrgent(PageId* page);
  /// Urgent pages the worker has taken so far.
  size_t WorkerUrgentReads();

  /// Plan-lane page ids in the order the WORKER issued them; urgent
  /// pages are not logged. Read only after Stop(), once the worker has
  /// been joined.
  const std::vector<PageId>& IssueLog() const { return issue_log_; }

 private:
  void WorkerLoop();

  FilePageStore* store_;  ///< Borrowed.
  Options options_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< A lane non-empty, or stop.
  std::condition_variable done_cv_;  ///< Completion published.
  std::deque<PageId> plan_;    ///< The plan lane.
  std::deque<PageId> urgent_;  ///< The urgent lane.
  PageId in_service_ = kInvalidPageId;
  std::deque<AsyncFetchResult> completions_;
  /// No worker runs, or it is to exit once both lanes are empty.
  bool stop_ = true;
  std::vector<PageId> issue_log_;  ///< Appended under mu_ by the worker.
  size_t worker_urgent_reads_ = 0;  ///< Counted under mu_ by the worker.

  std::thread worker_;  ///< Last: it uses every member above.
};

}  // namespace scout
