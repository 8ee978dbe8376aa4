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
  Status status;
  Page data;  ///< Valid only when status.ok().
};

/// Asynchronous prefetch pipeline over a FilePageStore: one plan queue
/// that a dedicated fetch worker and the executor both take pages from.
/// One mutex guards the queued pages, the page in service and the list
/// of completions; waits block on condition variables, never poll.
///
/// Division of labour, by design:
///   * The worker reads queued pages in FIFO (plan) order and publishes
///     each as a completion. It never touches the PrefetchCache — the
///     executor applies completions on its own thread, which is what
///     keeps shared-cache attribution race-free (TSan-pinned).
///   * The executor may take a page out of the queue and read it on its
///     own thread: a late hit on a page the worker has not started, or
///     the oldest queued page while the think gap leaves the executor
///     idle. A taken page is never read by the worker, so every page is
///     read exactly once and the worker's issue log stays a subsequence
///     of the plan order.
///   * Backpressure, never loss: TryEnqueue refuses when max_in_flight
///     pages are pending, and the caller drains completions and retries.
class AsyncPrefetchPipeline {
 public:
  struct Options {
    /// Bound on pending pages (queued + in service + completed but not
    /// yet drained).
    size_t max_in_flight = 64;
  };

  /// Where a page stands, as TakeQueued reports it.
  enum class Stage {
    kAbsent,    ///< Neither queued, in service nor completed-undrained.
    kTaken,     ///< Was queued; now removed, the caller must read it.
    kInFlight,  ///< In service or completed: its completion will come.
  };

  AsyncPrefetchPipeline(FilePageStore* store, const Options& options);
  AsyncPrefetchPipeline(const AsyncPrefetchPipeline&) = delete;
  AsyncPrefetchPipeline& operator=(const AsyncPrefetchPipeline&) = delete;
  /// Stops (draining the queue) and joins the worker.
  ~AsyncPrefetchPipeline();

  /// Spawns the fetch worker (idempotent).
  void Start();
  /// Lets the worker read every queued page, then joins it
  /// (idempotent). Undrained completions remain drainable afterwards.
  void Stop();

  /// Queues a plan page for the worker. Returns false when
  /// max_in_flight pages are pending.
  bool TryEnqueue(PageId page);

  /// Pops one completion if one is ready.
  bool TryDrainOne(AsyncFetchResult* out);
  /// Blocks until a completion is ready and pops it. Returns false at
  /// once when no completion can come: nothing is queued or in service,
  /// or no worker runs.
  bool WaitDrainOne(AsyncFetchResult* out);

  /// Removes `page` from the queue if the worker has not started it.
  Stage TakeQueued(PageId page);
  /// Removes the oldest queued page, if any, into `*page`.
  bool TakeOldest(PageId* page);

  /// Page ids in the order the WORKER issued them. Read only after
  /// Stop(), once the worker has been joined.
  const std::vector<PageId>& IssueLog() const { return issue_log_; }

 private:
  void WorkerLoop();

  FilePageStore* store_;  ///< Borrowed.
  Options options_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< Queue non-empty or stop.
  std::condition_variable done_cv_;  ///< Completion published.
  std::deque<PageId> queue_;
  PageId in_service_ = kInvalidPageId;
  std::deque<AsyncFetchResult> completions_;
  /// No worker runs, or it is to exit once the queue is empty.
  bool stop_ = true;
  std::vector<PageId> issue_log_;  ///< Appended under mu_ by the worker.

  std::thread worker_;  ///< Last: it uses every member above.
};

}  // namespace scout
