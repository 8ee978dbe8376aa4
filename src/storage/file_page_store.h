#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "storage/fault_model.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace scout {

/// Tuning knobs of the file-backed page store.
struct FilePageStoreOptions {
  /// Emulated per-read device latency, in wall-clock microseconds, added
  /// to every page read (including reads that fail). A locally generated
  /// page file sits in the OS page cache, where a 4 KB pread costs ~1 µs
  /// — too fast for prefetch overlap to be measurable or for the
  /// wall-clock figures to be stable. This knob restores a realistic
  /// device service time (an enterprise SAS/low-end NVMe read is in the
  /// 100–200 µs range), so scout_bench measures real thread overlap
  /// over an emulated device latency. 0 disables the emulation (tests).
  int64_t device_latency_us = 0;
};

/// File-backed PageStore: the real-I/O twin of the in-memory PageStore.
///
/// WriteFile serializes an STR-packed PageStore (the layout an index
/// build produced) into an on-disk page file; Open maps it back and
/// serves pread-based page reads. Pages keep their simulated identity
/// (4 KB / 87 objects accounting) but occupy fixed 8 KB physical blocks
/// on disk: geometry is stored as full-precision raw doubles (80 bytes
/// per object, vs the paper's 47-byte packed form) so a decode
/// round-trips bit-identically — the differential tests compare decoded
/// results against the in-memory oracle double-for-double.
///
/// Error seams follow PR 8's Status contract: a failed or short pread
/// maps EIO onto kUnavailable (transient, retryable) and everything
/// else onto kInternal; a stale page id returns kOutOfRange exactly like
/// PageStore::CheckedPage. An attached FaultSchedule injects
/// deterministic read failures on top (ReadFails drawn over a
/// monotonically-spaced operation counter), so the fault-storm soaks
/// exercise the same degraded-mode semantics as the simulated disk.
///
/// Thread safety: ReadPage is safe to call concurrently (pread carries
/// its own offset; counters are atomic; the optional fetch log takes a
/// mutex). The fault-draw operation counter is atomic too — injected
/// faults are deterministic for single-threaded read streams (the soak
/// tests), while concurrent readers see an interleaving-dependent but
/// still schedule-bounded draw sequence.
class FilePageStore {
 public:
  /// On-disk layout constants. Native-endian, single-machine contract:
  /// the page file is generated into the build tree by the bench/test
  /// that reads it, never committed or shipped.
  static constexpr uint64_t kMagic = 0x314750'54554F4353ull;  // "SCOUTPG1"
  static constexpr uint32_t kFormatVersion = 1;
  static constexpr size_t kHeaderBytes = 4096;
  static constexpr size_t kBlockBytes = 8192;
  static constexpr size_t kObjectRecordBytes = 80;

  /// Serializes `store` (every page in physical order) into the page
  /// file at `path`, replacing any existing file.
  static Status WriteFile(const PageStore& store, const std::string& path);

  /// Opens a page file written by WriteFile and validates its header.
  static StatusOr<std::unique_ptr<FilePageStore>> Open(
      const std::string& path, const FilePageStoreOptions& options);
  static StatusOr<std::unique_ptr<FilePageStore>> Open(
      const std::string& path) {
    return Open(path, FilePageStoreOptions{});
  }

  FilePageStore(const FilePageStore&) = delete;
  FilePageStore& operator=(const FilePageStore&) = delete;
  ~FilePageStore();

  /// Reads and decodes one page (pread at the page's block offset).
  /// Charges the emulated device latency, draws the injected-fault
  /// schedule, then performs the read. `out` is valid only on OK.
  Status ReadPage(PageId page, Page* out);

  uint32_t NumPages() const { return page_count_; }
  uint64_t NumObjects() const { return object_count_; }

  /// Attaches (or detaches, with nullptr) a deterministic fault schedule
  /// consulted by ReadPage: reads draw ReadFails over an op-counter
  /// timeline (kFaultOpSpacingUs apart), reusing the burst-window
  /// semantics of the simulated disk. Borrowed, never owned.
  void AttachFaults(const FaultSchedule* faults) { faults_ = faults; }
  const FaultSchedule* faults() const { return faults_; }

  /// Spacing of consecutive fault draws on the op-counter timeline.
  static constexpr SimMicros kFaultOpSpacingUs = 1000;

  /// Turns on the fetch log: every ReadPage appends its page id, in
  /// global issue order across all reader threads. The differential
  /// tests use it to prove the async pipeline issues a
  /// superset-ordering of the sync plan.
  void EnableFetchLog();

  /// Snapshot of the fetch log. Callers must quiesce concurrent readers
  /// first if they need a complete order.
  std::vector<PageId> FetchLog() const;

  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t failed_reads() const {
    return failed_reads_.load(std::memory_order_relaxed);
  }

 private:
  FilePageStore() = default;

  int fd_ = -1;
  uint32_t page_count_ = 0;
  uint64_t object_count_ = 0;
  FilePageStoreOptions options_;
  const FaultSchedule* faults_ = nullptr;  ///< Borrowed; null = no faults.
  std::atomic<uint64_t> fault_ops_{0};     ///< Fault-draw timeline position.
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> failed_reads_{0};
  bool log_fetches_ = false;
  mutable std::mutex log_mutex_;
  std::vector<PageId> fetch_log_;
};

}  // namespace scout
