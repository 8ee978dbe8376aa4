#pragma once

// Shared harness of the real-I/O wall-clock scenarios (fig_wallclock and
// the baseline recorder's fig_wallclock rows): build a neuron stack,
// pack its STR page store into an on-disk page file (generated into the
// working directory — the build tree in CI — and never committed), then
// serve the same guided model-building sequence four ways:
//
//     cold x {sync, async}   and   warm x {sync, async}
//
// Sync fetches its prefetch plan inline between queries; async queues it
// for the fetch worker. Both modes drive the logical prefetch
// cache through the identical operation sequence, so their results (and
// hit/demand counters) are bit-identical — the harness reports the
// result hashes so callers can assert it — and the only difference is
// WALL CLOCK: sync pays demand I/O + plan I/O serially on one thread,
// async overlaps plan fetching with demand reads, filtering and think
// time (the executor's demand pread and the worker's prefetch pread
// sleep their emulated device latency concurrently — queue depth 2).
//
// Where the win comes from: per query, sync serves, predicts, then
// fetches the plan inline — only the part of the plan fetch that fits
// inside the think gap is hidden, so sync costs about
// response + max(think, plan * latency), and the plan sizes are
// BURSTY — sync must finish each burst before the next query can
// start. Async transport is hybrid: the executor queues the whole plan
// for the worker, then reads the oldest queued pages itself until the
// think gap is spent (the same free window sync uses), and a late hit
// on a page still queued is read by the executor too. The two device
// channels fetch concurrently and a burst is amortized across the
// following queries' gaps and demand I/O. With best-of-`reps`
// measurement the defaults below gave a full-scale cold speedup of
// 1.4-1.8x over five runs on a 4-core host, above the 1.2x regression
// gate fig_wallclock and CI enforce.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "engine/query_executor.h"
#include "storage/file_page_store.h"
#include "workload/query_gen.h"

namespace scout::bench {

struct WallclockOptions {
  uint64_t neuron_objects = 120000;
  int64_t device_latency_us = 300;  ///< Emulated per-read device time.
  int64_t think_time_us = 300;      ///< Gap between response and next query.
  size_t prefetch_budget_pages = 4;
  /// Wall-clock benchmarking standard practice: each mode runs `reps`
  /// times and the fastest run is reported (the minimum is the run
  /// with the least scheduler interference — the quantity the overlap
  /// model actually predicts). Results are deterministic, so every rep
  /// must produce the same hash and counters.
  int reps = 3;
  std::string pagefile = "fig_wallclock.pages";
};

/// One mode's measurements of one scenario (cold or warm).
struct WallclockModeResult {
  double wall_ms = 0.0;
  double hit_rate_pct = 0.0;
  uint64_t result_hash = 0;
  uint64_t demand_reads = 0;
  uint64_t prefetch_reads = 0;
  uint64_t late_hit_waits = 0;
};

struct WallclockResults {
  WallclockModeResult sync_cold, async_cold, sync_warm, async_warm;

  double ColdSpeedup() const {
    return async_cold.wall_ms > 0 ? sync_cold.wall_ms / async_cold.wall_ms
                                  : 0.0;
  }
  double WarmSpeedup() const {
    return async_warm.wall_ms > 0 ? sync_warm.wall_ms / async_warm.wall_ms
                                  : 0.0;
  }
  /// The differential contract, re-checked where the numbers are made:
  /// all four runs decode the exact same result stream.
  bool HashesAgree() const {
    return sync_cold.result_hash == async_cold.result_hash &&
           sync_cold.result_hash == sync_warm.result_hash &&
           sync_cold.result_hash == async_warm.result_hash;
  }
};

inline WallclockModeResult WallclockModeOf(const FileSequenceStats& stats) {
  WallclockModeResult r;
  r.wall_ms = static_cast<double>(stats.wall_total_us) / 1e3;
  r.hit_rate_pct = stats.CacheHitRatePct();
  r.result_hash = stats.result_hash;
  r.demand_reads = stats.TotalDemandReads();
  r.prefetch_reads = stats.TotalPrefetchPlanned();
  r.late_hit_waits = stats.TotalLateHitWaits();
  return r;
}

/// Runs all four scenarios. Returns false (with a message on stderr) on
/// page-file I/O failure. The page file is (re)generated at
/// `opt.pagefile` on every call.
inline bool RunWallclockScenarios(const WallclockOptions& opt,
                                  WallclockResults* out) {
  NeuronStack stack(opt.neuron_objects);
  const MicrobenchSpec& spec = SpecOf("model-building");
  const QuerySequenceConfig qcfg = QueryConfigFor(spec);
  Rng rng(kSeed);
  const GuidedSequence sequence =
      GenerateGuidedSequence(stack.dataset, qcfg, &rng);

  const Status wrote =
      FilePageStore::WriteFile(stack.rtree->store(), opt.pagefile);
  if (!wrote.ok()) {
    std::fprintf(stderr, "wallclock: cannot write page file: %s\n",
                 wrote.message().c_str());
    return false;
  }
  FilePageStoreOptions store_options;
  store_options.device_latency_us = opt.device_latency_us;

  for (const bool async : {false, true}) {
    WallclockModeResult best_cold, best_warm;
    for (int rep = 0; rep < std::max(1, opt.reps); ++rep) {
      auto opened = FilePageStore::Open(opt.pagefile, store_options);
      if (!opened.ok()) {
        std::fprintf(stderr, "wallclock: cannot open page file: %s\n",
                     opened.status().message().c_str());
        return false;
      }
      const std::unique_ptr<FilePageStore> store = std::move(opened).value();
      ScoutPrefetcher prefetcher{ScoutConfig{}};
      ExecutorConfig ecfg = ExecutorConfigFor(spec, stack.rtree->store());
      ecfg.io.backend = IoBackend::kFile;
      ecfg.io.store = store.get();
      ecfg.io.async_prefetch = async;
      ecfg.io.prefetch_budget_pages = opt.prefetch_budget_pages;
      ecfg.io.think_time_us = opt.think_time_us;
      QueryExecutor executor(stack.rtree.get(), &prefetcher, ecfg);

      const FileSequenceStats cold =
          executor.RunSequenceFile(sequence.queries);
      FileRunOptions warm_options;
      warm_options.warm_start = true;
      const FileSequenceStats warm =
          executor.RunSequenceFile(sequence.queries, warm_options);
      const WallclockModeResult c = WallclockModeOf(cold);
      const WallclockModeResult w = WallclockModeOf(warm);
      if (rep == 0 || c.wall_ms < best_cold.wall_ms) best_cold = c;
      if (rep == 0 || w.wall_ms < best_warm.wall_ms) best_warm = w;
    }
    (async ? out->async_cold : out->sync_cold) = best_cold;
    (async ? out->async_warm : out->sync_warm) = best_warm;
  }
  return true;
}

}  // namespace scout::bench
