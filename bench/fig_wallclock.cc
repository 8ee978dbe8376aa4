/// Real-I/O wall-clock speedup of decoupled async prefetching
/// (tentpole follow-on to the simulated figures): the model-building
/// guided sequence served from an on-disk page file, sync (plan fetched
/// inline between queries) vs async (plan handed to the dedicated fetch
/// worker), cold and warm. Every simulated figure keeps its DiskModel
/// oracle untouched; this bench is where the repo proves the async
/// pipeline buys REAL elapsed time, not just simulated time.
///
/// Self-checks (exit 1 on violation):
///   - bit-identity: all four runs must produce the same result hash —
///     async serving may not change a single decoded byte;
///   - regression gate: cold async must be >= 1.2x faster than cold
///     sync (the acceptance bar; defaults land around 1.3-1.9x).
///
/// The page file is generated into the working directory (the build
/// tree in CI) and is never committed.

#include <cstring>
#include <string>

#include "bench/wallclock_support.h"

using namespace scout;
using namespace scout::bench;

namespace {

constexpr double kMinColdSpeedup = 1.2;

void PrintUsage() {
  std::printf(
      "fig_wallclock: sync vs async real-I/O serving wall clock\n"
      "  --tiny            small dataset (CI smoke)\n"
      "  --pagefile PATH   page-file path (default: fig_wallclock.pages)\n"
      "  --latency-us N    emulated per-read device latency (default 300)\n"
      "  --think-us N      think time between queries (default 300)\n"
      "  --budget N        prefetch budget in pages per window\n"
      "  --help            this message\n");
}

void PrintMode(const char* label, const WallclockModeResult& r) {
  PrintRow(label,
           {r.wall_ms, r.hit_rate_pct, static_cast<double>(r.demand_reads),
            static_cast<double>(r.prefetch_reads),
            static_cast<double>(r.late_hit_waits)},
           1);
}

}  // namespace

int main(int argc, char** argv) {
  WallclockOptions opt;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--pagefile" && i + 1 < argc) {
      opt.pagefile = argv[++i];
    } else if (arg == "--latency-us" && i + 1 < argc) {
      opt.device_latency_us = std::atoll(argv[++i]);
    } else if (arg == "--think-us" && i + 1 < argc) {
      opt.think_time_us = std::atoll(argv[++i]);
    } else if (arg == "--budget" && i + 1 < argc) {
      opt.prefetch_budget_pages =
          static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--help") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  if (tiny) opt.neuron_objects = 24000;

  PrintHeader(
      "fig_wallclock: model-building over a real page file — sync vs "
      "decoupled async prefetch");
  std::printf("device latency %lld us/read, think %lld us, budget %zu pages\n",
              static_cast<long long>(opt.device_latency_us),
              static_cast<long long>(opt.think_time_us),
              opt.prefetch_budget_pages);

  WallclockResults results;
  if (!RunWallclockScenarios(opt, &results)) return 1;

  PrintColumns("scenario / mode",
               {"wall_ms", "hit%", "demand", "prefetch", "latewait"});
  PrintMode("cold sync", results.sync_cold);
  PrintMode("cold async", results.async_cold);
  PrintMode("warm sync", results.sync_warm);
  PrintMode("warm async", results.async_warm);
  std::printf("\ncold speedup %.2fx   warm speedup %.2fx\n",
              results.ColdSpeedup(), results.WarmSpeedup());

  if (!results.HashesAgree()) {
    std::fprintf(stderr,
                 "fig_wallclock: BIT-IDENTITY VIOLATED: sync/async result "
                 "hashes diverge (sync cold %llu, async cold %llu)\n",
                 static_cast<unsigned long long>(
                     results.sync_cold.result_hash),
                 static_cast<unsigned long long>(
                     results.async_cold.result_hash));
    return 1;
  }
  if (results.ColdSpeedup() < kMinColdSpeedup) {
    std::fprintf(stderr,
                 "fig_wallclock: REGRESSION: cold async speedup %.2fx is "
                 "below the %.2fx gate\n",
                 results.ColdSpeedup(), kMinColdSpeedup);
    return 1;
  }
  std::printf(
      "\nwall_ms = real elapsed time of the sequence; demand = reads\n"
      "issued for logical cache misses; prefetch = plan pages fetched\n"
      "(inline in sync; in async by the fetch worker, or by the executor\n"
      "when it takes a queued page); latewait = logically-hit pages whose\n"
      "bytes were still queued or in flight. The result\n"
      "hash of all four runs is verified identical, and cold async must\n"
      "beat cold sync by >= 1.2x (exit 1 otherwise).\n");
  return 0;
}
