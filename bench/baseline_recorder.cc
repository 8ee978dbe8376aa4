/// Benchmark-baseline recorder (`make bench-record`): runs one fixed-seed
/// scenario for every figure/ablation bench target plus wall-clock micro
/// measurements of the hot paths (PrefetchCache ops, R-tree QueryPages,
/// grid-hash graph build) and appends a labelled snapshot to
/// BENCH_baseline.json. Successive PRs diff their snapshots against the
/// committed ones, so perf changes to the query/cache core are visible
/// in review. `--tiny` shrinks every scenario to CI-smoke size (seconds).
/// Multi-client rows always run under the engine's default QoS serving;
/// the seed3 anchors recorded under the older serving models (`pre-qos`,
/// `qos-cache-only`) are committed history the recorder does not redraw.

#include <bit>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/testing_support.h"
#include "common/stopwatch.h"
#include "graph/graph_builder.h"
#include "index/box_rtree.h"
#include "prefetch/scout_opt_prefetcher.h"
#include "storage/cache.h"
#include "storage/fault_model.h"

using namespace scout;
using namespace scout::bench;

namespace {

struct RecorderOptions {
  bool tiny = false;
  bool append = false;
  bool force = false;
  std::string label = "current";
  std::string out = "BENCH_baseline.json";
};

/// Scenario sizes. Full mode targets a ~1-2 minute recording; tiny mode
/// targets seconds (bench-smoke CI). Sizes are part of the recording
/// contract: changing them invalidates comparisons across snapshots.
struct RecorderScale {
  uint64_t neuron_objects;
  uint32_t sequences;
  size_t rtree_objects;
  size_t rtree_queries;
  size_t cache_pages;
  size_t cache_ops;
  size_t graph_objects;
  size_t graph_reps;
};

constexpr RecorderScale kFullScale = {120000, 6, 200000, 1000,
                                      4096,   1 << 20, 2048, 50};
constexpr RecorderScale kTinyScale = {24000, 2, 20000, 100,
                                      512,   1 << 16, 512, 5};

class Recorder {
 public:
  Recorder(const RecorderScale& scale, bool tiny) : scale_(scale), tiny_(tiny) {}

  /// Runs one guided-experiment scenario and records it as a fig row.
  void RecordFig(const std::string& bench, const std::string& scenario,
                 const Dataset& dataset, const SpatialIndex& index,
                 Prefetcher* prefetcher, const QuerySequenceConfig& qcfg,
                 const ExecutorConfig& ecfg) {
    Stopwatch sw;
    const ExperimentResult r = RunGuidedExperiment(
        dataset, index, prefetcher, qcfg, ecfg, scale_.sequences, kSeed);
    BaselineFigRow row;
    row.bench = bench;
    row.scenario = scenario;
    row.prefetcher = std::string(r.prefetcher_name);
    row.wall_ms = sw.ElapsedSeconds() * 1e3;
    row.sim_response_us = r.total_response_us;
    row.sim_residual_io_us = r.total_residual_us;
    row.hit_rate_pct = r.hit_rate_pct;
    row.speedup = r.speedup;
    figs.push_back(row);
    std::printf("%-24s %-18s %-10s %9.1f ms  hit %5.1f%%  speedup %.2f\n",
                bench.c_str(), scenario.c_str(), row.prefetcher.c_str(),
                row.wall_ms, row.hit_rate_pct, row.speedup);
  }

  void RecordMicro(const std::string& name, uint64_t ops, double wall_us) {
    BaselineMicroRow row;
    row.name = name;
    row.ops = ops;
    row.ns_per_op = ops > 0 ? wall_us * 1e3 / static_cast<double>(ops) : 0.0;
    micro.push_back(row);
    std::printf("%-32s %12llu ops %10.2f ns/op\n", name.c_str(),
                static_cast<unsigned long long>(ops), row.ns_per_op);
  }

  const RecorderScale& scale() const { return scale_; }
  bool tiny() const { return tiny_; }

  std::vector<BaselineFigRow> figs;
  std::vector<BaselineMicroRow> micro;

 private:
  RecorderScale scale_;
  bool tiny_;
};

/// Figure/ablation scenarios: one representative fixed-seed workload per
/// bench target (the full sweeps live in the bench binaries themselves;
/// the recorder pins one point of each so regressions are attributable).
void RecordFigScenarios(Recorder* rec, NeuronStack& stack) {
  PrefetcherSet set(stack.dataset.bounds);
  const PageStore& store = stack.rtree->store();

  const MicrobenchSpec& adhoc_stat = SpecOf("adhoc-stat");
  const MicrobenchSpec& adhoc_pattern = SpecOf("adhoc-pattern");
  const MicrobenchSpec& model_building = SpecOf("model-building");
  const MicrobenchSpec& vis_high = SpecOf("vis-high-quality");
  const MicrobenchSpec& vis_low = SpecOf("vis-low-quality");
  const MicrobenchSpec& vis_gaps = SpecOf("vis-gaps-high");

  rec->RecordFig("fig03_state_of_the_art", adhoc_pattern.name.data(),
                 stack.dataset, *stack.rtree, &set.scout(),
                 QueryConfigFor(adhoc_pattern),
                 ExecutorConfigFor(adhoc_pattern, store));
  rec->RecordFig("fig11_microbenchmarks", model_building.name.data(),
                 stack.dataset, *stack.rtree, &set.scout(),
                 QueryConfigFor(model_building),
                 ExecutorConfigFor(model_building, store));
  rec->RecordFig("fig11_microbenchmarks", adhoc_stat.name.data(),
                 stack.dataset, *stack.rtree, &set.ewma(),
                 QueryConfigFor(adhoc_stat),
                 ExecutorConfigFor(adhoc_stat, store));
  rec->RecordFig("fig12_gaps", vis_gaps.name.data(), stack.dataset,
                 *stack.rtree, &set.scout(), QueryConfigFor(vis_gaps),
                 ExecutorConfigFor(vis_gaps, store));

  {
    // fig13 sweeps the window ratio; pin ratio 1.0 on model-building.
    ExecutorConfig ecfg = ExecutorConfigFor(model_building, store);
    ecfg.prefetch_window_ratio = 1.0;
    rec->RecordFig("fig13_sensitivity", "model-building@r1.0", stack.dataset,
                   *stack.rtree, &set.scout(), QueryConfigFor(model_building),
                   ecfg);
  }
  rec->RecordFig("fig14_breakdown", vis_high.name.data(), stack.dataset,
                 *stack.rtree, &set.scout(), QueryConfigFor(vis_high),
                 ExecutorConfigFor(vis_high, store));
  rec->RecordFig("fig16_prediction_cost", vis_low.name.data(), stack.dataset,
                 *stack.rtree, &set.scout(), QueryConfigFor(vis_low),
                 ExecutorConfigFor(vis_low, store));

  // fig15 (graph build) is covered by the graph_grid_hash micro row.

  // fig17 (applicability) and the ablations run on the FLAT index, which
  // is also what SCOUT-OPT's sparse construction + gap traversal need.
  auto flat = std::move(*FlatIndex::Build(stack.dataset.objects));
  rec->RecordFig("fig17_applicability", adhoc_stat.name.data(), stack.dataset,
                 *flat, &set.scout(), QueryConfigFor(adhoc_stat),
                 ExecutorConfigFor(adhoc_stat, flat->store()));
  {
    ScoutOptPrefetcher scout_opt{ScoutConfig{}, flat.get()};
    rec->RecordFig("ablation_strategies", model_building.name.data(),
                   stack.dataset, *flat, &scout_opt,
                   QueryConfigFor(model_building),
                   ExecutorConfigFor(model_building, flat->store()));
  }
}

/// Multi-client shared-cache serving (fig_multiclient): N sessions, each
/// running one guided sequence, interleaved over ONE shared PrefetchCache
/// by the deterministic simulated-time scheduler, under the engine's
/// default QoS serving semantics (cache quotas, priced admission, shared
/// disk). The hit rate pools all sessions; successive PRs diff these rows
/// to see how shared-cache serving scales with concurrent users. Appended
/// after the single-client rows so their positions (and values) stay
/// comparable across snapshots.
void RecordMultiClientScenarios(Recorder* rec, NeuronStack& stack) {
  const MicrobenchSpec& model_building = SpecOf("model-building");
  const QuerySequenceConfig qcfg = QueryConfigFor(model_building);
  const ExecutorConfig ecfg =
      ExecutorConfigFor(model_building, stack.rtree->store());
  const PrefetcherFactory factory = [] {
    return std::make_unique<ScoutPrefetcher>(ScoutConfig{});
  };

  for (const uint32_t n : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    Stopwatch sw;
    const SharedCacheResult r = RunSharedCacheExperiment(
        stack.dataset, *stack.rtree, factory, qcfg, ecfg, n, kSeed,
        /*num_workers=*/1);
    BaselineFigRow row;
    row.bench = "fig_multiclient";
    row.scenario =
        std::string(model_building.name) + "@N" + std::to_string(n);
    row.prefetcher = r.combined.prefetcher_name;
    row.wall_ms = sw.ElapsedSeconds() * 1e3;
    row.sim_response_us = r.combined.total_response_us;
    row.sim_residual_io_us = r.combined.total_residual_us;
    row.hit_rate_pct = r.combined.hit_rate_pct;
    row.speedup = r.combined.speedup;
    row.multiclient = true;
    row.evictions_per_session =
        static_cast<double>(r.evictions) / static_cast<double>(n);
    row.sim_disk_wait_us = r.combined.total_disk_wait_us;
    row.cross_hit_share_pct = r.cross_hit_share_pct;
    rec->figs.push_back(row);
    std::printf(
        "%-24s %-18s %-10s %9.1f ms  hit %5.1f%%  speedup %.2f  "
        "(cross %4.1f%%, evict/S %.1f, wait %lld us)\n",
        row.bench.c_str(), row.scenario.c_str(), row.prefetcher.c_str(),
        row.wall_ms, row.hit_rate_pct, row.speedup, r.cross_hit_share_pct,
        row.evictions_per_session,
        static_cast<long long>(row.sim_disk_wait_us));
  }
}

/// Degraded-mode serving under injected faults (fig_faults): the
/// model-building workload at N = 8 over the default serving semantics
/// (outage faults need the shared disk), once fault-free and twice
/// through a moderate fault storm — retry-only vs retry+shed. The
/// fault-free row `...+f0` is the zero-fault anchor: its sim metrics
/// must stay bit-identical to the fig_multiclient model-building@N8 row
/// of the same snapshot (CI asserts this), proving the fault seams cost
/// nothing when no schedule is attached.
void RecordFaultScenarios(Recorder* rec, NeuronStack& stack) {
  const MicrobenchSpec& model_building = SpecOf("model-building");
  const QuerySequenceConfig qcfg = QueryConfigFor(model_building);
  const ExecutorConfig ecfg =
      ExecutorConfigFor(model_building, stack.rtree->store());
  const PrefetcherFactory factory = [] {
    return std::make_unique<ScoutPrefetcher>(ScoutConfig{});
  };

  FaultConfig storm;
  storm.seed = 0xdecafbad;
  storm.read_failure_prob = 0.08;
  storm.read_failure_burst_us = 4000;
  storm.channel_outage_prob = 0.25;
  storm.channel_outage_period_us = 200000;
  storm.channel_outage_us = 30000;
  storm.latency_spike_prob = 0.05;
  storm.latency_spike_multiplier = 6.0;
  const FaultSchedule schedule{storm};

  struct FaultScenario {
    const char* suffix;
    const FaultSchedule* faults;
    bool shed;
  };
  const FaultScenario scenarios[] = {
      {"f0", nullptr, true},
      {"storm-retry", &schedule, false},
      {"storm-shed", &schedule, true},
  };
  for (const FaultScenario& s : scenarios) {
    ExecutorConfig run_cfg = ecfg;
    run_cfg.fault_schedule = s.faults;
    run_cfg.fault_policy.shed_prefetch_on_retry = s.shed;
    Stopwatch sw;
    const SharedCacheResult r = RunSharedCacheExperiment(
        stack.dataset, *stack.rtree, factory, qcfg, run_cfg,
        /*num_sessions=*/8, kSeed, /*num_workers=*/1);
    BaselineFigRow row;
    row.bench = "fig_faults";
    row.scenario = std::string(model_building.name) + "@N8+" + s.suffix;
    row.prefetcher = r.combined.prefetcher_name;
    row.wall_ms = sw.ElapsedSeconds() * 1e3;
    row.sim_response_us = r.combined.total_response_us;
    row.sim_residual_io_us = r.combined.total_residual_us;
    row.hit_rate_pct = r.combined.hit_rate_pct;
    row.speedup = r.combined.speedup;
    row.multiclient = true;
    row.evictions_per_session = static_cast<double>(r.evictions) / 8.0;
    row.sim_disk_wait_us = r.combined.total_disk_wait_us;
    row.cross_hit_share_pct = r.cross_hit_share_pct;
    row.faulted = true;
    row.faults_seen = r.faults_seen;
    row.retries = r.retries;
    row.shed_prefetches = r.shed_prefetches;
    row.p99_response_us = r.p99_response_us;
    rec->figs.push_back(row);
    std::printf(
        "%-24s %-22s %-10s %9.1f ms  hit %5.1f%%  p99 %lld us  "
        "(faults %llu, retries %llu, shed %llu)\n",
        row.bench.c_str(), row.scenario.c_str(), row.prefetcher.c_str(),
        row.wall_ms, row.hit_rate_pct,
        static_cast<long long>(row.p99_response_us),
        static_cast<unsigned long long>(row.faults_seen),
        static_cast<unsigned long long>(row.retries),
        static_cast<unsigned long long>(row.shed_prefetches));
  }
}

/// Records the row and folds the checksum into the output so the work
/// cannot be optimized away (and snapshots can be sanity-compared).
void RecordOrUse(Recorder* rec, const char* name, uint64_t ops,
                 double wall_us, uint64_t checksum) {
  rec->RecordMicro(name, ops, wall_us);
  std::printf("  (%s checksum %llu)\n", name,
              static_cast<unsigned long long>(checksum));
}

/// Hot-path micro measurements (wall clock). These are the rows the
/// optimization track diffs for its >= 1.5x acceptance bars.
void RecordMicroScenarios(Recorder* rec) {
  const RecorderScale& scale = rec->scale();

  {
    // Mixed insert/refresh/evict traffic over a working set twice the
    // cache capacity — the PrefetchCache pattern the executor generates.
    PrefetchCache cache(scale.cache_pages * kPageBytes);
    Rng rng(11);
    const uint64_t working_set = scale.cache_pages * 2;
    Stopwatch sw;
    for (size_t i = 0; i < scale.cache_ops; ++i) {
      cache.Insert(static_cast<PageId>(rng.NextBounded(working_set)));
    }
    RecordOrUse(rec, "cache_insert_evict", scale.cache_ops,
                static_cast<double>(sw.ElapsedMicros()), cache.NumPages());
  }
  {
    // Pure hit path: the cost of serving one cache hit on resident pages
    // (hit test + LRU refresh, as the executor does per query page).
    PrefetchCache cache(scale.cache_pages * kPageBytes);
    for (PageId p = 0; p < scale.cache_pages; ++p) cache.Insert(p);
    Rng rng(12);
    uint64_t hits = 0;
    Stopwatch sw;
    for (size_t i = 0; i < scale.cache_ops; ++i) {
      const PageId p = static_cast<PageId>(rng.NextBounded(scale.cache_pages));
      if (cache.TouchIfPresent(p)) ++hits;
    }
    RecordOrUse(rec, "cache_hit_touch", scale.cache_ops,
                static_cast<double>(sw.ElapsedMicros()), hits);
  }
  {
    // R-tree range queries, same shape as micro_core_ops BM_RTreeRangeQuery.
    const Aabb bounds(Vec3(0, 0, 0), Vec3(300, 300, 300));
    auto index = std::move(
        *RTreeIndex::Build(benchsupport::RandomObjects(
            scale.rtree_objects, bounds, /*seed=*/4)));
    {
      Rng rng(5);
      std::vector<PageId> pages;
      uint64_t total_pages = 0;
      Stopwatch sw;
      for (size_t i = 0; i < scale.rtree_queries; ++i) {
        const Region query = Region::CubeAt(
            Vec3(rng.Uniform(30, 270), rng.Uniform(30, 270),
                 rng.Uniform(30, 270)),
            80000.0);
        pages.clear();
        index->QueryPages(query, &pages);
        total_pages += pages.size();
      }
      RecordOrUse(rec, "rtree_query_pages", scale.rtree_queries,
                  static_cast<double>(sw.ElapsedMicros()), total_pages);
    }
    {
      // Frustum-aspect queries through the same index: the
      // IntersectsPrefiltered walk the vis scenarios lean on (workload
      // shared with micro_core_ops BM_FrustumPrefilteredQuery via
      // benchsupport).
      Rng rng(15);
      std::vector<PageId> pages;
      uint64_t total_pages = 0;
      Stopwatch sw;
      for (size_t i = 0; i < scale.rtree_queries; ++i) {
        const Region query = benchsupport::NextFrustumQuery(&rng);
        pages.clear();
        index->QueryPages(query, &pages);
        total_pages += pages.size();
      }
      RecordOrUse(rec, "frustum_prefiltered_query", scale.rtree_queries,
                  static_cast<double>(sw.ElapsedMicros()), total_pages);
    }
  }
  {
    // Pure directory walk: box queries straight against a BoxRTree (no
    // PageStore behind it), isolating the SoA child-AABB loop the two
    // rows above sit on. Tree + query distribution shared with
    // micro_core_ops BM_RTreeDirectoryWalk via benchsupport (STR-packed
    // — an unsorted load would make every node cover the whole space
    // and reduce the walk to a linear scan).
    const BoxRTree tree =
        benchsupport::DirectoryWalkTree(scale.rtree_objects);
    Rng rng(17);
    std::vector<uint32_t> out;
    uint64_t total_hits = 0;
    Stopwatch sw;
    for (size_t i = 0; i < scale.rtree_queries; ++i) {
      const Aabb query = benchsupport::NextDirectoryWalkQuery(&rng);
      out.clear();
      tree.Query(query, &out);
      total_hits += out.size();
    }
    RecordOrUse(rec, "rtree_directory_walk", scale.rtree_queries,
                static_cast<double>(sw.ElapsedMicros()), total_hits);
  }
  {
    // fig15: grid-hash graph construction over one query result.
    const Aabb bounds(Vec3(0, 0, 0), Vec3(43, 43, 43));
    const auto objects =
        benchsupport::RandomObjects(scale.graph_objects, bounds, /*seed=*/3);
    std::vector<GraphInput> inputs;
    inputs.reserve(objects.size());
    for (const auto& obj : objects) inputs.push_back(GraphInput{&obj, 0});
    uint64_t edges = 0;
    Stopwatch sw;
    for (size_t r = 0; r < scale.graph_reps; ++r) {
      SpatialGraph graph;
      BuildGraphGridHash(inputs, bounds, 32768, &graph);
      edges += graph.NumEdges();
    }
    RecordOrUse(rec, "graph_grid_hash",
                scale.graph_reps * scale.graph_objects,
                static_cast<double>(sw.ElapsedMicros()), edges);
  }
  // New raw-speed rows land after the rows above so earlier snapshots'
  // row positions (and diff tooling keyed on them) stay comparable.
  {
    // Batched corner-hull prefilter (Frustum::HullOverlapBits) over a
    // blocked-SoA slot array — the per-chunk rejection step of the
    // directory walk, isolated. Workload shared with micro_core_ops
    // BM_FrustumBatchHullTest via benchsupport.
    constexpr uint32_t kBoxes = 4096;
    const std::vector<double> blocks =
        benchsupport::HullTestSlotBlocks(kBoxes);
    const Frustum frustum = benchsupport::HullTestFrustum();
    const size_t rounds = scale.rtree_queries;
    uint64_t survivors = 0;
    Stopwatch sw;
    for (size_t r = 0; r < rounds; ++r) {
      for (uint32_t base = 0; base < kBoxes; base += 64) {
        survivors +=
            std::popcount(frustum.HullOverlapBits(blocks.data(), base, 64));
      }
    }
    RecordOrUse(rec, "frustum_batch_hull_test", rounds * kBoxes,
                static_cast<double>(sw.ElapsedMicros()), survivors);
  }
}

void PrintUsage() {
  std::printf(
      "baseline_recorder: record a benchmark-baseline snapshot\n"
      "  --tiny          CI-smoke scale (seconds, not minutes)\n"
      "  --label NAME    snapshot label (default: current)\n"
      "  --out PATH      output JSON (default: BENCH_baseline.json)\n"
      "  --append        append a snapshot instead of rewriting the file\n"
      "                  (refuses labels already present in the file)\n"
      "  --force         append even if the label is already present\n"
      "  --help          this message\n");
}

}  // namespace

int main(int argc, char** argv) {
  RecorderOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--append") {
      opt.append = true;
    } else if (arg == "--force") {
      opt.force = true;
    } else if (arg == "--label" && i + 1 < argc) {
      opt.label = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (arg == "--help") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  // Refuse a duplicate-label append up front, before burning minutes of
  // recording (the checked write below re-validates at write time).
  if (opt.append && !opt.force &&
      BaselineContainsLabel(ReadFileOrEmpty(opt.out), opt.label)) {
    std::fprintf(stderr,
                 "label '%s' already exists in %s; pick a new label or pass "
                 "--force\n",
                 opt.label.c_str(), opt.out.c_str());
    return 1;
  }

  Recorder rec(opt.tiny ? kTinyScale : kFullScale, opt.tiny);
  std::printf("== baseline_recorder (label=%s, %s scale) ==\n",
              opt.label.c_str(), opt.tiny ? "tiny" : "full");
  Stopwatch total;
  {
    NeuronStack stack(rec.scale().neuron_objects, /*seed=*/1);
    RecordFigScenarios(&rec, stack);
    RecordMultiClientScenarios(&rec, stack);
    RecordFaultScenarios(&rec, stack);
  }
  RecordMicroScenarios(&rec);

  const std::string snapshot =
      BaselineSnapshotJson(opt.label, rec.tiny(), rec.figs, rec.micro);
  std::string error;
  if (!RecordBaselineSnapshot(opt.out, opt.append, opt.force, opt.label,
                              snapshot, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s snapshot '%s' (%zu fig rows, %zu micro rows) in %.1fs\n",
              opt.out.c_str(), opt.label.c_str(), rec.figs.size(),
              rec.micro.size(), total.ElapsedSeconds());
  return 0;
}
