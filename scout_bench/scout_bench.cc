/// scout_bench: closed-loop query response of SCOUT serving over the
/// real page file, measured from outside the engine.
///
/// Usage (the entry point run.py builds this program first):
///   scout_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///               [--scale full|tiny] [--reps N] [--trace-file PATH]
///
/// Set-up (fixed; timed as setup_s, the median of 9 repetitions):
///   NeuronStack(345000) -> 302,050 objects, an STR R-tree of 3,472 pages,
///   written with FilePageStore::WriteFile (28.4 MB) and opened with a
///   300 µs deadline-paced device latency. Prefetch cache ScaledCacheBytes
///   (416 pages, 12% of the store); prefetcher ScoutPrefetcher{ScoutConfig{}};
///   think time 300 µs; prefetch budget 4 pages. `--scale tiny` uses 24,000
///   objects and at most 3 sequences per pass (a smoke run of a few s).
///
/// Load: one closed-loop client on the main thread serving sequences 0,
/// 1, ... through QueryExecutor::RunSequenceFile until --seconds of
/// serving time are spent (~14,000 queries in 20 s on follow). Query i
/// is due `think` µs after query i-1's result is ready; the first query
/// of a sequence is due at the RunSequenceFile call.
/// "Ready" is entry into the Observe of the Prefetcher decorator — one
/// clock read per query, the only instrumentation of an untraced pass.
/// Program threads: this one, the async fetch worker, and the grid-hash
/// pool (min(nproc, 8)).
///
/// Inputs from --seed: sequence k follows the structure path of the k-th
/// fork of Rng(kSeed) (as RunGuidedExperiment draws them), shifted as a
/// whole by a per-sequence offset of up to a quarter query extent per
/// axis drawn from Rng(--seed). Every region, page set and result depends
/// on the seed, while the tour of structures stays fixed like the
/// dataset: with structures drawn from the seed too, the ~200 sequences a
/// run serves gave a 12% quartile spread of follow's response_p50_ms
/// across seeds, wider than the bound that metric could take; with the
/// fixed tour, 20 s runs spread it 1-5% on a 4-core host.
///
/// Workloads (why each exists):
///   follow       model-building (35 adjacent 20,000 µm³ cubes along one
///                structure), async, every sequence cold. The paper's
///                case; prediction and the fetch worker do the work.
///   follow-sync  the same queries with io.async_prefetch=false: the bypass
///                for any async-pipeline change (0 late-hit waits), and
///                where the stall behind the inline plan fetch dominates.
///   visualize    vis-high-quality (65 frustums of 30,000 µm³), async, cold:
///                the index walk, filtering and demand reads dominate.
///   session      model-building sequences back to back on one executor
///                with warm_start: the working set outgrows the 416-page
///                cache, so eviction and memory move only here.
///
/// End-to-end metrics (--trace 0), from one pass over --seconds:
///   response_p50_ms / response_p99_ms  nearest-rank percentiles of
///       (ready - due) over all queries of the pass (>= 9,000 samples in
///       20 s, so >= 90 beyond the p99);
///   queries_per_s   queries ÷ summed wall time of the RunSequenceFile calls;
///   hit_rate_pct    prefetch-cache hit pages ÷ result pages;
///   setup_s, peak_rss_mb (getrusage max RSS of this process).
/// --reps N splits --seconds into N passes, each serving the workload
/// from its first sequence on a fresh executor, and reports each
/// metric's median and quartiles over them. One pass is steadier: on a
/// 4-core host, four 5 s passes spread session's response_p50_ms 10%
/// across seeds (each pass restarts cold) where one 20 s pass spreads 4-6%.
/// Failed queries (outcome != kOk) are the result line's `failed` count.
///
/// Per-layer metrics (--trace 1): an untraced pass, then a traced pass,
/// each for half of --seconds. The traced pass's decorators (TracingIndex
/// and a TimedPrefetcher with a Tracer) record spans — query (due ->
/// ready) = stall (due -> first index call of the query's Prepare) +
/// serve (-> ready) ⊃ index.query; observe; plan ⊃ index.query — kept
/// in memory and written at exit as Chrome trace JSON
/// (--trace-file). Each layer's self time is printed; the self times must
/// sum to within 5% of the summed query spans. trace_overhead_pct compares
/// the traced pass's queries_per_s with the untraced one.
///
/// Correctness gate (exit 1): every sequence's result_hash must equal the
/// fold of HashPreparedObjects over an in-memory Prepare of each region
/// (that replay also times geom.filter_us_per_query). Cold workloads
/// re-serve their first 16 sequences in the other fetch mode (async for
/// follow-sync, sync otherwise), which must match on hash, hit, demand
/// and planned counters: follow and follow-sync serve the same queries.
///
/// Known gaps:
///   - FileQueryStats::wall_response_us starts after Prepare and after the
///     stall behind the previous plan fetch, so it is not the latency a
///     user sees; this benchmark times from the client's side instead.
///   - fig_wallclock's best-of-3 sequence wall time is not comparable with
///     these medians.
///   - Multi-client serving over the file backend waits for the executor
///     to have one serving loop; this is one client.
///   - Fault storms are left out: async file-backend fault draws depend on
///     thread timing (one shared op counter in FilePageStore::ReadPage).
///   - storage.device_busy_s is emulated: reads × the configured latency.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/query_executor.h"
#include "scout_bench_support.h"
#include "storage/file_page_store.h"
#include "workload/query_gen.h"

using namespace scout;
using namespace scout::bench;

namespace {

/// Sequences re-served in the other fetch mode by the async / sync
/// differential check.
constexpr size_t kModeCheckSequences = 16;

struct Options {
  std::string workload;
  uint64_t seed = kSeed;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;
  int reps = 1;
  std::string trace_file;
  bool corrupt_oracle = false;  ///< Flips one oracle hash (gate self-test).
};

void PrintUsage() {
  std::printf(
      "scout_bench: closed-loop SCOUT serving over the real page file\n"
      "  --workload NAME    follow | follow-sync | visualize | session\n"
      "  --seed N           workload seed (default %llu)\n"
      "  --seconds S        serving time per run (default 20)\n"
      "  --trace 0|1        1: per-layer metrics from a traced pass\n"
      "  --scale full|tiny  tiny: 24,000 objects, 3 sequences per pass\n"
      "  --reps N           untraced passes to split the time into;\n"
      "                     prints each metric's median and quartiles\n"
      "  --trace-file PATH  Chrome trace output of --trace 1\n"
      "  --corrupt-oracle   flip one oracle hash (the gate must fail)\n",
      static_cast<unsigned long long>(kSeed));
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      opt->trace = v == "1";
    } else if (arg == "--scale" && has_value) {
      const std::string v = argv[++i];
      if (v != "full" && v != "tiny") return false;
      opt->tiny = v == "tiny";
    } else if (arg == "--reps" && has_value) {
      opt->reps = std::atoi(argv[++i]);
    } else if (arg == "--trace-file" && has_value) {
      opt->trace_file = argv[++i];
    } else if (arg == "--corrupt-oracle") {
      opt->corrupt_oracle = true;
    } else {
      std::fprintf(stderr, "scout_bench: bad argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (opt->seconds <= 0.0 || opt->reps < 1) return false;
  if (FindWorkload(opt->workload) == nullptr) {
    std::fprintf(stderr, "scout_bench: unknown workload '%s'\n",
                 opt->workload.c_str());
    return false;
  }
  if (opt->trace_file.empty()) {
    opt->trace_file = "scout_bench_trace." + opt->workload + ".json";
  }
  return true;
}

/// Removes the generated page file when the run ends, on every path.
struct PageFileGuard {
  std::string path;
  ~PageFileGuard() { std::remove(path.c_str()); }
};

/// The workload's query sequences, drawn on demand. Sequence k follows
/// the structure path of the k-th fork of Rng(kSeed), as
/// RunGuidedExperiment draws them; the seed then shifts the whole
/// sequence by its own offset of up to kPlacementJitter query extents
/// per axis, which changes every region, page set and result while the
/// structure tour stays fixed, like the dataset.
class SequenceStream {
 public:
  SequenceStream(const Dataset& dataset, const QuerySequenceConfig& config,
                 uint64_t seed)
      : dataset_(dataset),
        config_(config),
        tour_(kSeed),
        placement_(seed),
        max_shift_(kPlacementJitter *
                   QueryExtent(config.query_volume, config.aspect)) {}

  const std::vector<Region>& Get(size_t k) {
    while (sequences_.size() <= k) {
      Rng r = tour_.Fork();
      std::vector<Region> queries =
          GenerateGuidedSequence(dataset_, config_, &r).queries;
      // Drawn one statement each: argument evaluation order is unspecified.
      const double dx = placement_.Uniform(-max_shift_, max_shift_);
      const double dy = placement_.Uniform(-max_shift_, max_shift_);
      const double dz = placement_.Uniform(-max_shift_, max_shift_);
      const Vec3 shift(dx, dy, dz);
      for (Region& q : queries) q = q.RecenteredAt(q.Center() + shift);
      sequences_.push_back(std::move(queries));
    }
    return sequences_[k];
  }

 private:
  static constexpr double kPlacementJitter = 0.25;

  const Dataset& dataset_;
  QuerySequenceConfig config_;
  Rng tour_;
  Rng placement_;
  double max_shift_;
  std::vector<std::vector<Region>> sequences_;
};

/// What the oracle replay of one sequence gives: the expected result
/// hash and the result pages of each query.
struct Oracle {
  uint64_t hash = QueryExecutor::kResultHashSeed;
  std::vector<std::vector<PageId>> pages;
};

/// One served sequence.
struct SequenceRecord {
  size_t index = 0;  ///< Position in the SequenceStream.
  size_t queries = 0;
  size_t ready_stamps = 0;
  uint64_t hash = 0;
  size_t pages_total = 0;
  size_t pages_hit = 0;
  size_t demand_reads = 0;
  size_t planned = 0;
  size_t late_hit_waits = 0;
  size_t failed = 0;
  std::vector<size_t> planned_per_query;
  std::vector<PageId> plan_order;
};

struct PassResult {
  std::vector<SequenceRecord> sequences;
  std::vector<double> response_ms;
  int64_t serve_ns = 0;
  size_t queries = 0;
  uint64_t store_reads = 0;
  uint64_t store_failed_reads = 0;
  uint64_t evictions = 0;

  double QueriesPerSecond() const {
    return serve_ns > 0 ? static_cast<double>(queries) * 1e9 /
                              static_cast<double>(serve_ns)
                        : 0.0;
  }
  double HitRatePct() const {
    size_t hit = 0, total = 0;
    for (const SequenceRecord& s : sequences) {
      hit += s.pages_hit;
      total += s.pages_total;
    }
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(hit) /
                                  static_cast<double>(total);
  }
  size_t Failed() const {
    size_t f = 0;
    for (const SequenceRecord& s : sequences) f += s.failed;
    return f;
  }
};

/// Everything a pass serves from.
struct Bench {
  const WorkloadDef* workload;
  BenchSetup setup;
  const MicrobenchSpec* spec;
  const SpatialIndex* index;
  FilePageStore* store;
  SequenceStream* stream;
};

ExecutorConfig ServingConfig(const Bench& b, FilePageStore* store,
                             bool async, int64_t think_us) {
  ExecutorConfig ecfg = ExecutorConfigFor(*b.spec, b.index->store());
  ecfg.io.backend = IoBackend::kFile;
  ecfg.io.store = store;
  ecfg.io.async_prefetch = async;
  ecfg.io.prefetch_budget_pages = b.setup.prefetch_budget_pages;
  ecfg.io.think_time_us = think_us;
  return ecfg;
}

SequenceRecord RecordOf(size_t index, const FileSequenceStats& stats,
                        size_t ready_stamps) {
  SequenceRecord r;
  r.index = index;
  r.queries = stats.queries.size();
  r.ready_stamps = ready_stamps;
  r.hash = stats.result_hash;
  r.pages_total = stats.TotalPagesTotal();
  r.pages_hit = stats.TotalPagesHit();
  r.demand_reads = stats.TotalDemandReads();
  r.planned = stats.TotalPrefetchPlanned();
  r.late_hit_waits = stats.TotalLateHitWaits();
  for (const FileQueryStats& q : stats.queries) {
    r.failed += q.outcome != StatusCode::kOk ? 1 : 0;
    r.planned_per_query.push_back(q.prefetch_planned);
  }
  r.plan_order = stats.prefetch_order;
  return r;
}

/// Serves sequences 0, 1, ... of the stream until `seconds` of serving
/// time are spent (at least one sequence; at most setup.max_sequences).
/// With a tracer, the index and prefetcher decorators record spans.
PassResult ServePass(const Bench& b, double seconds, Tracer* tracer) {
  PassResult pass;
  TracingIndex traced_index(b.index, tracer);
  const SpatialIndex* index = tracer != nullptr ? &traced_index : b.index;
  ScoutPrefetcher scout{ScoutConfig{}};
  TimedPrefetcher prefetcher(&scout, tracer);
  QueryExecutor executor(index, &prefetcher,
                         ServingConfig(b, b.store, b.workload->async_prefetch,
                                       b.setup.think_time_us));
  const uint64_t reads0 = b.store->reads();
  const uint64_t failed0 = b.store->failed_reads();
  const auto budget_ns = static_cast<int64_t>(seconds * 1e9);
  for (size_t k = 0;; ++k) {
    if (k > 0 && pass.serve_ns >= budget_ns) break;
    if (b.setup.max_sequences > 0 && k >= b.setup.max_sequences) break;
    const std::vector<Region>& queries = b.stream->Get(k);
    FileRunOptions run;
    run.warm_start = b.workload->warm_chain && k > 0;
    const uint64_t evictions0 =
        run.warm_start ? executor.cache().evictions() : 0;
    prefetcher.ClearReady();
    const int64_t call = NowNs();
    if (tracer != nullptr) tracer->BeginSequence(call);
    const FileSequenceStats stats = executor.RunSequenceFile(queries, run);
    pass.serve_ns += NowNs() - call;
    AppendResponsesMs(call, prefetcher.ready_ns(), b.setup.think_time_us,
                      &pass.response_ms);
    pass.evictions += executor.cache().evictions() - evictions0;
    pass.queries += stats.queries.size();
    pass.sequences.push_back(
        RecordOf(k, stats, prefetcher.ready_ns().size()));
  }
  pass.store_reads = b.store->reads() - reads0;
  pass.store_failed_reads = b.store->failed_reads() - failed0;
  return pass;
}

/// Replays one sequence in memory (QueryExecutor::Prepare per region):
/// the oracle hash and result pages. Adds the replay's Prepare time and
/// the index time inside it.
Oracle ReplayOracle(const SpatialIndex& index,
                    const std::vector<Region>& queries, int64_t* prepare_ns,
                    int64_t* index_ns) {
  Oracle o;
  TracingIndex timed(&index, nullptr);
  QueryExecutor::PreparedQuery prep;
  for (const Region& region : queries) {
    const int64_t start = NowNs();
    QueryExecutor::Prepare(timed, region, &prep);
    *prepare_ns += NowNs() - start;
    o.hash = QueryExecutor::HashPreparedObjects(o.hash, prep.objects);
    o.pages.push_back(prep.pages);
  }
  *index_ns += timed.total_ns();
  return o;
}

void CheckPass(const PassResult& pass, const std::map<size_t, Oracle>& oracles,
               const char* label, std::vector<std::string>* errors) {
  for (const SequenceRecord& s : pass.sequences) {
    const Oracle& o = oracles.at(s.index);
    char buf[256];
    if (s.hash != o.hash) {
      std::snprintf(buf, sizeof(buf),
                    "%s: sequence %zu result hash %llu != oracle %llu", label,
                    s.index, static_cast<unsigned long long>(s.hash),
                    static_cast<unsigned long long>(o.hash));
      errors->push_back(buf);
    }
    if (s.queries != o.pages.size() || s.ready_stamps != s.queries) {
      std::snprintf(buf, sizeof(buf),
                    "%s: sequence %zu served %zu queries, %zu ready stamps, "
                    "expected %zu",
                    label, s.index, s.queries, s.ready_stamps, o.pages.size());
      errors->push_back(buf);
    }
  }
}

/// Async / sync differential of the cold workloads: the first sequences
/// of `pass` re-served in the other fetch mode (with no device latency
/// and no think time, which change only wall time) must match on hash
/// and on the hit, demand and planned counters.
void CheckOtherMode(const Bench& b, const std::string& pagefile,
                    const PassResult& pass, std::vector<std::string>* errors) {
  auto opened = FilePageStore::Open(pagefile);
  if (!opened.ok()) {
    errors->push_back("mode check: cannot open page file: " +
                      opened.status().message());
    return;
  }
  const std::unique_ptr<FilePageStore> store = std::move(opened).value();
  ScoutPrefetcher scout{ScoutConfig{}};
  QueryExecutor executor(
      b.index, &scout,
      ServingConfig(b, store.get(), !b.workload->async_prefetch, 0));
  const size_t n = std::min(kModeCheckSequences, pass.sequences.size());
  for (size_t k = 0; k < n; ++k) {
    const SequenceRecord& mine = pass.sequences[k];
    const SequenceRecord other =
        RecordOf(k, executor.RunSequenceFile(b.stream->Get(k)), 0);
    if (other.hash != mine.hash || other.pages_hit != mine.pages_hit ||
        other.demand_reads != mine.demand_reads ||
        other.planned != mine.planned) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "mode check: sequence %zu differs between async and sync "
                    "(hits %zu/%zu, demand %zu/%zu, planned %zu/%zu)",
                    k, mine.pages_hit, other.pages_hit, mine.demand_reads,
                    other.demand_reads, mine.planned, other.planned);
      errors->push_back(buf);
    }
  }
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double PerQuery(double total, size_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

/// Metric values of one run, by name; every pass adds one sample.
using MetricSamples = std::map<std::string, std::vector<double>>;

void PrintResults(std::span<const MetricDef> defs, const MetricSamples& m,
                  bool correct, size_t attempted, size_t failed) {
  std::string json;
  for (const MetricDef& d : defs) {
    const std::vector<double>& samples = m.at(std::string(d.name));
    const Quartiles q = QuartilesOf(samples);
    const int name_len = static_cast<int>(d.name.size());
    const int unit_len = static_cast<int>(d.unit.size());
    std::printf("  %-36.*s %14.6f %-5.*s", name_len, d.name.data(), q.median,
                unit_len, d.unit.data());
    if (samples.size() > 1) std::printf("  [q1 %.6f, q3 %.6f]", q.q1, q.q3);
    std::printf("\n");
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%.*s\": {\"value\": %.10g, "
                  "\"unit\": \"%.*s\"}", json.empty() ? "" : ", ", name_len,
                  d.name.data(), q.median, unit_len, d.unit.data());
    json += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    PrintUsage();
    return 2;
  }
  const WorkloadDef* workload = FindWorkload(opt.workload);
  const BenchSetup setup = SetupForScale(opt.tiny);
  const MicrobenchSpec& spec = SpecOf(workload->spec);

  // ---- Set-up, timed: dataset + R-tree + page file + open. ------------
  const PageFileGuard pagefile{"scout_bench." + std::to_string(getpid()) +
                               ".pages"};
  FilePageStoreOptions store_options;
  store_options.device_latency_us = setup.device_latency_us;
  std::unique_ptr<NeuronStack> stack;
  std::unique_ptr<FilePageStore> store;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup.setup_reps; ++rep) {
    store.reset();
    stack.reset();
    const int64_t start = NowNs();
    stack = std::make_unique<NeuronStack>(setup.neuron_objects);
    const Status wrote =
        FilePageStore::WriteFile(stack->rtree->store(), pagefile.path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "scout_bench: cannot write page file: %s\n",
                   wrote.message().c_str());
      return 1;
    }
    auto opened = FilePageStore::Open(pagefile.path, store_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "scout_bench: cannot open page file: %s\n",
                   opened.status().message().c_str());
      return 1;
    }
    store = std::move(opened).value();
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  SequenceStream stream(stack->dataset, QueryConfigFor(spec), opt.seed);
  const Bench bench{workload, setup, &spec, stack->rtree.get(), store.get(),
                    &stream};
  std::printf(
      "scout_bench workload=%s seed=%llu scale=%s: %zu objects, %u pages, "
      "cache %llu pages, latency %lld us, think %lld us, budget %zu\n",
      workload->name.data(), static_cast<unsigned long long>(opt.seed),
      opt.tiny ? "tiny" : "full", stack->dataset.objects.size(),
      store->NumPages(),
      static_cast<unsigned long long>(ScaledCacheBytes(stack->rtree->store()) /
                                      kPageBytes),
      static_cast<long long>(setup.device_latency_us),
      static_cast<long long>(setup.think_time_us),
      setup.prefetch_budget_pages);

  // ---- Serve. -----------------------------------------------------------
  // A traced run splits its time between the untraced pass that
  // trace_overhead_pct compares against and the traced pass.
  std::vector<PassResult> passes;
  const int untraced = opt.trace ? 1 : opt.reps;
  const double pass_seconds = opt.seconds / (opt.trace ? 2 : untraced);
  for (int r = 0; r < untraced; ++r) {
    passes.push_back(ServePass(bench, pass_seconds, nullptr));
  }
  Tracer tracer(setup.think_time_us);
  if (opt.trace) passes.push_back(ServePass(bench, pass_seconds, &tracer));

  // ---- Correctness gate. ------------------------------------------------
  std::vector<std::string> errors;
  std::map<size_t, Oracle> oracles;
  int64_t prepare_ns = 0, oracle_index_ns = 0;
  size_t oracle_queries = 0;
  for (const PassResult& p : passes) {
    for (const SequenceRecord& s : p.sequences) {
      if (oracles.count(s.index) > 0) continue;
      oracles[s.index] = ReplayOracle(*bench.index, stream.Get(s.index),
                                      &prepare_ns, &oracle_index_ns);
      oracle_queries += stream.Get(s.index).size();
    }
  }
  if (opt.corrupt_oracle) oracles.begin()->second.hash ^= 1;
  for (size_t i = 0; i < passes.size(); ++i) {
    const std::string label = "pass " + std::to_string(i);
    CheckPass(passes[i], oracles, label.c_str(), &errors);
  }
  if (!workload->warm_chain) {
    CheckOtherMode(bench, pagefile.path, passes.front(), &errors);
  }

  MetricSamples m;
  size_t attempted = 0, failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.queries;
    failed += p.Failed();
  }
  std::printf("passes %zu, sequences %zu, queries %zu, failed %zu\n",
              passes.size(), passes.front().sequences.size(), attempted,
              failed);
  if (!opt.trace) {
    for (const PassResult& p : passes) {
      m["response_p50_ms"].push_back(NearestRank(p.response_ms, 50));
      m["response_p99_ms"].push_back(NearestRank(p.response_ms, 99));
      m["queries_per_s"].push_back(p.QueriesPerSecond());
      m["hit_rate_pct"].push_back(p.HitRatePct());
      if (!PercentileSupported(p.response_ms.size(), 99)) {
        std::printf("note: response_p99_ms has only %zu samples beyond it\n",
                    SamplesBeyond(p.response_ms.size(), 99));
      }
    }
    m["setup_s"].push_back(QuartilesOf(setup_s).median);
    m["peak_rss_mb"].push_back(PeakRssMiB());
    for (const std::string& e : errors) {
      std::fprintf(stderr, "scout_bench: GATE: %s\n", e.c_str());
    }
    PrintResults(kEndToEndMetrics, m, errors.empty(), attempted, failed);
    return errors.empty() ? 0 : 1;
  }

  // ---- Traced pass: per-layer metrics. ------------------------------------
  const PassResult& t = passes.back();
  const size_t q = t.queries;
  const SelfTimes self = ComputeSelfTimes(tracer.spans());
  const double total = static_cast<double>(self.ns[0]);
  const double self_error_pct =
      total > 0 ? 100.0 * std::abs(static_cast<double>(self.LayerSum()) -
                                   total) /
                      total
                : 0.0;
  std::printf("self time per query (us), traced pass:\n");
  for (size_t k = 1; k < kNumSpanKinds; ++k) {
    std::printf("  %-18.*s %10.2f\n", static_cast<int>(kSpanLayers[k].size()),
                kSpanLayers[k].data(),
                PerQuery(static_cast<double>(self.ns[k]) * 1e-3, q));
  }
  std::printf("  %-18s %10.2f  (layers sum to %.3f%% off)\n", "query",
              PerQuery(total * 1e-3, q), self_error_pct);
  if (self_error_pct > 5.0) {
    errors.push_back("trace: layer self times do not sum to the query spans");
  }
  if (tracer.queries() != q) {
    errors.push_back("trace: span count does not match the served queries");
  }

  PrefetchUse use;
  size_t planned = 0, demand = 0, late = 0;
  for (const SequenceRecord& s : t.sequences) {
    const PrefetchUse u =
        CountPrefetchUse(s.planned_per_query, s.plan_order,
                         oracles.at(s.index).pages);
    use.planned += u.planned;
    use.used += u.used;
    planned += s.planned;
    demand += s.demand_reads;
    late += s.late_hit_waits;
  }
  const double untraced_qps = passes.front().QueriesPerSecond();
  const auto us = [&](int64_t ns) {
    return PerQuery(static_cast<double>(ns) * 1e-3, q);
  };
  const auto per_q = [&](double v) { return PerQuery(v, q); };
  const auto set = [&](const char* name, double v) { m[name].push_back(v); };
  set("engine.serve_p50_ms", NearestRank(tracer.serve_ms(), 50));
  set("engine.serve_p99_ms", NearestRank(tracer.serve_ms(), 99));
  set("engine.stall_ms_per_query",
      PerQuery(static_cast<double>(tracer.stall_ns()) * 1e-6, q));
  set("engine.serve_self_us_per_query",
      us(self.ns[static_cast<size_t>(SpanKind::kServe)]));
  set("index.serve_us_per_query", us(tracer.index_serve_ns()));
  set("index.plan_us_per_query", us(tracer.index_plan_ns()));
  set("index.plan_calls_per_query",
      per_q(static_cast<double>(tracer.index_plan_calls())));
  set("index.pages_per_query",
      per_q(static_cast<double>(tracer.index_serve_pages())));
  set("geom.filter_us_per_query",
      PerQuery(static_cast<double>(prepare_ns - oracle_index_ns) * 1e-3,
               oracle_queries));
  set("graph.build_us_per_query",
      per_q(static_cast<double>(tracer.graph_build_us())));
  set("graph.edges_per_query", per_q(static_cast<double>(tracer.edges())));
  set("prefetch.observe_us_per_query", us(tracer.observe_ns()));
  set("prefetch.predict_us_per_query",
      per_q(static_cast<double>(tracer.predict_us())));
  set("prefetch.plan_us_per_query", us(tracer.plan_ns()));
  set("prefetch.candidates_per_query",
      per_q(static_cast<double>(tracer.candidates())));
  set("prefetch.planned_pages_per_query", per_q(static_cast<double>(planned)));
  set("prefetch.precision_pct",
      use.planned == 0 ? 0.0
                       : 100.0 * static_cast<double>(use.used) /
                             static_cast<double>(use.planned));
  set("prefetch.wasted_pages_per_query",
      per_q(static_cast<double>(use.planned - use.used)));
  set("pipeline.late_hit_waits_per_query", per_q(static_cast<double>(late)));
  set("storage.reads_per_query", per_q(static_cast<double>(t.store_reads)));
  set("storage.demand_reads_per_query", per_q(static_cast<double>(demand)));
  set("storage.failed_reads", static_cast<double>(t.store_failed_reads));
  set("storage.device_busy_s", static_cast<double>(t.store_reads) *
                                   static_cast<double>(setup.device_latency_us) *
                                   1e-6);
  set("cache.evictions_per_query", per_q(static_cast<double>(t.evictions)));
  set("trace_overhead_pct",
      untraced_qps > 0 ? 100.0 * (1.0 - t.QueriesPerSecond() / untraced_qps)
                       : 0.0);
  std::printf("untraced %.1f queries/s, traced %.1f queries/s; "
              "storage.device_busy_s is emulated (reads x latency)\n",
              untraced_qps, t.QueriesPerSecond());

  if (!WriteChromeTrace(opt.trace_file, tracer.spans())) {
    errors.push_back("cannot write trace file " + opt.trace_file);
  } else {
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                opt.trace_file.c_str());
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "scout_bench: GATE: %s\n", e.c_str());
  }
  PrintResults(kPerLayerMetrics, m, errors.empty(), attempted, failed);
  return errors.empty() ? 0 : 1;
}
