#pragma once

// Header-only pieces of scout_bench (see scout_bench.cc for the
// benchmark's definitions): the workload table, the decorators that
// time the executor from outside through its SpatialIndex and
// Prefetcher interfaces, the span tracer, and the metric arithmetic.
// Kept apart from main() so scout_bench_test.cc can drive each piece.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/spatial_index.h"
#include "prefetch/prefetcher.h"

namespace scout::bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ workloads

/// One workload: which Figure-10 query shape its sequences take, how
/// the plan is fetched, and whether sequences run back to back on one
/// warm executor. Why each exists is recorded in scout_bench.cc and
/// BENCHMARK.json.
struct WorkloadDef {
  std::string_view name;
  std::string_view spec;  ///< kMicrobenchmarks row the sequences follow.
  bool async_prefetch;
  bool warm_chain;
};

inline constexpr WorkloadDef kWorkloads[] = {
    {"follow", "model-building", true, false},
    {"follow-sync", "model-building", false, false},
    {"visualize", "vis-high-quality", true, false},
    {"session", "model-building", true, true},
};

inline const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// Fixed set-up of one scale. `max_sequences` caps a pass (0: only the
/// time budget ends it).
struct BenchSetup {
  uint64_t neuron_objects = 345000;
  int64_t device_latency_us = 300;
  int64_t think_time_us = 300;
  size_t prefetch_budget_pages = 4;
  int setup_reps = 9;
  size_t max_sequences = 0;
};

inline BenchSetup SetupForScale(bool tiny) {
  BenchSetup s;
  if (tiny) {
    s.neuron_objects = 24000;
    s.max_sequences = 3;
  }
  return s;
}

// --------------------------------------------------------------- metrics

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Printed by an untraced run (--trace 0), in this order.
inline constexpr MetricDef kEndToEndMetrics[] = {
    {"response_p50_ms", "ms"}, {"response_p99_ms", "ms"},
    {"queries_per_s", "1/s"},  {"hit_rate_pct", "%"},
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
};

/// Printed by a traced run (--trace 1), in this order.
inline constexpr MetricDef kPerLayerMetrics[] = {
    {"engine.serve_p50_ms", "ms"},
    {"engine.serve_p99_ms", "ms"},
    {"engine.stall_ms_per_query", "ms"},
    {"engine.serve_self_us_per_query", "us"},
    {"index.serve_us_per_query", "us"},
    {"index.plan_us_per_query", "us"},
    {"index.plan_calls_per_query", "count"},
    {"index.pages_per_query", "count"},
    {"geom.filter_us_per_query", "us"},
    {"graph.build_us_per_query", "us"},
    {"graph.edges_per_query", "count"},
    {"prefetch.observe_us_per_query", "us"},
    {"prefetch.predict_us_per_query", "us"},
    {"prefetch.plan_us_per_query", "us"},
    {"prefetch.candidates_per_query", "count"},
    {"prefetch.planned_pages_per_query", "count"},
    {"prefetch.precision_pct", "%"},
    {"prefetch.wasted_pages_per_query", "count"},
    {"pipeline.late_hit_waits_per_query", "count"},
    {"storage.reads_per_query", "count"},
    {"storage.demand_reads_per_query", "count"},
    {"storage.failed_reads", "count"},
    {"storage.device_busy_s", "s"},
    {"cache.evictions_per_query", "count"},
    {"trace_overhead_pct", "%"},
};

/// Index into the sorted samples of the nearest-rank `percent`-th
/// percentile: rank ceil(percent/100 * n), integer arithmetic so 99% of
/// 4200 is exactly rank 4158. Requires n > 0.
inline size_t NearestRankIndex(size_t n, uint32_t percent) {
  const size_t rank = (static_cast<size_t>(percent) * n + 99) / 100;
  return std::clamp<size_t>(rank, 1, n) - 1;
}

/// Samples strictly above the nearest-rank percentile's position.
inline size_t SamplesBeyond(size_t n, uint32_t percent) {
  return n == 0 ? 0 : n - 1 - NearestRankIndex(n, percent);
}

/// A timing percentile is reported only when at least ten samples lie
/// beyond it (fewer make it the maximum of a handful of outliers).
inline bool PercentileSupported(size_t n, uint32_t percent) {
  return SamplesBeyond(n, percent) >= 10;
}

inline double NearestRank(std::vector<double> samples, uint32_t percent) {
  if (samples.empty()) return 0.0;
  const size_t k = NearestRankIndex(samples.size(), percent);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

/// First quartile, median and third quartile by the method of Python's
/// statistics.quantiles(values, n=4) (the "exclusive" default), so a
/// --reps summary and a script over separate runs agree.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

inline Quartiles QuartilesOf(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return {v[0], v[0], v[0]};
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp<long>(i * m / 4, 1, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                  v[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {out[0], out[1], out[2]};
}

/// Closed-loop response times of one sequence, appended in ms. Query 0
/// is due at `call_ns` (the RunSequenceFile call); query i is due
/// `think_us` after query i-1's result was ready. Response = ready - due.
inline void AppendResponsesMs(int64_t call_ns,
                              std::span<const int64_t> ready_ns,
                              int64_t think_us, std::vector<double>* out) {
  int64_t due = call_ns;
  for (const int64_t ready : ready_ns) {
    out->push_back(static_cast<double>(ready - due) * 1e-6);
    due = ready + think_us * 1000;
  }
}

/// Prefetched pages that a later query of the same sequence read, out
/// of all pages prefetched. `planned_per_query[i]` pages of `plan_order`
/// (consecutively, in query order) were planned after query i;
/// `result_pages[i]` are the pages query i's result covers.
struct PrefetchUse {
  uint64_t planned = 0;
  uint64_t used = 0;
};

inline PrefetchUse CountPrefetchUse(
    std::span<const size_t> planned_per_query,
    std::span<const PageId> plan_order,
    const std::vector<std::vector<PageId>>& result_pages) {
  std::unordered_map<PageId, size_t> last_read;  // page -> last query.
  for (size_t i = 0; i < result_pages.size(); ++i) {
    for (const PageId p : result_pages[i]) last_read[p] = i;
  }
  PrefetchUse use;
  size_t at = 0;
  for (size_t i = 0; i < planned_per_query.size(); ++i) {
    for (size_t k = 0; k < planned_per_query[i] && at < plan_order.size();
         ++k, ++at) {
      ++use.planned;
      const auto it = last_read.find(plan_order[at]);
      if (it != last_read.end() && it->second > i) ++use.used;
    }
  }
  return use;
}

// ---------------------------------------------------------------- spans

/// Span kinds. `query` (due -> ready) is split into `stall` (due -> the
/// first index call of the query's Prepare) and `serve` (that call ->
/// ready); those three are the client's view. The rest are calls on the
/// executor thread timed by the decorators: index lookups while serving
/// or planning, the prefetcher's Observe, and its RunPrefetch.
enum class SpanKind : uint8_t {
  kQuery,
  kStall,
  kServe,
  kIndexServe,
  kIndexPlan,
  kObserve,
  kPlan,
};
inline constexpr size_t kNumSpanKinds = 7;

inline constexpr std::string_view kSpanNames[kNumSpanKinds] = {
    "query", "stall", "serve", "index.query", "index.query", "observe",
    "plan"};

/// Layer a span kind's self time is reported under.
inline constexpr std::string_view kSpanLayers[kNumSpanKinds] = {
    "query",        "engine.stall",    "engine.serve",  "index.serve",
    "index.plan",   "prefetch.observe", "prefetch.plan"};

struct Span {
  SpanKind kind;
  uint32_t query;  ///< Id shared by every span of one query.
  int64_t start_ns;
  int64_t end_ns;
};

/// Self time of each layer inside the query spans, in ns. Time in a
/// query span is charged to the innermost executor call running then
/// (index inside plan, plan, observe, index inside serve); the rest
/// goes to the client-view piece it falls in (stall or serve). So a
/// previous query's Observe or RunPrefetch that overruns the think gap
/// shows as its own layer inside the next query's stall, and what is
/// left of the stall is the executor's inline plan fetch and sleep.
/// `ns[kQuery]` is the summed query span time; the other entries sum to
/// it when the spans are consistent (executor calls nested, client
/// pieces disjoint).
struct SelfTimes {
  std::array<int64_t, kNumSpanKinds> ns{};

  int64_t LayerSum() const {
    int64_t s = 0;
    for (size_t k = 1; k < kNumSpanKinds; ++k) s += ns[k];
    return s;
  }
};

inline SelfTimes ComputeSelfTimes(std::span<const Span> spans) {
  SelfTimes out;
  std::vector<Span> pieces;  // stall/serve, disjoint.
  std::vector<Span> calls;   // executor calls, nested.
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kQuery) {
      out.ns[0] += s.end_ns - s.start_ns;
    } else if (s.kind == SpanKind::kStall || s.kind == SpanKind::kServe) {
      pieces.push_back(s);
    } else {
      calls.push_back(s);
    }
  }
  const auto by_start = [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.end_ns > b.end_ns;  // Parent first.
  };
  std::sort(pieces.begin(), pieces.end(), by_start);
  std::sort(calls.begin(), calls.end(), by_start);

  // Flatten the nested calls into disjoint segments labelled with the
  // innermost call (children are clipped to their parent).
  struct Segment {
    int64_t start, end;
    SpanKind kind;
  };
  struct OpenCall {
    int64_t end;
    SpanKind kind;
  };
  std::vector<Segment> segs;
  std::vector<OpenCall> stack;
  int64_t t = 0;
  const auto emit = [&](int64_t until) {
    if (!stack.empty() && until > t) {
      segs.push_back({t, until, stack.back().kind});
    }
    t = std::max(t, until);
  };
  for (const Span& c : calls) {
    while (!stack.empty() && stack.back().end <= c.start_ns) {
      emit(stack.back().end);
      stack.pop_back();
    }
    if (stack.empty()) {
      t = c.start_ns;
    } else {
      emit(c.start_ns);
    }
    const int64_t end =
        stack.empty() ? c.end_ns : std::min(c.end_ns, stack.back().end);
    stack.push_back({std::max(end, c.start_ns), c.kind});
  }
  while (!stack.empty()) {
    emit(stack.back().end);
    stack.pop_back();
  }

  // Charge every piece: covered parts to the covering call, the rest to
  // the piece itself.
  size_t first = 0;
  for (const Span& p : pieces) {
    while (first < segs.size() && segs[first].end <= p.start_ns) ++first;
    int64_t covered = 0;
    for (size_t k = first; k < segs.size() && segs[k].start < p.end_ns; ++k) {
      const int64_t ov = std::min(segs[k].end, p.end_ns) -
                         std::max(segs[k].start, p.start_ns);
      if (ov > 0) {
        out.ns[static_cast<size_t>(segs[k].kind)] += ov;
        covered += ov;
      }
    }
    out.ns[static_cast<size_t>(p.kind)] += (p.end_ns - p.start_ns) - covered;
  }
  return out;
}

/// Writes `spans` as Chrome trace-event JSON (viewable in Perfetto or
/// chrome://tracing): client-view spans on thread 1, executor calls on
/// thread 2, timestamps in µs from the first span. Returns false on I/O
/// failure.
inline bool WriteChromeTrace(const std::string& path,
                             std::span<const Span> spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const bool client = s.kind == SpanKind::kQuery ||
                        s.kind == SpanKind::kStall ||
                        s.kind == SpanKind::kServe;
    const std::string_view name = kSpanNames[static_cast<size_t>(s.kind)];
    std::fprintf(f,
                 "{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"query\":%u}}%s\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<int>(
                     kSpanLayers[static_cast<size_t>(s.kind)].size()),
                 kSpanLayers[static_cast<size_t>(s.kind)].data(),
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 client ? 1 : 2, s.query, i + 1 < spans.size() ? "," : "");
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

/// Collects the spans and layer counters of a traced pass. Every hook
/// runs on the executor thread, in call order.
class Tracer {
 public:
  explicit Tracer(int64_t think_us) : think_ns_(think_us * 1000) {}

  /// RunSequenceFile is about to be called: its first query is due now.
  void BeginSequence(int64_t call_ns) {
    due_ns_ = call_ns;
    serve_start_ns_ = -1;
  }

  /// One SpatialIndex::QueryPages call that returned `pages` ids.
  void IndexCall(int64_t start_ns, int64_t end_ns, size_t pages) {
    if (in_plan_) {
      spans_.push_back({SpanKind::kIndexPlan, query_ - 1, start_ns, end_ns});
      index_plan_ns_ += end_ns - start_ns;
      ++index_plan_calls_;
      return;
    }
    if (serve_start_ns_ < 0) serve_start_ns_ = start_ns;
    spans_.push_back({SpanKind::kIndexServe, query_, start_ns, end_ns});
    index_serve_ns_ += end_ns - start_ns;
    index_serve_pages_ += pages;
  }

  /// The current query's result is ready (Observe was entered).
  void Ready(int64_t ready_ns) {
    const int64_t first_call = serve_start_ns_ < 0 ? due_ns_ : serve_start_ns_;
    // A query that started before it was due has no stall; its serve
    // piece is clipped to the query span so the pieces tile it.
    const int64_t start = std::max(first_call, due_ns_);
    spans_.push_back({SpanKind::kQuery, query_, due_ns_, ready_ns});
    spans_.push_back({SpanKind::kStall, query_, due_ns_, start});
    spans_.push_back({SpanKind::kServe, query_, start, ready_ns});
    serve_ms_.push_back(static_cast<double>(ready_ns - first_call) * 1e-6);
    stall_ns_ += start - due_ns_;
    ++query_;
    due_ns_ = ready_ns + think_ns_;
    serve_start_ns_ = -1;
  }

  void Observed(int64_t start_ns, int64_t end_ns, const ObserveBreakdown& b) {
    spans_.push_back({SpanKind::kObserve, query_ - 1, start_ns, end_ns});
    observe_ns_ += end_ns - start_ns;
    graph_build_us_ += b.wall_graph_build_us;
    predict_us_ += b.wall_prediction_us;
    edges_ += b.graph_edges;
    candidates_ += b.num_candidates;
  }

  void BeginPlan() { in_plan_ = true; }
  void EndPlan(int64_t start_ns, int64_t end_ns) {
    in_plan_ = false;
    spans_.push_back({SpanKind::kPlan, query_ - 1, start_ns, end_ns});
    plan_ns_ += end_ns - start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<double>& serve_ms() const { return serve_ms_; }
  uint32_t queries() const { return query_; }
  int64_t stall_ns() const { return stall_ns_; }
  int64_t index_serve_ns() const { return index_serve_ns_; }
  uint64_t index_serve_pages() const { return index_serve_pages_; }
  int64_t index_plan_ns() const { return index_plan_ns_; }
  uint64_t index_plan_calls() const { return index_plan_calls_; }
  int64_t observe_ns() const { return observe_ns_; }
  int64_t graph_build_us() const { return graph_build_us_; }
  int64_t predict_us() const { return predict_us_; }
  uint64_t edges() const { return edges_; }
  uint64_t candidates() const { return candidates_; }
  int64_t plan_ns() const { return plan_ns_; }

 private:
  int64_t think_ns_;
  int64_t due_ns_ = 0;
  int64_t serve_start_ns_ = -1;
  uint32_t query_ = 0;
  bool in_plan_ = false;
  std::vector<Span> spans_;
  std::vector<double> serve_ms_;
  int64_t stall_ns_ = 0;
  int64_t index_serve_ns_ = 0;
  uint64_t index_serve_pages_ = 0;
  int64_t index_plan_ns_ = 0;
  uint64_t index_plan_calls_ = 0;
  int64_t observe_ns_ = 0;
  int64_t graph_build_us_ = 0;
  int64_t predict_us_ = 0;
  uint64_t edges_ = 0;
  uint64_t candidates_ = 0;
  int64_t plan_ns_ = 0;
};

// ----------------------------------------------------------- decorators

/// SpatialIndex decorator timing every QueryPages call: the total always,
/// and a span per call when a tracer is attached.
class TracingIndex : public SpatialIndex {
 public:
  TracingIndex(const SpatialIndex* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string_view name() const override { return inner_->name(); }
  const PageStore& store() const override { return inner_->store(); }
  void QueryPages(const Region& region,
                  std::vector<PageId>* out) const override {
    const size_t before = out->size();
    const int64_t start = NowNs();
    inner_->QueryPages(region, out);
    const int64_t end = NowNs();
    total_ns_ += end - start;
    if (tracer_ != nullptr) tracer_->IndexCall(start, end, out->size() - before);
  }
  bool SupportsNeighborhood() const override {
    return inner_->SupportsNeighborhood();
  }
  const std::vector<PageId>& PageNeighbors(PageId page) const override {
    return inner_->PageNeighbors(page);
  }
  void QueryPagesOrdered(const Region& region, const Vec3& start,
                         std::vector<PageId>* out) const override {
    inner_->QueryPagesOrdered(region, start, out);
  }
  PageId NearestPage(const Vec3& p) const override {
    return inner_->NearestPage(p);
  }

  int64_t total_ns() const { return total_ns_; }

 private:
  const SpatialIndex* inner_;
  Tracer* tracer_;
  mutable int64_t total_ns_ = 0;
};

/// Prefetcher decorator stamping the moment each query's result is ready
/// (entry into Observe). That stamp is the only instrumentation of an
/// untraced pass; with a tracer attached it also times Observe and
/// RunPrefetch.
class TimedPrefetcher : public Prefetcher {
 public:
  TimedPrefetcher(Prefetcher* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Ready stamps of the queries observed since the last ClearReady().
  const std::vector<int64_t>& ready_ns() const { return ready_ns_; }
  void ClearReady() { ready_ns_.clear(); }

  std::string_view name() const override { return inner_->name(); }
  void BindSession(uint32_t session_id) override {
    inner_->BindSession(session_id);
  }
  void BeginSequence() override { inner_->BeginSequence(); }
  SimMicros Observe(const QueryResultView& result) override {
    return Observe(result, nullptr);
  }
  bool SupportsPreparedObserve() const override {
    return inner_->SupportsPreparedObserve();
  }
  void PrepareObserve(const QueryResultView& result,
                      ObservePrep* prep) const override {
    inner_->PrepareObserve(result, prep);
  }
  SimMicros Observe(const QueryResultView& result,
                    ObservePrep* prep) override {
    const int64_t ready = NowNs();
    ready_ns_.push_back(ready);
    if (tracer_ == nullptr) return inner_->Observe(result, prep);
    tracer_->Ready(ready);
    const SimMicros cost = inner_->Observe(result, prep);
    tracer_->Observed(ready, NowNs(), inner_->last_observe());
    return cost;
  }
  void RunPrefetch(PrefetchIo* io) override {
    if (tracer_ == nullptr) return inner_->RunPrefetch(io);
    const int64_t start = NowNs();
    tracer_->BeginPlan();
    inner_->RunPrefetch(io);
    tracer_->EndPlan(start, NowNs());
  }
  const ObserveBreakdown& last_observe() const override {
    return inner_->last_observe();
  }

 private:
  Prefetcher* inner_;
  Tracer* tracer_;
  std::vector<int64_t> ready_ns_;
};

}  // namespace scout::bench
