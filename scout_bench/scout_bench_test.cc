/// Tests of scout_bench: the metric arithmetic, the decorators' due-time
/// accounting over a real executor, the trace self times, and the
/// program's contract (exactly the names BENCHMARK.json lists, non-zero
/// exit when the correctness gate trips). Run with
/// `python3 scout_bench/run.py --selftest`.

#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "engine/query_executor.h"
#include "scout_bench_support.h"
#include "storage/file_page_store.h"
#include "workload/query_gen.h"

namespace scout::bench {
namespace {

// ------------------------------------------------- BENCHMARK.json names

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The "name" values of one top-level array of BENCHMARK.json.
std::vector<std::string> NamesIn(const std::string& json,
                                 const std::string& key) {
  const size_t open = json.find('[', json.find("\"" + key + "\""));
  const size_t close = json.find(']', open);
  const std::string section = json.substr(open, close - open);
  std::vector<std::string> names;
  const std::regex name_re("\"name\":\\s*\"([^\"]+)\"");
  for (std::sregex_iterator it(section.begin(), section.end(), name_re), end;
       it != end; ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

template <typename Table>
std::vector<std::string> TableNames(const Table& table) {
  std::vector<std::string> names;
  for (const auto& row : table) names.emplace_back(row.name);
  return names;
}

struct RunOutput {
  int exit_code = -1;
  std::string last_line;
};

RunOutput RunBench(const std::string& args) {
  const std::string cmd = std::string(SCOUT_BENCH_BIN) + " " + args;
  RunOutput out;
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return out;
  char buf[8192];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) {
    if (buf[0] != '\0' && buf[0] != '\n') out.last_line = buf;
  }
  const int status = pclose(p);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

std::vector<std::string> ResultMetricNames(const std::string& line) {
  std::vector<std::string> names;
  const std::regex key_re("\"([^\"]+)\": \\{\"value\"");
  for (std::sregex_iterator it(line.begin(), line.end(), key_re), end;
       it != end; ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

TEST(ScoutBenchContractTest, TablesMatchBenchmarkJson) {
  const std::string json = ReadAll(SCOUT_BENCH_JSON);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(NamesIn(json, "workloads"), TableNames(kWorkloads));
  EXPECT_EQ(NamesIn(json, "end_to_end"), TableNames(kEndToEndMetrics));
  EXPECT_EQ(NamesIn(json, "per_layer"), TableNames(kPerLayerMetrics));
}

TEST(ScoutBenchContractTest, TinyRunPrintsExactlyTheBenchmarkNames) {
  const std::string json = ReadAll(SCOUT_BENCH_JSON);
  const std::vector<std::string> workloads = NamesIn(json, "workloads");
  ASSERT_FALSE(workloads.empty());
  for (const std::string& w : workloads) {
    for (const char* trace : {"0", "1"}) {
      SCOPED_TRACE(w + " --trace " + trace);
      const RunOutput out = RunBench("--workload " + w +
                                     " --scale tiny --seed 3 --trace " +
                                     trace);
      EXPECT_EQ(out.exit_code, 0);
      EXPECT_NE(out.last_line.find("\"correct\": true"), std::string::npos)
          << out.last_line;
      EXPECT_EQ(ResultMetricNames(out.last_line),
                NamesIn(json, trace[0] == '0' ? "end_to_end" : "per_layer"));
    }
  }
  EXPECT_EQ(RunBench("--workload nonesuch --scale tiny").exit_code, 2);
}

TEST(ScoutBenchContractTest, CorruptedOracleHashFailsTheRun) {
  const RunOutput out =
      RunBench("--workload follow --scale tiny --corrupt-oracle");
  EXPECT_NE(out.exit_code, 0);
  EXPECT_NE(out.last_line.find("\"correct\": false"), std::string::npos)
      << out.last_line;
}

// ------------------------------------------------------ metric arithmetic

TEST(ScoutBenchMetricTest, NearestRankPercentile) {
  EXPECT_EQ(NearestRankIndex(4200, 99), 4157u);  // rank 4158, exactly.
  EXPECT_EQ(SamplesBeyond(4200, 99), 42u);
  EXPECT_EQ(NearestRankIndex(1, 99), 0u);
  EXPECT_EQ(NearestRankIndex(100, 50), 49u);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // Unsorted input.
  EXPECT_EQ(NearestRank(v, 50), 50.0);
  EXPECT_EQ(NearestRank(v, 99), 99.0);
  EXPECT_EQ(NearestRank({7.0}, 99), 7.0);
  EXPECT_EQ(NearestRank({}, 99), 0.0);
}

TEST(ScoutBenchMetricTest, PercentileNeedsTenSamplesBeyond) {
  EXPECT_TRUE(PercentileSupported(1000, 99));   // 10 beyond.
  EXPECT_FALSE(PercentileSupported(999, 99));   // 9 beyond.
  EXPECT_FALSE(PercentileSupported(105, 99));   // A tiny run's sample.
  EXPECT_TRUE(PercentileSupported(21, 50));
  EXPECT_FALSE(PercentileSupported(0, 50));
}

TEST(ScoutBenchMetricTest, QuartilesMatchPythonStatistics) {
  // statistics.quantiles(values, n=4) on the same inputs.
  Quartiles q = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = QuartilesOf({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.median, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.5);
  q = QuartilesOf({3.0, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.5);
  EXPECT_DOUBLE_EQ(q.median, 2.0);
  EXPECT_DOUBLE_EQ(q.q3, 3.5);
}

TEST(ScoutBenchMetricTest, ResponseIsReadyMinusDue) {
  // Query 0 is due at the call; query i is due think after query i-1
  // was ready, however late query i actually started.
  const std::vector<int64_t> ready = {2'000'000, 5'000'000, 5'500'000};
  std::vector<double> ms;
  AppendResponsesMs(0, ready, 300, &ms);
  ASSERT_EQ(ms.size(), 3u);
  EXPECT_DOUBLE_EQ(ms[0], 2.0);
  EXPECT_DOUBLE_EQ(ms[1], 2.7);
  EXPECT_DOUBLE_EQ(ms[2], 0.2);
}

TEST(ScoutBenchMetricTest, PrecisionCountsPagesALaterQueryReads) {
  // Query 0 plans {5, 6}, query 1 plans {7, 1}, query 2 plans nothing.
  const std::vector<size_t> planned = {2, 2, 0};
  const std::vector<PageId> order = {5, 6, 7, 1};
  const std::vector<std::vector<PageId>> results = {{1}, {5, 2}, {7}};
  const PrefetchUse use = CountPrefetchUse(planned, order, results);
  EXPECT_EQ(use.planned, 4u);
  // 5 (read by query 1) and 7 (query 2) are used; 6 is never read, and
  // 1 was read only before it was planned.
  EXPECT_EQ(use.used, 2u);
}

TEST(ScoutBenchTraceTest, SelfTimesSumToTheQuerySpans) {
  // One query window [0, 100): stall [0, 30), serve [30, 100). The
  // previous query's observe [-10, 20) and its plan [20, 25) (index
  // lookup [21, 23) inside) overrun into the stall; the query's own
  // index lookup is [30, 40).
  const std::vector<Span> spans = {
      {SpanKind::kObserve, 0, -10, 20},  {SpanKind::kIndexPlan, 0, 21, 23},
      {SpanKind::kPlan, 0, 20, 25},      {SpanKind::kQuery, 1, 0, 100},
      {SpanKind::kStall, 1, 0, 30},      {SpanKind::kServe, 1, 30, 100},
      {SpanKind::kIndexServe, 1, 30, 40}, {SpanKind::kObserve, 1, 100, 130},
  };
  const SelfTimes self = ComputeSelfTimes(spans);
  const auto at = [&](SpanKind k) { return self.ns[static_cast<size_t>(k)]; };
  EXPECT_EQ(at(SpanKind::kQuery), 100);
  EXPECT_EQ(at(SpanKind::kObserve), 20);  // Only the part inside the query.
  EXPECT_EQ(at(SpanKind::kPlan), 3);
  EXPECT_EQ(at(SpanKind::kIndexPlan), 2);
  EXPECT_EQ(at(SpanKind::kStall), 5);
  EXPECT_EQ(at(SpanKind::kIndexServe), 10);
  EXPECT_EQ(at(SpanKind::kServe), 60);
  EXPECT_EQ(self.LayerSum(), at(SpanKind::kQuery));
}

TEST(ScoutBenchTraceTest, ChildOverrunningItsParentIsClipped) {
  const std::vector<Span> spans = {
      {SpanKind::kQuery, 0, 0, 50},     {SpanKind::kStall, 0, 0, 50},
      {SpanKind::kPlan, 0, 10, 20},     {SpanKind::kIndexPlan, 0, 15, 30},
  };
  const SelfTimes self = ComputeSelfTimes(spans);
  EXPECT_EQ(self.ns[static_cast<size_t>(SpanKind::kIndexPlan)], 5);
  EXPECT_EQ(self.ns[static_cast<size_t>(SpanKind::kPlan)], 5);
  EXPECT_EQ(self.ns[static_cast<size_t>(SpanKind::kStall)], 40);
  EXPECT_EQ(self.LayerSum(), 50);
}

// ----------------------------------------- due-time accounting, for real

void SleepUs(int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Index whose every lookup takes at least `sleep_us` longer.
class SlowIndex : public SpatialIndex {
 public:
  SlowIndex(const SpatialIndex* inner, int64_t sleep_us)
      : inner_(inner), sleep_us_(sleep_us) {}
  std::string_view name() const override { return "slow"; }
  const PageStore& store() const override { return inner_->store(); }
  void QueryPages(const Region& region,
                  std::vector<PageId>* out) const override {
    SleepUs(sleep_us_);
    inner_->QueryPages(region, out);
  }
  PageId NearestPage(const Vec3& p) const override {
    return inner_->NearestPage(p);
  }

 private:
  const SpatialIndex* inner_;
  int64_t sleep_us_;
};

/// Prefetcher that predicts nothing but takes `sleep_us` to Observe.
class SlowObserver : public Prefetcher {
 public:
  explicit SlowObserver(int64_t sleep_us) : sleep_us_(sleep_us) {}
  std::string_view name() const override { return "slow"; }
  void BeginSequence() override {}
  SimMicros Observe(const QueryResultView&) override {
    SleepUs(sleep_us_);
    return 0;
  }
  void RunPrefetch(PrefetchIo*) override {}

 private:
  int64_t sleep_us_;
};

TEST(ScoutBenchDueTimeTest, ObserveOverrunDelaysTheNextQuery) {
  constexpr int64_t kIndexUs = 2000, kObserveUs = 3000, kThinkUs = 1000;
  const NeuronStack stack(24000);
  const std::string pagefile = ::testing::TempDir() + "/scout_bench_due.pages";
  ASSERT_TRUE(FilePageStore::WriteFile(stack.rtree->store(), pagefile).ok());
  auto opened = FilePageStore::Open(pagefile);
  ASSERT_TRUE(opened.ok());
  const std::unique_ptr<FilePageStore> store = std::move(opened).value();

  Rng rng(kSeed);
  QuerySequenceConfig qcfg = QueryConfigFor(SpecOf("model-building"));
  qcfg.num_queries = 6;
  const std::vector<Region> queries =
      GenerateGuidedSequence(stack.dataset, qcfg, &rng).queries;

  Tracer tracer(kThinkUs);
  const SlowIndex slow_index(stack.rtree.get(), kIndexUs);
  const TracingIndex index(&slow_index, &tracer);
  SlowObserver observer(kObserveUs);
  TimedPrefetcher prefetcher(&observer, &tracer);
  ExecutorConfig ecfg =
      ExecutorConfigFor(SpecOf("model-building"), stack.rtree->store());
  ecfg.io.backend = IoBackend::kFile;
  ecfg.io.store = store.get();
  ecfg.io.think_time_us = kThinkUs;
  QueryExecutor executor(&index, &prefetcher, ecfg);

  const int64_t call = NowNs();
  tracer.BeginSequence(call);
  const FileSequenceStats stats = executor.RunSequenceFile(queries);
  std::remove(pagefile.c_str());
  ASSERT_EQ(prefetcher.ready_ns().size(), queries.size());
  std::vector<double> ms;
  AppendResponsesMs(call, prefetcher.ready_ns(), kThinkUs, &ms);

  // Query 0 waits only for its own lookup. Every later query is due
  // think (1 ms) after the previous result, but the executor is still
  // observing until 3 ms after it: 2 ms of stall, then a 2 ms lookup.
  EXPECT_GE(ms[0], kIndexUs * 1e-3);
  for (size_t i = 1; i < ms.size(); ++i) {
    EXPECT_GE(ms[i], (kObserveUs - kThinkUs + kIndexUs) * 1e-3) << i;
    EXPECT_LT(ms[i], 50.0) << i;
  }
  EXPECT_EQ(tracer.queries(), queries.size());
  EXPECT_GE(tracer.stall_ns(),
            static_cast<int64_t>(queries.size() - 1) *
                (kObserveUs - kThinkUs) * 1000);
  for (const double serve : tracer.serve_ms()) EXPECT_GE(serve, 2.0);
  const SelfTimes self = ComputeSelfTimes(tracer.spans());
  EXPECT_EQ(self.LayerSum(), self.ns[0]);
  EXPECT_GE(self.ns[static_cast<size_t>(SpanKind::kObserve)],
            static_cast<int64_t>(queries.size() - 1) *
                (kObserveUs - kThinkUs) * 1000);
  EXPECT_EQ(stats.queries.size(), queries.size());
}

}  // namespace
}  // namespace scout::bench
