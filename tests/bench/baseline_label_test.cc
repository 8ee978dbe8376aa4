/// Tests of the baseline-recorder write path: appending a snapshot whose
/// label already exists in the target JSON must be refused (silent
/// duplicate labels would make the perf trajectory ambiguous and corrupt
/// every diff made against it), with --force as the deliberate override.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace scout::bench {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string OneRowSnapshot(const std::string& label) {
  BaselineFigRow fig;
  fig.bench = "fig_test";
  fig.scenario = "scenario";
  fig.prefetcher = "scout";
  BaselineMicroRow micro;
  micro.name = "micro_test";
  micro.ops = 1;
  return BaselineSnapshotJson(label, /*tiny=*/true, {fig}, {micro});
}

TEST(BaselineLabelTest, ContainsLabelMatchesSerializedField) {
  const std::string snapshot = OneRowSnapshot("seed2-pre");
  EXPECT_TRUE(BaselineContainsLabel(snapshot, "seed2-pre"));
  EXPECT_FALSE(BaselineContainsLabel(snapshot, "seed2"));
  EXPECT_FALSE(BaselineContainsLabel(snapshot, "seed2-pre-prefilter"));
  EXPECT_FALSE(BaselineContainsLabel("", "seed2-pre"));
  // Labels with JSON-escaped characters match their serialized form.
  const std::string quoted = OneRowSnapshot("with \"quotes\"");
  EXPECT_TRUE(BaselineContainsLabel(quoted, "with \"quotes\""));
}

TEST(BaselineLabelTest, AppendRefusesDuplicateLabel) {
  const std::string path = TempPath("baseline_dup_label.json");
  std::remove(path.c_str());
  std::string error;

  // Fresh write, then an append under a different label: both succeed.
  ASSERT_TRUE(RecordBaselineSnapshot(path, /*append=*/false, /*force=*/false,
                                     "first", OneRowSnapshot("first"),
                                     &error))
      << error;
  ASSERT_TRUE(RecordBaselineSnapshot(path, /*append=*/true, /*force=*/false,
                                     "second", OneRowSnapshot("second"),
                                     &error))
      << error;

  // Appending an existing label is refused and leaves the file unchanged.
  const std::string before = ReadFileOrEmpty(path);
  EXPECT_FALSE(RecordBaselineSnapshot(path, /*append=*/true, /*force=*/false,
                                      "first", OneRowSnapshot("first"),
                                      &error));
  EXPECT_NE(error.find("first"), std::string::npos) << error;
  EXPECT_NE(error.find("--force"), std::string::npos) << error;
  EXPECT_EQ(ReadFileOrEmpty(path), before);

  // --force is the deliberate override.
  error.clear();
  EXPECT_TRUE(RecordBaselineSnapshot(path, /*append=*/true, /*force=*/true,
                                     "first", OneRowSnapshot("first"),
                                     &error))
      << error;
  std::remove(path.c_str());
}

TEST(BaselineLabelTest, SnapshotIsStampedWithTheCompiledSimdLane) {
  // Micro rows recorded under different SIMD backends measure different
  // code; the snapshot must carry the lane label of the binary that
  // recorded it so cross-backend diffs are visible, and it must be the
  // backend this test binary was actually compiled with.
  const std::string json = OneRowSnapshot("lane-label");
  EXPECT_NE(json.find(std::string("\"simd\": \"") + simd::kLaneName + "\""),
            std::string::npos)
      << json;
  const std::string lane = simd::kLaneName;
  EXPECT_TRUE(lane == "avx2" || lane == "scalar") << lane;
}

TEST(BaselineLabelTest, MulticlientRowsSerializeServingExtras) {
  // fig_multiclient rows carry the QoS serving extras; single-client
  // rows must keep the exact field set earlier snapshots were recorded
  // with (diff tooling matches rows positionally by key).
  BaselineFigRow plain;
  plain.bench = "fig11_microbenchmarks";
  plain.scenario = "model-building";
  plain.prefetcher = "scout";
  BaselineFigRow multi = plain;
  multi.bench = "fig_multiclient";
  multi.scenario = "model-building@N8";
  multi.multiclient = true;
  multi.evictions_per_session = 12.5;
  multi.sim_disk_wait_us = 4200;
  multi.cross_hit_share_pct = 3.75;
  const std::string json =
      BaselineSnapshotJson("x", /*tiny=*/true, {plain, multi}, {});
  EXPECT_EQ(json.find("evictions_per_session"),
            json.rfind("evictions_per_session"));
  EXPECT_NE(json.find("\"evictions_per_session\": 12.50"), std::string::npos);
  EXPECT_NE(json.find("\"sim_disk_wait_us\": 4200"), std::string::npos);
  EXPECT_NE(json.find("\"cross_hit_share_pct\": 3.75"), std::string::npos);
}

TEST(BaselineLabelTest, RewriteIgnoresExistingLabels) {
  // A non-append write replaces the file wholesale; the duplicate check
  // only guards the trajectory-extending append path.
  const std::string path = TempPath("baseline_rewrite_label.json");
  std::remove(path.c_str());
  std::string error;
  ASSERT_TRUE(RecordBaselineSnapshot(path, /*append=*/false, /*force=*/false,
                                     "same", OneRowSnapshot("same"), &error));
  EXPECT_TRUE(RecordBaselineSnapshot(path, /*append=*/false, /*force=*/false,
                                     "same", OneRowSnapshot("same"), &error))
      << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace scout::bench
