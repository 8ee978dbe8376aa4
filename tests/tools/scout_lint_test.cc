// Self-tests for tools/scout_lint: run the real binary over committed
// fixture files (tests/tools/fixtures/) and over the live tree, and pin
// rule IDs, file:line output, exit codes, and the allow escape hatch.
//
// The harness exports SCOUT_LINT_BIN (built linter) and
// SCOUT_SOURCE_DIR (repo root) — see the tools_ branch in
// CMakeLists.txt.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string stdout_text;
};

std::string Env(const char* name) {
  const char* v = std::getenv(name);
  EXPECT_NE(v, nullptr) << name << " must be set by ctest";
  return v == nullptr ? std::string() : std::string(v);
}

std::string FixturesRoot() {
  return Env("SCOUT_SOURCE_DIR") + "/tests/tools/fixtures";
}

std::string LayeringSpec() {
  return Env("SCOUT_SOURCE_DIR") + "/tools/scout_lint/layering.txt";
}

// Runs the linter with the given arguments; captures stdout (findings),
// drops stderr (summary/progress).
LintRun RunLint(const std::string& args) {
  const std::string cmd = "\"" + Env("SCOUT_LINT_BIN") + "\" " + args +
                          " 2>/dev/null";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.stdout_text.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

// Runs the linter over one fixture file, scoped relative to the
// fixtures root so src/-layer rules apply.
LintRun LintFixture(const std::string& rel) {
  return RunLint("--root \"" + FixturesRoot() + "\" --layering \"" +
                 LayeringSpec() + "\" \"" + FixturesRoot() + "/" + rel + "\"");
}

int CountLines(const std::string& text) {
  int lines = 0;
  for (char c : text) lines += (c == '\n');
  return lines;
}

TEST(ScoutLintTest, DeterminismFixtureFindsAllFiveViolations) {
  const LintRun run = LintFixture("src/geom/det_bad.cc");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountLines(run.stdout_text), 5) << run.stdout_text;
  EXPECT_NE(run.stdout_text.find("src/geom/det_bad.cc:9: [det-rand]"),
            std::string::npos)
      << run.stdout_text;
  EXPECT_NE(
      run.stdout_text.find("src/geom/det_bad.cc:11: [det-random-device]"),
      std::string::npos);
  EXPECT_NE(run.stdout_text.find("src/geom/det_bad.cc:13: [det-wall-clock]"),
            std::string::npos);
  EXPECT_NE(run.stdout_text.find("src/geom/det_bad.cc:15: [det-wall-clock]"),
            std::string::npos);
  EXPECT_NE(run.stdout_text.find(
                "src/geom/det_bad.cc:18: [det-unordered-container]"),
            std::string::npos);
}

TEST(ScoutLintTest, DeterminismCleanFixtureIsClean) {
  const LintRun run = LintFixture("src/geom/det_clean.cc");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.stdout_text, "");
}

TEST(ScoutLintTest, AllowAnnotationSuppressesTrailingAndStandalone) {
  // det_allowed.cc has one trailing and one standalone multi-line
  // justified annotation; both banned uses must be suppressed.
  const LintRun run = LintFixture("src/geom/det_allowed.cc");
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_EQ(run.stdout_text, "");
}

TEST(ScoutLintTest, MalformedAllowIsItselfAViolationAndDoesNotSuppress) {
  const LintRun run = LintFixture("src/geom/allow_malformed.cc");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountLines(run.stdout_text), 3) << run.stdout_text;
  // Missing justification, unknown rule id, and the unsuppressed
  // real finding.
  EXPECT_NE(
      run.stdout_text.find("src/geom/allow_malformed.cc:7: [lint-allow]"),
      std::string::npos);
  EXPECT_NE(
      run.stdout_text.find("src/geom/allow_malformed.cc:8: [lint-allow]"),
      std::string::npos);
  EXPECT_NE(run.stdout_text.find("src/geom/allow_malformed.cc:9: [det-rand]"),
            std::string::npos);
}

TEST(ScoutLintTest, LayeringFixtureFlagsUpwardIncludesOnly) {
  const LintRun run = LintFixture("src/geom/layer_bad.h");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountLines(run.stdout_text), 2) << run.stdout_text;
  EXPECT_NE(run.stdout_text.find("src/geom/layer_bad.h:7: [layer-dag]"),
            std::string::npos);
  EXPECT_NE(run.stdout_text.find("src/geom/layer_bad.h:8: [layer-dag]"),
            std::string::npos);

  const LintRun clean = LintFixture("src/geom/layer_clean.h");
  EXPECT_EQ(clean.exit_code, 0);
  EXPECT_EQ(clean.stdout_text, "");
}

TEST(ScoutLintTest, SingleWriterFixtureFlagsCacheMutationsOutsideWhitelist) {
  const LintRun run = LintFixture("src/prefetch/cache_writer_bad.cc");
  EXPECT_EQ(run.exit_code, 1);
  // Four mutations on a cache-named receiver (including the QoS-era
  // ConfigureSharing); the non-cache receiver on line 15 must NOT be
  // flagged.
  EXPECT_EQ(CountLines(run.stdout_text), 4) << run.stdout_text;
  for (int line : {10, 11, 12, 17}) {
    EXPECT_NE(
        run.stdout_text.find("src/prefetch/cache_writer_bad.cc:" +
                             std::to_string(line) + ": [cache-single-writer]"),
        std::string::npos)
        << run.stdout_text;
  }
  EXPECT_EQ(run.stdout_text.find(":15:"), std::string::npos)
      << run.stdout_text;
}

TEST(ScoutLintTest, SingleWriterWhitelistedTranslationUnitIsClean) {
  // Same mutating calls, but the fixture path matches the whitelisted
  // serial-apply TU src/engine/multi_client_engine.cc.
  const LintRun run = LintFixture("src/engine/multi_client_engine.cc");
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_EQ(run.stdout_text, "");
}

TEST(ScoutLintTest, DiskQueueWriterFixtureFlagsMutationsOutsideWhitelist) {
  const LintRun run = LintFixture("src/prefetch/disk_writer_bad.cc");
  EXPECT_EQ(run.exit_code, 1);
  // ServeBatch/ServeOne/TryServeBatch/TryServeOne/Reset on disk-/
  // queue-named receivers; the receiver on line 20 is neither, so Reset
  // there must NOT be flagged.
  EXPECT_EQ(CountLines(run.stdout_text), 5) << run.stdout_text;
  for (int line : {13, 14, 15, 16, 17}) {
    EXPECT_NE(run.stdout_text.find("src/prefetch/disk_writer_bad.cc:" +
                                   std::to_string(line) +
                                   ": [disk-queue-single-writer]"),
              std::string::npos)
        << run.stdout_text;
  }
  EXPECT_EQ(run.stdout_text.find(":20:"), std::string::npos)
      << run.stdout_text;
}

TEST(ScoutLintTest, DiskQueueWriterWhitelistedTranslationUnitIsClean) {
  // Same mutating calls, but the fixture path matches the whitelisted
  // implementation TU src/storage/shared_disk.cc.
  const LintRun run = LintFixture("src/storage/shared_disk.cc");
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_EQ(run.stdout_text, "");
}

TEST(ScoutLintTest, FaultSeamFixtureFlagsAttachOutsideWhitelist) {
  const LintRun run = LintFixture("src/prefetch/fault_seam_bad.cc");
  EXPECT_EQ(run.exit_code, 1);
  // AttachFaults on disk-/queue-named receivers; the receiver on line 14
  // is neither, so it must NOT be flagged.
  EXPECT_EQ(CountLines(run.stdout_text), 2) << run.stdout_text;
  for (int line : {10, 11}) {
    EXPECT_NE(run.stdout_text.find("src/prefetch/fault_seam_bad.cc:" +
                                   std::to_string(line) +
                                   ": [fault-injection-seam]"),
              std::string::npos)
        << run.stdout_text;
  }
  EXPECT_EQ(run.stdout_text.find(":14:"), std::string::npos)
      << run.stdout_text;
}

TEST(ScoutLintTest, FaultSeamWhitelistedTranslationUnitIsClean) {
  // Same wiring, but the fixture path matches the whitelisted storage
  // implementation TU src/storage/disk_model.cc.
  const LintRun run = LintFixture("src/storage/disk_model.cc");
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_EQ(run.stdout_text, "");
}

TEST(ScoutLintTest, RealIoFixtureFlagsRawIoOutsideTheBackendTu) {
  const LintRun run = LintFixture("src/engine/real_io_bad.cc");
  EXPECT_EQ(run.exit_code, 1);
  // pread()/fopen() calls plus an ifstream mention; Open()/Spread() on
  // line 15 are word-bounded non-matches and must NOT be flagged.
  EXPECT_EQ(CountLines(run.stdout_text), 3) << run.stdout_text;
  for (int line : {8, 9, 10}) {
    EXPECT_NE(run.stdout_text.find("src/engine/real_io_bad.cc:" +
                                   std::to_string(line) +
                                   ": [real-io-isolation]"),
              std::string::npos)
        << run.stdout_text;
  }
  EXPECT_EQ(run.stdout_text.find(":15:"), std::string::npos)
      << run.stdout_text;
}

TEST(ScoutLintTest, RealIoWhitelistsTheFilePageStoreTu) {
  // Same raw I/O calls, but the fixture's root-relative path is the
  // real-I/O backend home src/storage/file_page_store.cc — the one TU
  // in src/ allowed to touch files.
  const LintRun run = LintFixture("src/storage/file_page_store.cc");
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_EQ(run.stdout_text, "");
}

TEST(ScoutLintTest, SimdIsolationFlagsRawIntrinsicsOutsideTheWrapper) {
  const LintRun run = LintFixture("src/geom/simd_bad.cc");
  EXPECT_EQ(run.exit_code, 1);
  // The immintrin include plus one finding per intrinsic-bearing line
  // (several intrinsics on line 11 are one defect). The __m256d type
  // token on line 10 must not add a second finding for that line.
  EXPECT_EQ(CountLines(run.stdout_text), 4) << run.stdout_text;
  for (int line : {7, 10, 11, 12}) {
    EXPECT_NE(run.stdout_text.find("src/geom/simd_bad.cc:" +
                                   std::to_string(line) +
                                   ": [simd-isolation]"),
              std::string::npos)
        << run.stdout_text;
  }
}

TEST(ScoutLintTest, SimdIsolationWhitelistsTheWrapperHeader) {
  // Same raw-intrinsic tokens, but the fixture's root-relative path is
  // the wrapper home src/common/simd.h — the one file allowed to hold
  // them.
  const LintRun run = LintFixture("src/common/simd.h");
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_EQ(run.stdout_text, "");
}

TEST(ScoutLintTest, HygieneFixturePinsPragmaOnceUsingNamespaceAndFloat) {
  const LintRun run = LintFixture("src/geom/hygiene_bad.h");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountLines(run.stdout_text), 3) << run.stdout_text;
  EXPECT_NE(
      run.stdout_text.find("src/geom/hygiene_bad.h:6: [hdr-pragma-once]"),
      std::string::npos);
  EXPECT_NE(
      run.stdout_text.find("src/geom/hygiene_bad.h:11: [hdr-using-namespace]"),
      std::string::npos);
  EXPECT_NE(run.stdout_text.find("src/geom/hygiene_bad.h:13: [no-float]"),
            std::string::npos);

  const LintRun clean = LintFixture("src/geom/hygiene_clean.h");
  EXPECT_EQ(clean.exit_code, 0);
  EXPECT_EQ(clean.stdout_text, "");
}

TEST(ScoutLintTest, ListRulesPrintsTheWholeCatalogue) {
  const LintRun run = RunLint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* rule :
       {"det-rand", "det-random-device", "det-wall-clock",
        "det-unordered-container", "layer-dag", "cache-single-writer",
        "disk-queue-single-writer", "fault-injection-seam",
        "real-io-isolation", "simd-isolation", "hdr-pragma-once",
        "hdr-using-namespace", "no-float", "lint-allow"}) {
    EXPECT_NE(run.stdout_text.find(std::string(rule) + ":"),
              std::string::npos)
        << "missing rule " << rule;
  }
}

TEST(ScoutLintTest, MissingLayeringSpecIsAUsageError) {
  const LintRun run = RunLint("--root \"" + FixturesRoot() +
                              "\" --layering /nonexistent/layering.txt");
  EXPECT_EQ(run.exit_code, 2);
}

TEST(ScoutLintTest, WholeTreeAtHeadIsClean) {
  // The acceptance contract: src/, bench/, tests/ report zero
  // violations (fixtures are excluded from directory walks), so any
  // new violation fails ctest, not just the lint target.
  const LintRun run = RunLint("--root \"" + Env("SCOUT_SOURCE_DIR") + "\"");
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_EQ(run.stdout_text, "");
}

}  // namespace
