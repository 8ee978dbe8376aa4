#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.h"
#include "engine/experiment.h"
#include "index/flat_index.h"
#include "index/rtree.h"
#include "prefetch/no_prefetch.h"
#include "prefetch/scout_opt_prefetcher.h"
#include "prefetch/scout_prefetcher.h"
#include "prefetch/static_prefetchers.h"
#include "prefetch/trajectory_prefetcher.h"
#include "workload/generators.h"

namespace scout::bench {

/// Default number of sequences per data point. The paper uses 30-50; the
/// scaled-down datasets keep per-sequence noise comparable, so 20 gives
/// stable means in seconds of runtime.
inline constexpr uint32_t kSequences = 20;

/// Default experiment seed (shared so every figure sees the same
/// workloads for a given dataset).
inline constexpr uint64_t kSeed = 20120827;  // VLDB 2012 opening day.

/// Builds the default neuron-tissue dataset (paper density, ~345k
/// objects) and an STR R-tree over it.
struct NeuronStack {
  Dataset dataset;
  std::unique_ptr<RTreeIndex> rtree;

  explicit NeuronStack(uint64_t target_objects = 345000,
                       uint64_t seed = 1) {
    dataset =
        GenerateNeuronTissue(NeuronConfigForObjectCount(target_objects, seed));
    rtree = std::move(*RTreeIndex::Build(dataset.objects));
  }
};

/// Factory for the standard prefetcher lineup. `dataset_bounds` feeds the
/// static prefetchers.
class PrefetcherSet {
 public:
  explicit PrefetcherSet(const Aabb& dataset_bounds)
      : ewma_(0.3),
        poly2_(2),
        poly3_(3),
        hilbert_(StaticConfig(dataset_bounds)),
        layered_(StaticConfig(dataset_bounds)),
        scout_{ScoutConfig{}} {}

  EwmaPrefetcher& ewma() { return ewma_; }
  StraightLinePrefetcher& straight() { return straight_; }
  PolynomialPrefetcher& poly2() { return poly2_; }
  PolynomialPrefetcher& poly3() { return poly3_; }
  HilbertPrefetcher& hilbert() { return hilbert_; }
  LayeredPrefetcher& layered() { return layered_; }
  ScoutPrefetcher& scout() { return scout_; }

  /// The paper's Figure 11/12/17 comparison set (without SCOUT-OPT).
  std::vector<Prefetcher*> PaperLineup() {
    return {&ewma_, &straight_, &hilbert_, &scout_};
  }

 private:
  static StaticPrefetchConfig StaticConfig(const Aabb& bounds) {
    StaticPrefetchConfig config;
    config.dataset_bounds = bounds;
    return config;
  }

  EwmaPrefetcher ewma_;
  StraightLinePrefetcher straight_;
  PolynomialPrefetcher poly2_;
  PolynomialPrefetcher poly3_;
  HilbertPrefetcher hilbert_;
  LayeredPrefetcher layered_;
  ScoutPrefetcher scout_;
};

/// Looks up a Figure-10 microbenchmark spec by name. A silent fallback
/// would record the wrong workload under a stale label and corrupt the
/// perf trajectory — fail loudly instead.
inline const MicrobenchSpec& SpecOf(std::string_view name) {
  for (const MicrobenchSpec& s : kMicrobenchmarks) {
    if (s.name == name) return s;
  }
  std::fprintf(stderr, "bench: unknown microbench spec '%.*s'\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void PrintRow(const std::string& label,
                     const std::vector<double>& values, int precision = 1) {
  std::printf("%-22s", label.c_str());
  for (double v : values) std::printf(" %10.*f", precision, v);
  std::printf("\n");
}

inline void PrintColumns(const std::string& corner,
                         const std::vector<std::string>& columns) {
  std::printf("%-22s", corner.c_str());
  for (const std::string& c : columns) std::printf(" %10s", c.c_str());
  std::printf("\n");
}

// --------------------------------------------------------------------------
// Baseline recording (bench/baseline_recorder, `make bench-record`).
//
// A baseline *snapshot* is one fixed-seed run of every figure/ablation
// scenario plus the hot-path micro measurements, stamped with a label.
// Snapshots accumulate in BENCH_baseline.json so successive PRs have a
// perf trajectory to diff against.

/// One figure/ablation bench data point of a baseline snapshot.
struct BaselineFigRow {
  std::string bench;       ///< Bench target, e.g. "fig11_microbenchmarks".
  std::string scenario;    ///< Workload within the bench.
  std::string prefetcher;
  double wall_ms = 0.0;            ///< Wall-clock time of the scenario.
  int64_t sim_response_us = 0;     ///< Simulated total response time.
  int64_t sim_residual_io_us = 0;  ///< Simulated cache-miss I/O time.
  double hit_rate_pct = 0.0;
  double speedup = 1.0;
  /// Multi-client serving extras (fig_multiclient rows). Serialized only
  /// when `multiclient` is set, so single-client rows keep the exact
  /// byte layout earlier snapshots were recorded with.
  bool multiclient = false;
  double evictions_per_session = 0.0;   ///< Shared-cache contention.
  int64_t sim_disk_wait_us = 0;         ///< Shared-disk queueing delay.
  double cross_hit_share_pct = 0.0;     ///< Constructive sharing.
  /// Degraded-mode serving extras (fig_faults rows). Serialized only when
  /// `faulted` is set, for the same byte-stability reason as above.
  bool faulted = false;
  uint64_t faults_seen = 0;
  uint64_t retries = 0;
  uint64_t shed_prefetches = 0;
  int64_t p99_response_us = 0;
};

/// One hot-path micro measurement of a baseline snapshot.
struct BaselineMicroRow {
  std::string name;
  uint64_t ops = 0;
  double ns_per_op = 0.0;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Serializes one snapshot as a JSON object (no trailing newline). The
/// snapshot is stamped with the compiled SIMD lane backend
/// (simd::kLaneName, "avx2" or "scalar"): micro rows recorded with
/// different lane widths measure different code and must not be
/// silently compared, so the diff surface carries the label. Snapshots
/// recorded before the field existed have no "simd" key (treat as
/// unknown backend).
inline std::string BaselineSnapshotJson(
    const std::string& label, bool tiny,
    const std::vector<BaselineFigRow>& figs,
    const std::vector<BaselineMicroRow>& micro) {
  std::ostringstream os;
  os << "    {\n      \"label\": \"" << JsonEscape(label) << "\",\n"
     << "      \"tiny\": " << (tiny ? "true" : "false") << ",\n"
     << "      \"simd\": \"" << simd::kLaneName << "\",\n"
     << "      \"figs\": [\n";
  for (size_t i = 0; i < figs.size(); ++i) {
    const BaselineFigRow& r = figs[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "        {\"bench\": \"%s\", \"scenario\": \"%s\", "
                  "\"prefetcher\": \"%s\", \"wall_ms\": %.3f, "
                  "\"sim_response_us\": %lld, \"sim_residual_io_us\": %lld, "
                  "\"hit_rate_pct\": %.2f, \"speedup\": %.3f",
                  JsonEscape(r.bench).c_str(), JsonEscape(r.scenario).c_str(),
                  JsonEscape(r.prefetcher).c_str(), r.wall_ms,
                  static_cast<long long>(r.sim_response_us),
                  static_cast<long long>(r.sim_residual_io_us),
                  r.hit_rate_pct, r.speedup);
    os << buf;
    if (r.multiclient) {
      std::snprintf(buf, sizeof(buf),
                    ", \"evictions_per_session\": %.2f, "
                    "\"sim_disk_wait_us\": %lld, "
                    "\"cross_hit_share_pct\": %.2f",
                    r.evictions_per_session,
                    static_cast<long long>(r.sim_disk_wait_us),
                    r.cross_hit_share_pct);
      os << buf;
    }
    if (r.faulted) {
      std::snprintf(buf, sizeof(buf),
                    ", \"faults_seen\": %llu, \"retries\": %llu, "
                    "\"shed_prefetches\": %llu, \"p99_response_us\": %lld",
                    static_cast<unsigned long long>(r.faults_seen),
                    static_cast<unsigned long long>(r.retries),
                    static_cast<unsigned long long>(r.shed_prefetches),
                    static_cast<long long>(r.p99_response_us));
      os << buf;
    }
    os << "}" << (i + 1 < figs.size() ? "," : "") << "\n";
  }
  os << "      ],\n      \"micro\": [\n";
  for (size_t i = 0; i < micro.size(); ++i) {
    const BaselineMicroRow& r = micro[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "        {\"name\": \"%s\", \"ops\": %llu, "
                  "\"ns_per_op\": %.2f}",
                  JsonEscape(r.name).c_str(),
                  static_cast<unsigned long long>(r.ops), r.ns_per_op);
    os << buf << (i + 1 < micro.size() ? "," : "") << "\n";
  }
  os << "      ]\n    }";
  return os.str();
}

/// True if the serialized baseline file contents already contain a
/// snapshot labelled `label` (exact match of the serialized label field).
inline bool BaselineContainsLabel(const std::string& file_contents,
                                  const std::string& label) {
  return file_contents.find("\"label\": \"" + JsonEscape(label) + "\"") !=
         std::string::npos;
}

inline std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::string();
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Writes (or, with `append`, extends) a BENCH_baseline.json file:
///   {"schema": 1, "snapshots": [ <snapshot>, ... ]}
/// Append splices the new snapshot before the closing bracket of the
/// "snapshots" array; if the file is missing or not in the expected
/// format, it is rewritten fresh. Returns false on I/O failure.
inline bool WriteBaselineSnapshot(const std::string& path, bool append,
                                  const std::string& snapshot_json) {
  std::string existing;
  if (append) existing = ReadFileOrEmpty(path);
  const size_t close = existing.rfind(']');
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  if (!existing.empty() && close != std::string::npos &&
      existing.find("\"snapshots\"") != std::string::npos) {
    // A separating comma is only valid if a snapshot already precedes the
    // closing bracket (the array could be empty in a hand-edited file).
    const size_t last_content = existing.find_last_not_of(" \t\n\r", close - 1);
    const bool has_snapshot =
        last_content != std::string::npos && existing[last_content] == '}';
    out << existing.substr(0, close) << (has_snapshot ? ",\n" : "")
        << snapshot_json << "\n  " << existing.substr(close);
  } else {
    out << "{\n  \"schema\": 1,\n  \"snapshots\": [\n"
        << snapshot_json << "\n  ]\n}\n";
  }
  return static_cast<bool>(out);
}

/// The recorder's write entry point: appends (or rewrites, when `append`
/// is false) a snapshot labelled `label`. Appending REFUSES to add a
/// snapshot whose label already exists in the target file — a silent
/// duplicate label would make the perf trajectory ambiguous (which
/// "post-optimization" row is the real one?) and corrupt every diff made
/// against it. `force` overrides the refusal for deliberate re-records.
/// On refusal or I/O failure returns false and describes why in *error.
inline bool RecordBaselineSnapshot(const std::string& path, bool append,
                                   bool force, const std::string& label,
                                   const std::string& snapshot_json,
                                   std::string* error) {
  const std::string existing = append ? ReadFileOrEmpty(path) : std::string();
  if (append && !force && BaselineContainsLabel(existing, label)) {
    *error = "refusing to append: label '" + label + "' already exists in " +
             path + " (duplicate labels corrupt the baseline trajectory; " +
             "pick a new label or pass --force)";
    return false;
  }
  if (!WriteBaselineSnapshot(path, append, snapshot_json)) {
    *error = "failed to write " + path;
    return false;
  }
  return true;
}

}  // namespace scout::bench

