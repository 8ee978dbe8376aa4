// scout_lint — project-specific static enforcement for the scout tree.
//
// A standalone token/line-level scanner (no libclang) that makes the
// repo's determinism, layering, single-writer, and hygiene contracts
// compile-time facts instead of tribal knowledge:
//
//   * determinism  — bans wall-clock and nondeterministic-order APIs in
//                    the result-affecting layers (geom/index/graph/
//                    prefetch/engine), where any ordering leak breaks
//                    the bit-identical simulated-metrics contract.
//   * layering     — checks every `#include "..."` against a declared
//                    dependency DAG (tools/scout_lint/layering.txt).
//   * single-writer— shared-PrefetchCache mutating calls may appear
//                    only in the whitelisted serial-apply TUs.
//   * hygiene      — `#pragma once` in every header, no
//                    `using namespace` in headers, no `float` in
//                    geometry/sim-metric code.
//
// Escape hatch: a finding line (or the line directly below a
// comment-only annotation line) can carry
//     // scout-lint: allow(<rule-id>): <justification>
// The justification is mandatory; a malformed annotation is itself a
// violation (`lint-allow`).
//
// Output: `path:line: [rule-id] message` per finding on stdout, a
// summary on stderr. Exit 0 = clean, 1 = violations, 2 = usage/IO.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------------ rules

struct RuleInfo {
  const char* id;
  const char* summary;
  // Root-relative path prefixes the rule applies to (forward slashes).
  std::vector<const char*> scopes;
};

// Layers whose behaviour feeds simulated metrics: any nondeterminism
// here shows up as cross-run or cross-worker-count metric drift.
const std::vector<const char*> kResultAffectingScopes = {
    "src/geom/", "src/index/", "src/graph/", "src/prefetch/",
    "src/engine/"};

const std::vector<RuleInfo> kRules = {
    {"det-rand",
     "banned nondeterministic RNG (rand/srand/rand_r/drand48); use "
     "scout::Rng (SplitMix64) with an explicit seed",
     kResultAffectingScopes},
    {"det-random-device",
     "std::random_device is nondeterministic across runs; seed "
     "scout::Rng explicitly",
     kResultAffectingScopes},
    {"det-wall-clock",
     "wall-clock reads (time()/clock()/gettimeofday/system_clock) in a "
     "result-affecting layer; use SimClock for simulated time",
     kResultAffectingScopes},
    {"det-unordered-container",
     "unordered_map/unordered_set in a result-affecting layer: "
     "iteration order is unspecified; use a sorted container or "
     "justify a lookup-only use with an allow annotation",
     kResultAffectingScopes},
    {"layer-dag",
     "#include crosses the declared layer DAG (tools/scout_lint/"
     "layering.txt)",
     {"src/"}},
    {"cache-single-writer",
     "PrefetchCache mutating call (Insert/Evict/Clear/SetActiveSession/"
     "ConfigureSharing on a cache-named receiver) outside the "
     "whitelisted serial-apply translation units",
     {"src/"}},
    {"disk-queue-single-writer",
     "SharedDiskQueue mutating call (ServeBatch/ServeOne/TryServeBatch/"
     "TryServeOne/Reset on a disk- or queue-named receiver) outside the "
     "whitelisted serving translation units",
     {"src/"}},
    {"fault-injection-seam",
     "fault-schedule wiring (AttachFaults on a disk- or queue-named "
     "receiver) outside the storage TUs and the serial apply loop; "
     "scattered attach points would let faults fire outside the "
     "deterministic serving order",
     {"src/"}},
    {"real-io-isolation",
     "file/OS I/O call (open/pread/fstream/...) in src/ outside the "
     "real-I/O backend TU; everything else serves through the "
     "PageStore/FilePageStore seams so the simulated oracle stays "
     "I/O-free",
     {"src/"}},
    {"simd-isolation",
     "raw vector intrinsics (_mm256_* calls or <immintrin.h>) outside "
     "src/common/simd.h; program against the scout::simd wrapper so the "
     "scalar-fallback build stays a pure compile-time switch",
     {"src/", "bench/", "tests/"}},
    {"hdr-pragma-once",
     "header must start with #pragma once (before any code)",
     {"src/", "bench/", "tests/"}},
    {"hdr-using-namespace",
     "using namespace in a header leaks into every includer",
     {"src/", "bench/", "tests/"}},
    {"no-float",
     "float in geometry/sim-metric code; simulated metrics are defined "
     "over double (bit-identity contract)",
     {"src/geom/", "src/engine/", "src/common/"}},
    {"lint-allow",
     "malformed scout-lint allow annotation (unknown rule id or "
     "missing justification)",
     {"src/", "bench/", "tests/"}},
};

// Translation units allowed to mutate a (potentially shared)
// PrefetchCache. multi_client_engine.cc owns the serial apply loop;
// query_executor.cc is the single-stream owner path driven from it;
// cache.cc is the implementation itself.
const std::vector<const char*> kCacheWriterWhitelist = {
    "src/storage/cache.cc",
    "src/engine/query_executor.cc",
    "src/engine/multi_client_engine.cc",
};

// Translation units allowed to mutate the SharedDiskQueue. All disk
// traffic funnels through the serving layer so queueing delay is
// attributed once: shared_disk.cc is the implementation,
// query_executor.cc issues the per-session batches, and
// multi_client_engine.cc owns Reset between experiments.
const std::vector<const char*> kDiskQueueWriterWhitelist = {
    "src/storage/shared_disk.cc",
    "src/engine/query_executor.cc",
    "src/engine/multi_client_engine.cc",
};

// Translation units allowed to wire a FaultSchedule into storage
// (AttachFaults). Keeping the seam here — the storage implementations
// plus the two TUs that own the deterministic serving order — means a
// fault can only ever fire inside the serial apply loop's timeline, so
// injected failures stay bit-identical across worker counts.
const std::vector<const char*> kFaultSeamWhitelist = {
    "src/storage/disk_model.cc",
    "src/storage/shared_disk.cc",
    "src/engine/query_executor.cc",
    "src/engine/multi_client_engine.cc",
};

// The single translation unit in src/ allowed to perform real file/OS
// I/O. Everything else reads pages through the PageStore/FilePageStore
// seams, which keeps the simulated oracle I/O-free and makes the
// backend switch (IoBackend::kSimulated vs kFile) a pure config flag.
const std::vector<const char*> kRealIoWhitelist = {
    "src/storage/file_page_store.cc",
};

// The single translation unit allowed to touch raw vector intrinsics:
// the portable SIMD wrapper itself. Everything else goes through its
// scout::simd:: operations, which is what makes SCOUT_SIMD=scalar a
// pure compile-time backend switch instead of a porting project.
const char kSimdWrapperHome[] = "src/common/simd.h";

const RuleInfo* FindRule(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

bool InScope(const std::string& rel, const std::vector<const char*>& scopes) {
  for (const char* s : scopes) {
    if (rel.rfind(s, 0) == 0) return true;
  }
  return false;
}

// -------------------------------------------------------------- layering

struct LayerSpec {
  // layer -> layers it may #include from (always contains itself).
  std::map<std::string, std::set<std::string>> allowed;
};

std::optional<LayerSpec> LoadLayerSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  LayerSpec spec;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ss(line);
    std::string head;
    if (!(ss >> head)) continue;
    if (head.back() != ':') return std::nullopt;
    head.pop_back();
    std::set<std::string>& deps = spec.allowed[head];
    deps.insert(head);
    std::string dep;
    while (ss >> dep) deps.insert(dep);
  }
  return spec.allowed.empty() ? std::nullopt : std::optional(spec);
}

// ---------------------------------------------------------- file scanning

struct Violation {
  std::string file;  // as given on the command line / found by walk
  int line = 0;
  std::string rule;
  std::string message;
};

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Calls fn(column) for every word-bounded occurrence of `word`.
template <typename Fn>
void ForEachWord(const std::string& line, const std::string& word, Fn fn) {
  size_t pos = 0;
  while ((pos = line.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !IsWordChar(line[end]);
    if (left_ok && right_ok) fn(pos);
    pos = end;
  }
}

bool WordFollowedByParen(const std::string& line, size_t col, size_t len) {
  size_t p = col + len;
  while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
  return p < line.size() && line[p] == '(';
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

// Strips comments and blanks string/char literal contents, keeping
// line lengths stable so columns still line up with the raw text.
// `in_block` carries /* ... */ state across lines. Raw strings are not
// handled (the tree has none); this is a line-level scanner by design.
std::string StripLine(const std::string& raw, bool* in_block) {
  std::string out = raw;
  size_t i = 0;
  while (i < out.size()) {
    if (*in_block) {
      if (out[i] == '*' && i + 1 < out.size() && out[i + 1] == '/') {
        out[i] = out[i + 1] = ' ';
        i += 2;
        *in_block = false;
      } else {
        out[i++] = ' ';
      }
      continue;
    }
    const char c = out[i];
    if (c == '/' && i + 1 < out.size() && out[i + 1] == '/') {
      for (size_t j = i; j < out.size(); ++j) out[j] = ' ';
      break;
    }
    if (c == '/' && i + 1 < out.size() && out[i + 1] == '*') {
      out[i] = out[i + 1] = ' ';
      i += 2;
      *in_block = true;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < out.size()) {
        if (out[i] == '\\' && i + 1 < out.size()) {
          out[i] = out[i + 1] = ' ';
          i += 2;
          continue;
        }
        if (out[i] == quote) {
          ++i;
          break;
        }
        out[i++] = ' ';
      }
      continue;
    }
    ++i;
  }
  return out;
}

struct AllowAnnotation {
  std::string rule;
  bool well_formed = false;  // has a known shape AND a justification
  int line = 0;              // 1-based line the annotation sits on
  bool standalone = false;   // comment-only line: applies to next line
};

// Parses `scout-lint: allow(<rule>): <justification>` out of a raw
// line, if present.
std::optional<AllowAnnotation> ParseAllow(const std::string& raw, int line_no,
                                          const std::string& stripped) {
  const std::string marker = "scout-lint: allow(";
  const size_t at = raw.find(marker);
  if (at == std::string::npos) return std::nullopt;
  AllowAnnotation a;
  a.line = line_no;
  a.standalone = Trim(stripped).empty();
  const size_t open = at + marker.size();
  const size_t close = raw.find(')', open);
  if (close == std::string::npos) return a;  // malformed
  a.rule = raw.substr(open, close - open);
  // Require `): ` + non-empty justification text.
  size_t p = close + 1;
  if (p >= raw.size() || raw[p] != ':') return a;
  const std::string justification = Trim(raw.substr(p + 1));
  a.well_formed = !justification.empty() && FindRule(a.rule) != nullptr;
  return a;
}

bool IsHeaderPath(const std::string& rel) {
  return rel.size() > 2 && (rel.rfind(".h") == rel.size() - 2 ||
                            (rel.size() > 4 && rel.rfind(".hpp") == rel.size() - 4));
}

class FileScanner {
 public:
  FileScanner(const LayerSpec& layers, std::vector<Violation>* out)
      : layers_(layers), out_(out) {}

  // `display` is the path printed in findings; `rel` the root-relative
  // path (forward slashes) used for scoping.
  bool Scan(const fs::path& file, const std::string& display,
            const std::string& rel) {
    std::ifstream in(file);
    if (!in) return false;
    raw_.clear();
    stripped_.clear();
    std::string line;
    bool in_block = false;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      raw_.push_back(line);
      stripped_.push_back(StripLine(line, &in_block));
    }
    display_ = display;
    rel_ = rel;
    CollectAllows();
    CheckDeterminism();
    CheckLayering();
    CheckSingleWriter();
    CheckRealIoIsolation();
    CheckSimdIsolation();
    CheckHygiene();
    return true;
  }

 private:
  void Report(int line, const std::string& rule, const std::string& msg) {
    if (Allowed(line, rule)) return;
    // One finding per (line, rule): several tokens on one line are the
    // same defect, and the allow annotation works at line granularity.
    if (!reported_.insert({line, rule}).second) return;
    out_->push_back({display_, line, rule, msg});
  }

  bool Allowed(int line, const std::string& rule) const {
    auto it = allows_.find(line);
    return it != allows_.end() && it->second.count(rule) > 0;
  }

  void CollectAllows() {
    allows_.clear();
    reported_.clear();
    for (size_t i = 0; i < raw_.size(); ++i) {
      const int line_no = static_cast<int>(i) + 1;
      auto a = ParseAllow(raw_[i], line_no, stripped_[i]);
      if (!a) continue;
      if (!a->well_formed) {
        // The lint-allow rule polices annotations everywhere the
        // scanner looks, independent of per-rule scopes.
        out_->push_back(
            {display_, line_no, "lint-allow",
             "malformed allow annotation: need "
             "`scout-lint: allow(<known-rule>): <justification>`"});
        continue;
      }
      // A comment-only annotation covers the next code line, so the
      // justification may span several comment lines.
      int target = line_no;
      if (a->standalone) {
        size_t j = i + 1;
        while (j < stripped_.size() && Trim(stripped_[j]).empty()) ++j;
        target = static_cast<int>(j) + 1;
      }
      allows_[target].insert(a->rule);
    }
  }

  bool RuleApplies(const char* id) const {
    const RuleInfo* r = FindRule(id);
    return r != nullptr && InScope(rel_, r->scopes);
  }

  bool LineIsInclude(size_t i) const {
    return Trim(stripped_[i]).rfind("#include", 0) == 0;
  }

  void CheckDeterminism() {
    const bool rand_on = RuleApplies("det-rand");
    const bool dev_on = RuleApplies("det-random-device");
    const bool clock_on = RuleApplies("det-wall-clock");
    const bool unord_on = RuleApplies("det-unordered-container");
    if (!rand_on && !dev_on && !clock_on && !unord_on) return;
    for (size_t i = 0; i < stripped_.size(); ++i) {
      const std::string& s = stripped_[i];
      const int n = static_cast<int>(i) + 1;
      if (rand_on) {
        for (const char* w : {"rand", "srand", "rand_r", "drand48"}) {
          ForEachWord(s, w, [&](size_t col) {
            if (WordFollowedByParen(s, col, std::string(w).size())) {
              Report(n, "det-rand",
                     std::string("call to nondeterministic `") + w + "`");
            }
          });
        }
      }
      if (dev_on) {
        ForEachWord(s, "random_device", [&](size_t) {
          Report(n, "det-random-device", "use of std::random_device");
        });
      }
      if (clock_on) {
        ForEachWord(s, "system_clock", [&](size_t) {
          Report(n, "det-wall-clock", "use of std::chrono::system_clock");
        });
        ForEachWord(s, "gettimeofday", [&](size_t) {
          Report(n, "det-wall-clock", "call to gettimeofday");
        });
        for (const char* w : {"time", "clock"}) {
          ForEachWord(s, w, [&](size_t col) {
            if (WordFollowedByParen(s, col, std::string(w).size())) {
              Report(n, "det-wall-clock",
                     std::string("wall-clock call `") + w + "()`");
            }
          });
        }
      }
      if (unord_on && !LineIsInclude(i)) {
        for (const char* w : {"unordered_map", "unordered_set"}) {
          ForEachWord(s, w, [&](size_t) {
            Report(n, "det-unordered-container",
                   std::string("use of std::") + w +
                       " (unspecified iteration order)");
          });
        }
      }
    }
  }

  void CheckLayering() {
    if (!RuleApplies("layer-dag")) return;
    // Layer = path component after src/.
    const std::string prefix = "src/";
    const size_t slash = rel_.find('/', prefix.size());
    if (slash == std::string::npos) return;
    const std::string layer = rel_.substr(prefix.size(), slash - prefix.size());
    auto it = layers_.allowed.find(layer);
    if (it == layers_.allowed.end()) {
      Report(1, "layer-dag",
             "layer `" + layer + "` is not declared in layering.txt");
      return;
    }
    for (size_t i = 0; i < stripped_.size(); ++i) {
      if (!LineIsInclude(i)) continue;
      // The path itself was blanked with the other string literals;
      // recover it from the raw text.
      const std::string& raw = raw_[i];
      const size_t q1 = raw.find('"');
      if (q1 == std::string::npos) continue;  // <system> include
      const size_t q2 = raw.find('"', q1 + 1);
      if (q2 == std::string::npos) continue;
      const std::string inc = raw.substr(q1 + 1, q2 - q1 - 1);
      const size_t inc_slash = inc.find('/');
      if (inc_slash == std::string::npos) continue;  // same-dir include
      const std::string target = inc.substr(0, inc_slash);
      if (layers_.allowed.count(target) == 0) continue;  // not a layer path
      if (it->second.count(target) == 0) {
        Report(static_cast<int>(i) + 1, "layer-dag",
               "layer `" + layer + "` may not include `" + target +
                   "` (declared DAG: tools/scout_lint/layering.txt)");
      }
    }
  }

  // Shared body of the single-writer rules: a call to one of `methods`
  // through a `.`/`->` receiver whose lowercased identifier contains
  // one of `recv_keys` is a finding (token-level approximation of "a
  // mutating call on the shared object") unless the file is
  // whitelisted.
  void CheckWriterRule(const char* rule,
                       const std::vector<const char*>& whitelist,
                       const std::vector<const char*>& methods,
                       const std::vector<const char*>& recv_keys,
                       const char* what) {
    if (!RuleApplies(rule)) return;
    for (const char* ok : whitelist) {
      if (rel_ == ok) return;
    }
    for (size_t i = 0; i < stripped_.size(); ++i) {
      const std::string& s = stripped_[i];
      const int n = static_cast<int>(i) + 1;
      for (const char* m : methods) {
        ForEachWord(s, m, [&](size_t col) {
          if (!WordFollowedByParen(s, col, std::string(m).size())) return;
          size_t p = col;
          while (p > 0 && (s[p - 1] == ' ' || s[p - 1] == '\t')) --p;
          size_t recv_end;
          if (p >= 1 && s[p - 1] == '.') {
            recv_end = p - 1;
          } else if (p >= 2 && s[p - 2] == '-' && s[p - 1] == '>') {
            recv_end = p - 2;
          } else {
            return;
          }
          size_t recv_begin = recv_end;
          while (recv_begin > 0 && IsWordChar(s[recv_begin - 1])) --recv_begin;
          const std::string recv =
              Lower(s.substr(recv_begin, recv_end - recv_begin));
          bool named = false;
          for (const char* key : recv_keys) {
            if (recv.find(key) != std::string::npos) named = true;
          }
          if (!named) return;
          Report(n, rule,
                 std::string("`") + s.substr(recv_begin, recv_end - recv_begin) +
                     "` mutated via " + m + "() outside the " + what +
                     " whitelist");
        });
      }
    }
  }

  void CheckSingleWriter() {
    CheckWriterRule("cache-single-writer", kCacheWriterWhitelist,
                    {"Insert", "Evict", "Clear", "SetActiveSession",
                     "ConfigureSharing"},
                    {"cache"}, "serial-apply");
    CheckWriterRule("disk-queue-single-writer", kDiskQueueWriterWhitelist,
                    {"ServeBatch", "ServeOne", "TryServeBatch", "TryServeOne",
                     "Reset"},
                    {"disk", "queue"}, "serving-layer");
    CheckWriterRule("fault-injection-seam", kFaultSeamWhitelist,
                    {"AttachFaults"}, {"disk", "queue"}, "fault-seam");
  }

  // Real file/OS I/O is confined to the one backend TU; the rest of
  // src/ reads pages through the PageStore seams. Matched as calls
  // (token followed by `(`) for the C/POSIX surface plus bare
  // mentions of the std stream types, which only appear when a TU
  // opens files itself.
  void CheckRealIoIsolation() {
    if (!RuleApplies("real-io-isolation")) return;
    for (const char* ok : kRealIoWhitelist) {
      if (rel_ == ok) return;
    }
    static const std::vector<const char*> kCallTokens = {
        "open",  "creat",  "pread",  "pwrite",     "mmap",
        "munmap", "fopen", "fread",  "fwrite",     "fsync",
        "fdatasync"};
    static const std::vector<const char*> kTypeTokens = {
        "ifstream", "ofstream", "fstream"};
    for (size_t i = 0; i < stripped_.size(); ++i) {
      const std::string& s = stripped_[i];
      const int n = static_cast<int>(i) + 1;
      for (const char* t : kCallTokens) {
        ForEachWord(s, t, [&](size_t col) {
          if (!WordFollowedByParen(s, col, std::string(t).size())) return;
          Report(n, "real-io-isolation",
                 std::string(t) +
                     "() call outside the real-I/O backend TU "
                     "(src/storage/file_page_store.cc)");
        });
      }
      for (const char* t : kTypeTokens) {
        ForEachWord(s, t, [&](size_t) {
          Report(n, "real-io-isolation",
                 std::string("std::") + t +
                     " outside the real-I/O backend TU "
                     "(src/storage/file_page_store.cc)");
        });
      }
    }
  }

  void CheckSimdIsolation() {
    if (!RuleApplies("simd-isolation")) return;
    if (rel_ == kSimdWrapperHome) return;
    for (size_t i = 0; i < stripped_.size(); ++i) {
      const std::string& s = stripped_[i];
      const int n = static_cast<int>(i) + 1;
      // Any identifier starting with the AVX2 intrinsic prefix. The
      // vector *types* (__m256d) are deliberately not matched: they
      // cannot appear without an intrinsic producing them anyway.
      size_t pos = 0;
      while ((pos = s.find("_mm256_", pos)) != std::string::npos) {
        if (pos == 0 || !IsWordChar(s[pos - 1])) {
          Report(n, "simd-isolation",
                 "raw _mm256_* intrinsic outside " +
                     std::string(kSimdWrapperHome));
        }
        pos += 7;
      }
      // The include line's path survives in the raw text (<...> is not
      // a string literal, but recover from raw for uniformity).
      if (LineIsInclude(i) &&
          raw_[i].find("immintrin.h") != std::string::npos) {
        Report(n, "simd-isolation",
               "#include <immintrin.h> outside " +
                   std::string(kSimdWrapperHome));
      }
    }
  }

  void CheckHygiene() {
    const bool is_header = IsHeaderPath(rel_);
    if (is_header && RuleApplies("hdr-pragma-once")) {
      for (size_t i = 0; i < stripped_.size(); ++i) {
        const std::string code = Trim(stripped_[i]);
        if (code.empty()) continue;
        if (code.rfind("#pragma once", 0) != 0) {
          Report(static_cast<int>(i) + 1, "hdr-pragma-once",
                 "first code line of a header must be #pragma once");
        }
        break;
      }
    }
    if (is_header && RuleApplies("hdr-using-namespace")) {
      for (size_t i = 0; i < stripped_.size(); ++i) {
        ForEachWord(stripped_[i], "using", [&](size_t col) {
          size_t p = col + 5;
          while (p < stripped_[i].size() && std::isspace(static_cast<unsigned char>(stripped_[i][p]))) ++p;
          if (stripped_[i].compare(p, 9, "namespace") == 0) {
            Report(static_cast<int>(i) + 1, "hdr-using-namespace",
                   "using namespace in a header");
          }
        });
      }
    }
    if (RuleApplies("no-float")) {
      for (size_t i = 0; i < stripped_.size(); ++i) {
        ForEachWord(stripped_[i], "float", [&](size_t) {
          Report(static_cast<int>(i) + 1, "no-float",
                 "float in geometry/sim-metric code (use double)");
        });
      }
    }
  }

  const LayerSpec& layers_;
  std::vector<Violation>* out_;
  std::string display_;
  std::string rel_;
  std::vector<std::string> raw_;
  std::vector<std::string> stripped_;
  std::map<int, std::set<std::string>> allows_;
  std::set<std::pair<int, std::string>> reported_;
};

// ------------------------------------------------------------------ driver

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

void CollectFiles(const fs::path& dir, std::vector<fs::path>* out) {
  if (!fs::exists(dir)) return;
  for (fs::recursive_directory_iterator it(dir), end; it != end; ++it) {
    // Committed lint fixtures contain deliberate violations; they are
    // only scanned when named explicitly (by the self-tests).
    if (it->is_directory() && it->path().filename() == "fixtures") {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && HasSourceExtension(it->path())) {
      out->push_back(it->path());
    }
  }
}

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--root DIR] [--layering FILE] [--list-rules] [path...]\n"
         "  Scans src/, bench/, tests/ under --root (default: cwd) for\n"
         "  violations of the scout static contracts. Explicit paths\n"
         "  (files or directories) override the default scan set;\n"
         "  scoping is still computed relative to --root.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string layering_path;
  std::vector<std::string> explicit_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--layering" && i + 1 < argc) {
      layering_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules) {
        std::cout << r.id << ": " << r.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      explicit_paths.push_back(arg);
    }
  }
  root = fs::absolute(root).lexically_normal();
  if (layering_path.empty()) {
    layering_path = (root / "tools/scout_lint/layering.txt").string();
  }

  const std::optional<LayerSpec> layers = LoadLayerSpec(layering_path);
  if (!layers) {
    std::cerr << "scout_lint: cannot load layering spec: " << layering_path
              << "\n";
    return 2;
  }

  std::vector<fs::path> files;
  if (explicit_paths.empty()) {
    for (const char* sub : {"src", "bench", "tests"}) {
      CollectFiles(root / sub, &files);
    }
  } else {
    for (const std::string& p : explicit_paths) {
      const fs::path fp(p);
      if (fs::is_directory(fp)) {
        CollectFiles(fp, &files);
      } else if (fs::is_regular_file(fp)) {
        files.push_back(fp);
      } else {
        std::cerr << "scout_lint: no such file: " << p << "\n";
        return 2;
      }
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Violation> violations;
  FileScanner scanner(*layers, &violations);
  for (const fs::path& f : files) {
    const fs::path abs = fs::absolute(f).lexically_normal();
    const std::string rel = abs.lexically_relative(root).generic_string();
    if (!scanner.Scan(f, rel, rel)) {
      std::cerr << "scout_lint: cannot read " << f << "\n";
      return 2;
    }
  }

  std::stable_sort(violations.begin(), violations.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  for (const Violation& v : violations) {
    std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }
  std::cerr << "scout_lint: scanned " << files.size() << " file(s), "
            << violations.size() << " violation(s)\n";
  return violations.empty() ? 0 : 1;
}
