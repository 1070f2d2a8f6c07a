// The per-file convention rules: project conventions no generic tool
// knows about, checked on each src/*.{hpp,cpp} file's token stream.
//
//   determinism    src/sim, src/virt, src/sched, src/obs, and the
//                  serialization code (below) must not use a global RNG
//                  or any wall clock (the kRng and kWallClock kinds of
//                  the source catalogue) — every simulated run must
//                  replay bit-identically from its seed, and recorded
//                  traces / stored runs must hash identically across
//                  re-runs. Sole exemption: src/obs/scope_timer*, the
//                  opt-in wall-clock profiler whose output never feeds
//                  the deterministic exports.
//   unordered-output  serialization code (src/replay, src/runstore,
//                  src/migrate, and the decision-log, attribution,
//                  span-log, and breakdown writers in src/obs) must not
//                  use std::unordered_* containers: iteration order
//                  there ends up in serialized bytes, and hash order is
//                  not part of the format contract.
//   float-eq       raw ==/!= against floating-point literals outside
//                  src/stats (numeric kernels own their exact-zero
//                  checks and test tolerances).
//   iostream       library code logs through util/log, never iostream
//                  (src/util/log.{hpp,cpp} is the logger itself).
//   pragma-once    every header opens with #pragma once.
//   include-order  a .cpp includes its own header first, then system
//                  headers, then project headers, each block sorted.
//   require-guard  out-of-line constructors taking arguments validate
//                  them with TRACON_REQUIRE.
//   metric-name    metric/scope/log-event name literals passed to
//                  counter()/gauge()/histogram()/scope()/
//                  TRACON_PROF_SCOPE/KvLine/track_accuracy are dotted
//                  snake_case paths ("sched.mios.decisions").
//   raw-thread     raw threading primitives (std::thread, std::async,
//                  mutexes, condition variables, atomics, pthreads and
//                  their headers) are quarantined to src/util/ (the
//                  worker pool, the log level), src/sim/shard_* (the
//                  sharded runner), and src/obs/scope_timer* (the
//                  profiler's registration lock). Everything else in
//                  src/ stays single-threaded per shard so same-seed
//                  runs export identical bytes at any --threads.
//
// Comments and string contents never become code tokens, so prose
// can never fire; <...> header names arrive as kHeaderName tokens.
#include "analyze/passes.hpp"

#include <cctype>
#include <set>

namespace tracon::analyze {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

/// `std :: <name>` starting at toks[i], with <name> in `names`.
bool std_member(const std::vector<Token>& toks, std::size_t i,
                const std::set<std::string>& names) {
  return is_ident(toks[i], "std") && i + 2 < toks.size() &&
         is_punct(toks[i + 1], "::") &&
         toks[i + 2].kind == TokKind::kIdentifier &&
         names.count(toks[i + 2].text) != 0;
}

/// The profiler: the library's one wall-clock site, and the home of
/// its registration lock.
bool scope_timer(const std::string& path) {
  return starts_with(path, "src/obs/scope_timer");
}

/// Serialization code: bytes written must be stable across runs and
/// platforms (traces replay byte-for-byte; run ids are content hashes;
/// migration plans and decision logs byte-compare across --threads).
bool serialization(const std::string& path) {
  for (const char* dir :
       {"src/replay/", "src/runstore/", "src/migrate/",
        "src/obs/decision_log", "src/obs/attribution", "src/obs/span_log",
        "src/obs/breakdown"}) {
    if (starts_with(path, dir)) return true;
  }
  return false;
}

/// Runs `check(file_index, tokens)` on every src/*.{hpp,cpp} file whose
/// path `in_scope` admits.
template <typename Scope, typename Check>
void for_src_files(const Project& project, Scope in_scope, Check check) {
  const std::vector<FileIndex>& files = project.files();
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string& p = files[i].path;
    if (!starts_with(p, "src/") || !(ends_with(p, ".hpp") ||
                                     ends_with(p, ".cpp"))) {
      continue;
    }
    if (in_scope(p)) check(i, files[i].ts.tokens);
  }
}

bool everywhere(const std::string&) { return true; }

/// A floating-point literal: decimal point or decimal exponent. Hex
/// literals (0x1E) are integers no matter what letters they contain;
/// plain integers (slot counts, iteration indices) are fine.
bool is_float_literal(const Token& t) {
  if (t.kind != TokKind::kNumber) return false;
  const std::string& s = t.text;
  if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    return false;
  }
  return s.find_first_of(".eE") != std::string::npos;
}

/// One `#include` directive, in source order.
struct Include {
  std::size_t line = 0;
  bool system = false;  ///< <...> vs "..."
  std::string path;
};

std::vector<Include> includes_of(const std::vector<Token>& toks) {
  std::vector<Include> incs;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    const Token& path = toks[i + 2];
    if (is_punct(toks[i], "#") && toks[i].directive &&
        is_ident(toks[i + 1], "include") &&
        (path.kind == TokKind::kHeaderName ||
         path.kind == TokKind::kString)) {
      incs.push_back(
          {path.line, path.kind == TokKind::kHeaderName, path.text});
    }
  }
  return incs;
}

/// Index of the token closing the bracket opened at toks[open], or
/// toks.size() when it never closes.
std::size_t match_close(const std::vector<Token>& toks, std::size_t open,
                        const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], open_text)) ++depth;
    if (is_punct(toks[i], close_text) && --depth == 0) return i;
  }
  return toks.size();
}

/// ^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$
bool valid_metric_path(const std::string& name) {
  bool segment_start = true;
  for (char c : name) {
    if (segment_start) {
      if (c < 'a' || c > 'z') return false;
      segment_start = false;
    } else if (c == '.') {
      segment_start = true;
    } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                 c == '_')) {
      return false;
    }
  }
  return !segment_start;
}

}  // namespace

void pass_determinism(const Project& project, Reporter& reporter) {
  auto in_scope = [](const std::string& p) {
    return (starts_with(p, "src/sim/") || starts_with(p, "src/virt/") ||
            starts_with(p, "src/sched/") || starts_with(p, "src/obs/") ||
            serialization(p)) &&
           !scope_timer(p);
  };
  for_src_files(project, in_scope,
                [&](std::size_t f, const std::vector<Token>& toks) {
    for (const SourceHit& hit : scan_sources(toks, kRng | kWallClock)) {
      reporter.report(f, hit.line, "determinism",
                      "global RNG / wall-clock call in simulation code; "
                      "thread a seeded tracon::Rng or simulated time "
                      "through instead");
    }
  });
}

void pass_unordered_output(const Project& project, Reporter& reporter) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  // Header names count word by word, so <tr1/unordered_map> fires too.
  auto names_unordered = [](const std::string& text) {
    std::string word;
    for (char c : text + ' ') {
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        word += c;
      } else if (kUnordered.count(word)) {
        return true;
      } else {
        word.clear();
      }
    }
    return false;
  };
  for_src_files(project, serialization,
                [&](std::size_t f, const std::vector<Token>& toks) {
    for (const Token& t : toks) {
      if ((t.kind == TokKind::kIdentifier ||
           t.kind == TokKind::kHeaderName) &&
          names_unordered(t.text)) {
        reporter.report(f, t.line, "unordered-output",
                        "unordered container in serialization code; use "
                        "std::map/std::set (or sort before writing) so "
                        "exported bytes are stable");
      }
    }
  });
}

void pass_float_eq(const Project& project, Reporter& reporter) {
  auto in_scope = [](const std::string& p) {
    return !starts_with(p, "src/stats/");
  };
  for_src_files(project, in_scope,
                [&](std::size_t f, const std::vector<Token>& toks) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!is_punct(toks[i], "==") && !is_punct(toks[i], "!=")) continue;
      std::size_t r = i + 1;
      if (r < toks.size() &&
          (is_punct(toks[r], "-") || is_punct(toks[r], "+"))) {
        ++r;
      }
      if ((i > 0 && is_float_literal(toks[i - 1])) ||
          (r < toks.size() && is_float_literal(toks[r]))) {
        reporter.report(f, toks[i].line, "float-eq",
                        "raw ==/!= against a floating-point literal; "
                        "compare against a tolerance or restructure the "
                        "branch");
      }
    }
  });
}

void pass_iostream(const Project& project, Reporter& reporter) {
  static const std::set<std::string> kStreams = {"cout", "cerr", "cin"};
  auto in_scope = [](const std::string& p) {
    return p != "src/util/log.cpp" && p != "src/util/log.hpp";
  };
  for_src_files(project, in_scope,
                [&](std::size_t f, const std::vector<Token>& toks) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if ((toks[i].kind == TokKind::kHeaderName &&
           toks[i].text == "iostream") ||
          std_member(toks, i, kStreams)) {
        reporter.report(f, toks[i].line, "iostream",
                        "library code must log through util/log, not "
                        "iostream");
      }
    }
  });
}

void pass_pragma_once(const Project& project, Reporter& reporter) {
  auto in_scope = [](const std::string& p) { return ends_with(p, ".hpp"); };
  for_src_files(project, in_scope,
                [&](std::size_t f, const std::vector<Token>& toks) {
    if (toks.empty()) return;
    const std::size_t line = toks[0].line;
    const bool pragma_once =
        toks.size() >= 3 && is_punct(toks[0], "#") &&
        is_ident(toks[1], "pragma") && is_ident(toks[2], "once") &&
        toks[2].line == line && (toks.size() == 3 || toks[3].line != line);
    if (!pragma_once) {
      reporter.report(f, line, "pragma-once",
                      "header must open with #pragma once");
    }
  });
}

void pass_include_order(const Project& project, Reporter& reporter) {
  for_src_files(project, everywhere,
                [&](std::size_t f, const std::vector<Token>& toks) {
    const std::vector<Include> incs = includes_of(toks);
    if (incs.empty()) return;
    auto report = [&](const Include& inc, const std::string& msg) {
      reporter.report(f, inc.line, "include-order", msg);
    };

    std::size_t first = 0;
    const std::string& path = project.files()[f].path;
    if (ends_with(path, ".cpp")) {
      // src/<module>/<stem>.cpp pairs with "<module>/<stem>.hpp".
      std::string own = path.substr(4);
      own.replace(own.size() - 4, 4, ".hpp");
      for (std::size_t i = 1; i < incs.size(); ++i) {
        if (!incs[i].system && incs[i].path == own) {
          report(incs[0], "own header \"" + own + "\" must be included first");
          break;
        }
      }
      if (!incs[0].system && incs[0].path == own) first = 1;
    }

    bool seen_project = false;
    std::string prev_system, prev_project;
    for (std::size_t i = first; i < incs.size(); ++i) {
      const Include& inc = incs[i];
      if (inc.system) {
        if (seen_project) {
          report(inc, "system include <" + inc.path +
                          "> after project includes; keep <...> first");
        } else if (!prev_system.empty() && inc.path < prev_system) {
          report(inc, "system includes not in alphabetical order (<" +
                          inc.path + "> after <" + prev_system + ">)");
        }
        prev_system = inc.path;
      } else {
        if (!prev_project.empty() && inc.path < prev_project) {
          report(inc, "project includes not in alphabetical order (\"" +
                          inc.path + "\" after \"" + prev_project + "\")");
        }
        seen_project = true;
        prev_project = inc.path;
      }
    }
  });
}

void pass_require_guard(const Project& project, Reporter& reporter) {
  auto in_scope = [](const std::string& p) { return ends_with(p, ".cpp"); };
  for_src_files(project, in_scope,
                [&](std::size_t f, const std::vector<Token>& toks) {
    // Out-of-line constructor definitions: X :: X ( params ) ... { body }
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      const Token& name = toks[i];
      if (name.kind != TokKind::kIdentifier || !is_punct(toks[i + 1], "::") ||
          !is_ident(toks[i + 2], name.text.c_str()) ||
          !is_punct(toks[i + 3], "(")) {
        continue;
      }
      const std::size_t open = i + 3;
      const std::size_t close = match_close(toks, open, "(", ")");
      if (close == toks.size()) continue;
      if (close == open + 1 ||
          (close == open + 2 && is_ident(toks[open + 1], "void"))) {
        continue;
      }
      // The body is the first '{' at paren depth zero. `= default`,
      // `= delete`, and plain declarations (next ';') have none.
      std::size_t body = toks.size();
      int depth = 0;
      for (std::size_t p = close + 1; p < toks.size(); ++p) {
        const Token& t = toks[p];
        if (t.kind != TokKind::kPunct) continue;
        if (t.text == "(") ++depth;
        if (t.text == ")") --depth;
        if (depth != 0) continue;
        if (t.text == ";" || t.text.find('=') != std::string::npos) break;
        if (t.text == "{") {
          body = p;
          break;
        }
      }
      if (body == toks.size()) continue;
      const std::size_t end = match_close(toks, body, "{", "}");
      bool guarded = false;
      for (std::size_t p = body; p < end && !guarded; ++p) {
        guarded = toks[p].kind == TokKind::kIdentifier &&
                  toks[p].text.find("TRACON_REQUIRE") != std::string::npos;
      }
      if (!guarded) {
        reporter.report(f, name.line, "require-guard",
                        "constructor " + name.text +
                            " takes arguments but never validates them "
                            "with TRACON_REQUIRE");
      }
    }
  });
}

void pass_metric_name(const Project& project, Reporter& reporter) {
  // Registration sites (MetricsRegistry::counter/gauge/histogram,
  // ProfRegistry::scope, TRACON_PROF_SCOPE, KvLine, and
  // SnapshotSeries::track_accuracy) take the name as a string-literal
  // first argument.
  static const std::set<std::string> kSites = {
      "counter", "gauge",  "histogram",     "scope",
      "KvLine",  "TRACON_PROF_SCOPE", "track_accuracy"};
  for_src_files(project, everywhere,
                [&](std::size_t f, const std::vector<Token>& toks) {
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier ||
          kSites.count(toks[i].text) == 0 || !is_punct(toks[i + 1], "(") ||
          toks[i + 2].kind != TokKind::kString ||
          valid_metric_path(toks[i + 2].text)) {
        continue;
      }
      reporter.report(f, toks[i].line, "metric-name",
                      "metric/scope/event name \"" + toks[i + 2].text +
                          "\" is not a dotted snake_case path");
    }
  });
}

void pass_raw_thread(const Project& project, Reporter& reporter) {
  static const std::set<std::string> kPrimitives = {
      "thread", "jthread", "async", "mutex", "recursive_mutex",
      "shared_mutex", "timed_mutex", "condition_variable",
      "condition_variable_any", "atomic"};
  static const std::set<std::string> kHeaders = {
      "thread", "mutex", "shared_mutex", "condition_variable", "atomic",
      "future"};
  auto in_scope = [](const std::string& p) {
    return !starts_with(p, "src/util/") && !starts_with(p, "src/sim/shard_") &&
           !scope_timer(p);
  };
  for_src_files(project, in_scope,
                [&](std::size_t f, const std::vector<Token>& toks) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      const bool hit =
          std_member(toks, i, kPrimitives) ||
          (t.kind == TokKind::kIdentifier && t.text.size() > 8 &&
           starts_with(t.text, "pthread_")) ||
          (t.kind == TokKind::kHeaderName && kHeaders.count(t.text) != 0);
      if (hit) {
        reporter.report(f, t.line, "raw-thread",
                        "raw threading primitive outside src/util/ and "
                        "src/sim/shard_*; run work through "
                        "tracon::parallel_for so results stay independent "
                        "of the thread count");
      }
    }
  });
}

}  // namespace tracon::analyze
