// determinism-taint: the repo's headline contract is that every run
// replays bit-identically from its seed, so the bytes the system emits
// (metrics/trace/series/decision-log exports in src/obs, traces in
// src/replay, stored runs in src/runstore, migration plans in
// src/migrate) must never be downstream of a nondeterminism source.
// The `determinism` rule catches RNG and wall-clock hits in a fixed
// directory list; this pass instead looks for every catalogued source
// anywhere in src/ and uses the include graph to decide whether each
// one can share a translation unit with an emitter — if it can, the
// tainted value has a compile-time path into reproducible output and
// the finding names the witness TU and emitter.
//
// This file also holds the one source catalogue both rules read, each
// entry tagged with its kind:
//   * RNG: rand, srand, drand48, lrand48, mrand48, rand_r, random
//     (call syntax), std::random_device;
//   * wall clock: time/clock (call syntax), gettimeofday,
//     clock_gettime, localtime, gmtime, timespec_get, ctime, asctime,
//     mktime, strftime, difftime, system_clock, steady_clock,
//     high_resolution_clock;
//   * environment: getenv (call syntax);
//   * iteration order: std::unordered_{map,set,multimap,multiset} and
//     pointer-keyed std::map/std::set (hash seeds and heap addresses
//     vary run to run);
//   * thread identity: this_thread.
#include "analyze/passes.hpp"

#include <map>

namespace tracon::analyze {

namespace {

struct Source {
  SourceKind kind;
  /// Only counts with call syntax: `time(`, `rand(` — the bare words
  /// are everyday identifiers (struct fields named `time`, locals
  /// named `random`). Otherwise the bare identifier is already damning.
  bool call_only;
};

const std::map<std::string, Source>& catalogue() {
  static const std::map<std::string, Source> kSources = {
      {"rand", {kRng, true}},
      {"srand", {kRng, true}},
      {"drand48", {kRng, true}},
      {"lrand48", {kRng, true}},
      {"mrand48", {kRng, true}},
      {"rand_r", {kRng, true}},
      {"random", {kRng, true}},
      {"random_device", {kRng, false}},
      {"time", {kWallClock, true}},
      {"clock", {kWallClock, true}},
      {"system_clock", {kWallClock, false}},
      {"steady_clock", {kWallClock, false}},
      {"high_resolution_clock", {kWallClock, false}},
      {"gettimeofday", {kWallClock, false}},
      {"clock_gettime", {kWallClock, false}},
      {"localtime", {kWallClock, false}},
      {"gmtime", {kWallClock, false}},
      {"timespec_get", {kWallClock, false}},
      {"ctime", {kWallClock, false}},
      {"asctime", {kWallClock, false}},
      {"mktime", {kWallClock, false}},
      {"strftime", {kWallClock, false}},
      {"difftime", {kWallClock, false}},
      {"getenv", {kEnvironment, true}},
      {"unordered_map", {kIterationOrder, false}},
      {"unordered_set", {kIterationOrder, false}},
      {"unordered_multimap", {kIterationOrder, false}},
      {"unordered_multiset", {kIterationOrder, false}},
      {"this_thread", {kThread, false}},
  };
  return kSources;
}

/// True when the first template argument after `map<`/`set<` ends in
/// `*` — iteration order of a pointer-keyed ordered container is heap
/// layout, not data.
bool pointer_keyed(const std::vector<Token>& toks, std::size_t open) {
  std::size_t depth = 1;
  bool last_was_star = false;
  for (std::size_t i = open + 1; i < toks.size() && depth > 0; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "<") ++depth;
      if (t.text == ">") {
        --depth;
        if (depth == 0) return last_was_star;
        continue;
      }
      if (t.text == "," && depth == 1) return last_was_star;
      last_was_star = t.text == "*";
      continue;
    }
    last_was_star = false;
  }
  return false;
}

}  // namespace

std::vector<SourceHit> scan_sources(const std::vector<Token>& toks,
                                    unsigned kinds) {
  std::vector<SourceHit> hits;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    const Token* next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
    const bool call = next && next->kind == TokKind::kPunct &&
                      next->text == "(";
    auto it = catalogue().find(t.text);
    if (it != catalogue().end() && (it->second.kind & kinds) != 0) {
      const bool member_access =
          prev && prev->kind == TokKind::kPunct &&
          (prev->text == "." || prev->text == "->");
      // An identifier directly before (other than `return`) makes this
      // a declarator — `double clock();` declares a method, not a call.
      const bool declarator = prev && prev->kind == TokKind::kIdentifier &&
                              prev->text != "return";
      if (member_access) continue;
      if (!it->second.call_only) {
        hits.push_back({t.line, t.text});
      } else if (call && !declarator) {
        hits.push_back({t.line, t.text + "()"});
      }
      continue;
    }
    if ((kinds & kIterationOrder) != 0 &&
        (t.text == "map" || t.text == "set") && next &&
        next->kind == TokKind::kPunct && next->text == "<" &&
        pointer_keyed(toks, i + 1)) {
      hits.push_back({t.line, "pointer-keyed std::" + t.text});
    }
  }
  return hits;
}

void pass_determinism_taint(const Project& project, Reporter& reporter) {
  const std::vector<FileIndex>& files = project.files();
  const IncludeGraph& graph = project.graph();

  // Emitters: the modules whose output bytes are contractually stable.
  std::vector<bool> is_emitter(files.size(), false);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string& m = files[i].module;
    is_emitter[i] = files[i].path.rfind("src/", 0) == 0 &&
                    (m == "obs" || m == "replay" || m == "runstore" ||
                     m == "migrate");
  }

  // For every translation unit, the closure and whether it reaches an
  // emitter; then invert into "which emitter-reaching TUs contain file
  // F". TU roots are .cpp files anywhere in the project — a tainted
  // header is a problem wherever it gets compiled.
  struct Witness {
    std::size_t tu;
    std::size_t emitter;
  };
  std::map<std::size_t, Witness> witness_for;  // file -> smallest witness
  for (std::size_t tu = 0; tu < files.size(); ++tu) {
    const std::string& p = files[tu].path;
    if (p.size() < 4 || p.compare(p.size() - 4, 4, ".cpp") != 0) continue;
    std::vector<std::size_t> closure = graph.reachable(tu);
    std::size_t emitter = files.size();
    for (std::size_t member : closure) {
      if (is_emitter[member]) {
        emitter = member;  // closure is sorted: first hit is smallest
        break;
      }
    }
    if (emitter == files.size()) continue;
    for (std::size_t member : closure) {
      auto it = witness_for.find(member);
      // Files are sorted by path, so the smallest tu index is also the
      // lexicographically smallest witness path.
      if (it == witness_for.end()) {
        witness_for.emplace(member, Witness{tu, emitter});
      }
    }
  }

  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].path.rfind("src/", 0) != 0) continue;
    auto wit = witness_for.find(i);
    if (wit == witness_for.end()) continue;  // never meets an emitter
    for (const SourceHit& hit :
         scan_sources(files[i].ts.tokens, kAllSources)) {
      reporter.report(
          i, hit.line, "determinism-taint",
          "nondeterminism source '" + hit.what + "' reaches emitter '" +
              files[wit->second.emitter].path +
              "' through translation unit '" +
              files[wit->second.tu].path +
              "'; thread a seeded tracon::Rng / virtual clock / "
              "ordered container through instead");
    }
  }
}

}  // namespace tracon::analyze
