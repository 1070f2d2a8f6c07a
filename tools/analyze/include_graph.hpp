// Include-graph builder over the repository's four source roots
// (src/, tools/, bench/, tests/).
//
// Nodes are repo-relative file paths; edges are quoted #include
// directives resolved the way the build resolves them: against the
// includer's own directory first (bench_common.hpp style), then the
// src/ include root, then the tools/ include root. System includes and
// unresolvable paths carry no edge — the passes only reason about
// project structure.
//
// The graph feeds two passes directly: `layering` walks every edge
// against the module DAG, and `determinism-taint` uses reachability to
// decide whether a nondeterminism source can share a translation unit
// with an emitter.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tracon::analyze {

/// Module name for a repo-relative POSIX path: "src/sim/x.cpp" ->
/// "sim", "tools/analyze/x.cpp" -> "tools", "tests/x.cpp" -> "tests",
/// "bench/x.cpp" -> "bench". Empty for anything else.
std::string module_of(const std::string& path);

/// Rank of a module in the enforced layer DAG (higher may include
/// lower, never the reverse, and never a different module of the same
/// rank). -1 for unknown modules, which are not checked:
///
///   0 util | 1 obs | 2 stats, virt | 3 workload, monitor | 4 model
///   5 sched | 6 sim | 7 replay, runstore | 8 core
///   9 tools, bench, examples | 10 tests (tests exercise the tools)
int layer_rank(const std::string& module);

struct IncludeEdge {
  std::size_t to = 0;    ///< index into the path list handed to build()
  std::size_t line = 0;  ///< 1-based line of the #include directive
  std::string spelled;   ///< the path as written between the quotes
};

struct QuotedInclude {
  std::string path;      ///< as written
  std::size_t line = 0;  ///< 1-based
};

class IncludeGraph {
 public:
  /// `paths[i]` is the repo-relative path of node i; `quoted[i]` the
  /// quoted includes its source spells. Both must be parallel.
  static IncludeGraph build(
      const std::vector<std::string>& paths,
      const std::vector<std::vector<QuotedInclude>>& quoted);

  const std::vector<std::vector<IncludeEdge>>& edges() const {
    return edges_;
  }

  /// Transitive include closure from `root`, root included, as a
  /// sorted index list.
  std::vector<std::size_t> reachable(std::size_t root) const;

  /// Strongly connected components with more than one member (or a
  /// self-include): each is one include cycle, members sorted, the
  /// component list ordered by its smallest member. Deterministic.
  std::vector<std::vector<std::size_t>> cycles() const;

 private:
  std::vector<std::vector<IncludeEdge>> edges_;
};

}  // namespace tracon::analyze
