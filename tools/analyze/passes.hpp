// The tracon_analyze pass pipeline. Each pass reads the shared
// Project snapshot and reports through the suppression-aware Reporter;
// rule semantics are documented in analysis.hpp and DESIGN.md
// ("Architecture layers & static analysis").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/analysis.hpp"

namespace tracon::analyze {

/// Module-DAG enforcement plus include-cycle rejection.
void pass_layering(const Project& project, Reporter& reporter);

/// Non-const namespace-scope variables and non-const static locals
/// in src/.
void pass_mutable_global(const Project& project, Reporter& reporter);

/// Nondeterminism sources that the include graph shows can share a
/// translation unit with an emitter.
void pass_determinism_taint(const Project& project, Reporter& reporter);

/// Unguarded mutation of by-reference captures inside parallel_for
/// bodies.
void pass_parallel_discipline(const Project& project, Reporter& reporter);

/// The per-file convention rules over src/*.{hpp,cpp}
/// (pass_conventions.cpp), one function per rule.
void pass_determinism(const Project& project, Reporter& reporter);
void pass_unordered_output(const Project& project, Reporter& reporter);
void pass_float_eq(const Project& project, Reporter& reporter);
void pass_iostream(const Project& project, Reporter& reporter);
void pass_pragma_once(const Project& project, Reporter& reporter);
void pass_include_order(const Project& project, Reporter& reporter);
void pass_require_guard(const Project& project, Reporter& reporter);
void pass_metric_name(const Project& project, Reporter& reporter);
void pass_raw_thread(const Project& project, Reporter& reporter);

/// Kinds in the one nondeterminism source catalogue, as bit flags.
/// `determinism` looks for kRng | kWallClock in its directory list;
/// `determinism-taint` looks for every kind anywhere in src/.
enum SourceKind : unsigned {
  kRng = 1u << 0,
  kWallClock = 1u << 1,
  kEnvironment = 1u << 2,
  kIterationOrder = 1u << 3,
  kThread = 1u << 4,
  kAllSources = kRng | kWallClock | kEnvironment | kIterationOrder | kThread,
};

struct SourceHit {
  std::size_t line = 0;
  std::string what;  ///< the offending spelling, for the message
};

/// Every use of a catalogued source whose kind is in `kinds`, in token
/// order (pass_determinism_taint.cpp holds the catalogue).
std::vector<SourceHit> scan_sources(const std::vector<Token>& toks,
                                    unsigned kinds);

}  // namespace tracon::analyze
