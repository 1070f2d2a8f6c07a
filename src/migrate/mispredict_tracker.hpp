// The rebalancer's mispredict signal, kept incrementally. Each
// completion whose placement logged a decision (MIOS, MIBS, MIX — FIFO
// never does) joins its decision's predicted runtime to the realized
// runtime, exactly as obs::attribute joins a decision log's records:
//   - per-(app, realized co-runner) obs::PairCell counts and slowdown
//     sums, added up in completion order, so `pairs()` is bit-equal to
//     attribute's heatmap over the same run;
//   - the `top_k` worst joined completions in `mispredict_order`'s
//     order (|runtime error| descending, task id ascending), so
//     `rows()` equals attribute's first top_k ranked rows.
// It reads no log, so the rebalancer sees the same signal whether or
// not the run records one, and a round costs O(cells + top_k) instead
// of a pass over everything recorded so far.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "obs/attribution.hpp"

namespace tracon::migrate {

/// One joined completion, reduced to what Rebalancer::plan reads.
struct MispredictRow {
  std::uint64_t task = 0;  ///< shard-local task id
  std::size_t app = 0;
  std::optional<std::size_t> neighbour;  ///< realized co-runner
  double abs_runtime_error = 0.0;  ///< |relative_error(predicted, realized)|
  double realized_slowdown = 0.0;  ///< runtime / solo runtime
};

class MispredictTracker {
 public:
  explicit MispredictTracker(std::size_t top_k) : top_k_(top_k) {}

  /// Joins one completion to its decision's `predicted_runtime_s`.
  /// Task ids must be unique among observed completions.
  void observe(std::uint64_t task, std::size_t app,
               const std::optional<std::size_t>& neighbour,
               double predicted_runtime_s, double runtime_s,
               double solo_runtime_s);

  /// (app, co-runner) heatmap over every joined completion.
  const std::map<obs::PairKey, obs::PairCell>& pairs() const {
    return pairs_;
  }
  /// At most top_k rows, worst mispredict first.
  std::span<const MispredictRow> rows() const { return rows_; }

 private:
  std::size_t top_k_;
  std::map<obs::PairKey, obs::PairCell> pairs_;
  std::vector<MispredictRow> rows_;
};

}  // namespace tracon::migrate
