// Interference attribution: joins the decision log's placement
// decisions to the completions they produced (by task id) and reduces
// the pairs to the three views the CLI surfaces:
//   - per-decision prediction error (predicted vs realized runtime and
//     IOPS, via the shared relative_error definition),
//   - a per-co-location-pair realized-slowdown heatmap keyed on
//     (task app class, realized co-runner),
//   - a mispredict ranking, worst absolute runtime error first.
//
// Everything here is a pure function of the decision records: maps
// iterate in key order and ties break on task id, so the same log
// always yields the same report — `tracon attribution --json` is
// byte-deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/decision_log.hpp"

namespace tracon::obs {

/// One decision joined to its outcome.
struct AttributionRow {
  std::uint64_t task = 0;
  double decided_at_s = 0.0;
  double completed_at_s = 0.0;
  std::size_t app = 0;
  std::optional<std::size_t> neighbour;  ///< realized co-runner
  std::size_t machine = DecisionEvent::kNoMachine;
  std::string scheduler;
  std::size_t candidates = 0;  ///< candidate-set size at decision time
  double margin = 0.0;
  double predicted_runtime_s = 0.0;
  double runtime_s = 0.0;
  double runtime_error = 0.0;  ///< relative_error(predicted, realized)
  double predicted_iops = 0.0;
  double iops = 0.0;
  double iops_error = 0.0;
  double realized_slowdown = 0.0;  ///< runtime / solo runtime
};

/// Aggregate for one (app, co-runner) cell of the heatmap.
struct PairCell {
  std::uint64_t count = 0;
  double total_slowdown = 0.0;
  double total_abs_runtime_error = 0.0;

  /// Adds one joined completion. Callers that must agree bit for bit
  /// (attribute and migrate::MispredictTracker) add in completion order.
  void add(double slowdown, double abs_runtime_error) {
    ++count;
    total_slowdown += slowdown;
    total_abs_runtime_error += abs_runtime_error;
  }

  double mean_slowdown() const {
    return count == 0 ? 0.0 : total_slowdown / static_cast<double>(count);
  }
  double mean_abs_runtime_error() const {
    return count == 0 ? 0.0
                      : total_abs_runtime_error / static_cast<double>(count);
  }
};

using PairKey = std::pair<std::size_t, std::optional<std::size_t>>;

struct AttributionReport {
  std::uint64_t decisions = 0;  ///< decision records in the log
  std::uint64_t outcomes = 0;   ///< outcome records in the log
  std::uint64_t joined = 0;     ///< decisions matched to an outcome
  double mean_candidates = 0.0;          ///< over all decisions
  double mean_abs_runtime_error = 0.0;   ///< over joined rows
  double mean_abs_iops_error = 0.0;      ///< over joined rows
  std::vector<AttributionRow> rows;      ///< completion order
  /// Row indices sorted by |runtime_error| descending, task ascending.
  std::vector<std::size_t> mispredict_order;
  std::map<PairKey, PairCell> pairs;  ///< (app, co-runner) heatmap
};

/// Builds the report from a log's records (a parsed DecisionDoc's
/// `events`, or a live DecisionLog's). Pure and deterministic: same
/// records, same bytes out of any serializer that walks it in order.
AttributionReport attribute(std::span<const DecisionEvent> events);

}  // namespace tracon::obs
