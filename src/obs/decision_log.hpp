// Decision provenance: DecisionLog records *why* every placement
// happened — the candidate slots the scheduler scanned, what each model
// family predicted for them, the confidence weights in force, and the
// margin by which the chosen slot won — then joins each decision to the
// task's eventual completion (realized runtime/IOPS) so prediction
// error is attributable per decision.
//
// The stream is schema-versioned `tracon.decision_log` JSONL: one
// header line carrying the fingerprint block, then one record per
// event in virtual-time order. Three record kinds share the stream:
//   {"kind": "decision", ...}  emitted when a scheduler commits a
//       placement (task, candidates, per-family predictions, weights,
//       chosen index, margin, both-objective predicted values), plus
//       the machine id once the simulator binds the slot;
//   {"kind": "migration", ...} emitted when the rebalancer re-places a
//       running task (source/destination hosts and co-runners, the
//       predicted stay/move remaining times, the migration cost
//       breakdown, and the margin by which moving won) — added in
//       schema version 2 so `tracon explain` covers moves;
//   {"kind": "outcome", ...}   emitted when the task completes
//       (realized runtime, mean IOPS, co-runner at placement, solo
//       runtime for slowdown attribution).
//
// Determinism contract (DESIGN.md §6g): timestamps come from the
// virtual clock only, doubles go through the shortest round-trip
// writer, and the sharded runner merges per-shard logs by re-indexing
// machine/task ids and ordering records by (time, shard, position) —
// `--threads N` writes byte-identical logs to `--threads 1`. Recording
// is gated on enabled(): when off, every record call returns
// immediately and no simulation output changes by a byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tracon::obs {

class JsonValue;

inline constexpr std::string_view kDecisionLogSchema = "tracon.decision_log";

/// One candidate slot the scheduler scanned for a task. `neighbour`
/// is the app class already resident on the candidate machine, or
/// nullopt for an empty machine.
struct DecisionCandidate {
  std::optional<std::size_t> neighbour;
  /// Ensemble prediction under the scheduler's objective (runtime
  /// seconds or combined IOPS) if the task were placed here.
  double score = 0.0;
  /// The same prediction from each model family individually, in
  /// DecisionEvent::families order. Single-model schedulers carry one
  /// entry equal to `score`.
  std::vector<double> by_family;
};

/// One record in the decision log: a placement decision, a rebalancer
/// re-placement, or the completion outcome they are later joined to
/// (by task id).
struct DecisionEvent {
  enum class Kind { kDecision, kMigration, kOutcome };

  /// Sentinel for "machine not bound" on a decision record.
  static constexpr std::size_t kNoMachine = static_cast<std::size_t>(-1);

  Kind kind = Kind::kDecision;
  std::uint64_t task = 0;
  double time_s = 0.0;
  std::size_t app = 0;
  std::size_t machine = kNoMachine;

  // -- decision fields --
  std::string scheduler;
  std::string objective;             ///< "runtime" or "iops"
  std::vector<std::string> families; ///< model family names
  std::vector<double> weights;       ///< confidence weight per family
  std::vector<DecisionCandidate> candidates;
  std::size_t chosen = 0;  ///< index into `candidates`
  /// How decisively the chosen slot won: distance from the runner-up's
  /// score, signed so that a negative margin records a policy override
  /// (e.g. the beneficial-join filter rejecting the raw argmin). Zero
  /// when only one candidate existed.
  double margin = 0.0;
  double predicted_runtime_s = 0.0;
  double predicted_iops = 0.0;

  // -- outcome fields --
  std::optional<std::size_t> neighbour;  ///< co-runner at placement; on a
                                         ///< migration record, the
                                         ///< destination co-runner
  double runtime_s = 0.0;
  double iops = 0.0;
  double solo_runtime_s = 0.0;  ///< reference runtime for slowdown

  // -- migration fields (kind == kMigration; `machine` carries the
  // destination host, `neighbour` the destination co-runner, `margin`
  // the predicted benefit predicted_stay_s - predicted_move_s) --
  std::size_t from_machine = kNoMachine;      ///< source host
  std::optional<std::size_t> from_neighbour;  ///< co-runner left behind
  double predicted_stay_s = 0.0;  ///< predicted remaining time in place
  double predicted_move_s = 0.0;  ///< predicted remaining time after the
                                  ///< move, migration cost included
  double downtime_s = 0.0;        ///< stop-and-copy pause
  double copy_s = 0.0;            ///< copy-window length on both hosts
  double cost_s = 0.0;            ///< total cost charged to the task
};

/// Append-only recorder owned by obs::Telemetry. All record calls are
/// no-ops until set_enabled(true); schedulers and the simulator probe
/// it through the nullable Telemetry* they already carry, so the log
/// is zero-cost when off.
class DecisionLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Appends a decision record (kind forced to kDecision) and indexes
  /// it by task id for later bind_machine()/record_outcome() joins.
  void record_decision(DecisionEvent event);

  /// Stamps the machine id onto `task`'s decision record once the
  /// simulator binds the placement to a concrete machine. No-op when
  /// the task has no recorded decision (e.g. FIFO placements).
  void bind_machine(std::uint64_t task, std::size_t machine);

  /// Appends a re-placement record (kind forced to kMigration). The
  /// rebalancer stamps source/destination hosts and the cost breakdown
  /// before handing the event over; a task may carry any number of
  /// migration records between its decision and its outcome.
  void record_migration(DecisionEvent event);

  /// Appends a completion record (kind forced to kOutcome). Recorded
  /// even for tasks without a decision; attribution joins by task id.
  void record_outcome(DecisionEvent event);

  /// Appends a pre-built event verbatim — the sharded merge path,
  /// after re-indexing ids. Ignores the enabled gate.
  void append(DecisionEvent event);
  /// Appends a whole merged stream at once, moving the events in.
  void append(std::vector<DecisionEvent> events);

  std::size_t size() const { return events_.size(); }
  const std::vector<DecisionEvent>& events() const { return events_; }
  /// Moves every recorded event out, leaving the log empty (the sharded
  /// merge consumes per-shard logs this way instead of copying them).
  std::vector<DecisionEvent> take_events();

  /// Reproducibility stamp emitted in the header line. Deliberately
  /// excludes the thread count so logs stay byte-comparable across
  /// `--threads` values.
  void set_fingerprint(const std::string& key, const std::string& value);
  const std::map<std::string, std::string>& fingerprint() const {
    return fingerprint_;
  }

  /// Header line plus one record per event, in append order.
  void write(std::ostream& os) const;
  std::string str() const;

 private:
  bool enabled_ = false;
  std::vector<DecisionEvent> events_;
  std::map<std::uint64_t, std::size_t> decision_index_;
  std::map<std::string, std::string> fingerprint_;
};

/// Parsed decision-log document, as read back by the attribution
/// engine, `tracon explain`, and telemetry_check.
struct DecisionDoc {
  int version = 0;
  std::map<std::string, std::string> fingerprint;
  std::vector<DecisionEvent> events;
};

/// Parses a document as written by DecisionLog::write. Throws
/// std::invalid_argument on a foreign schema or malformed records.
DecisionDoc parse_decision_log(std::istream& in);
DecisionDoc parse_decision_log(const std::string& text);

/// Re-emits a parsed (or programmatically merged) document in the
/// exact byte format DecisionLog::write produces — the sharded runner
/// publishes its merged log through this writer so the result is
/// byte-comparable across thread counts.
void write_decision_log(std::ostream& os, const DecisionDoc& doc);
std::string decision_log_str(const DecisionDoc& doc);

}  // namespace tracon::obs
