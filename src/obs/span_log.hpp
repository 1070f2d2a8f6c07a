// Task-lifecycle spans: SpanLog records *where* every second of a
// task's end-to-end latency went — queue wait, running epochs (one per
// co-runner change, stamping the interference factor in force),
// migration freeze/copy windows — as contiguous spans that tile
// [enqueue, complete] exactly. Spans join the decision log by task id,
// so "why was this placed here" (DecisionLog) and "what did that
// placement cost" (SpanLog) are two views of the same task.
//
// The stream is schema-versioned `tracon.spans` JSONL: one header line
// carrying the fingerprint block, then one record per span in
// virtual-time order. Five record kinds share the stream:
//   {"kind": "queued", ...}           the task sat in the manager's
//       bounded queue from t0 (arrival) to t1 (placement);
//   {"kind": "running", ...}          one co-runner epoch: the task ran
//       on `machine` next to `neighbour` at interference speed `factor`
//       (progress per wall second, <= ~1) for [t0, t1);
//   {"kind": "migration_copy", ...}   a running epoch overlapped by a
//       live-migration copy window — progress drops to
//       factor * copy_factor while both hosts carry the copy I/O;
//   {"kind": "migration_freeze", ...} the stop-and-copy pause: the task
//       makes no progress at all;
//   {"kind": "completed", ...}        zero-length marker at completion,
//       carrying the solo runtime for slowdown reference.
//
// The latency decomposition (obs::breakdown) is fixed per kind so the
// components tile each span's duration d = t1 - t0 exactly:
//   queued:           wait         += d
//   running:          solo         += d * factor
//                     interference += d * (1 - factor)
//   migration_copy:   solo         += d * factor * copy_factor
//                     interference += d * (1 - factor)
//                     migration    += d * factor * (1 - copy_factor)
//   migration_freeze: migration    += d
// Summing over a task's spans, wait + solo + interference + migration
// equals complete - enqueue up to floating-point rounding (the
// validator enforces 1e-9).
//
// Determinism contract (DESIGN.md §6i): timestamps come from the
// virtual clock only, doubles go through the shortest round-trip
// writer, and the sharded runner merges per-shard logs by re-indexing
// machine/task ids and ordering spans by (start, shard, position) —
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
#include <utility>
#include <vector>

namespace tracon::obs {

inline constexpr std::string_view kSpanLogSchema = "tracon.spans";

/// One contiguous segment of a task's lifecycle. Zero-length segments
/// (t1 == t0) are suppressed at record time except the `completed`
/// marker, which is zero-length by definition (t0 == t1 == completion).
struct SpanEvent {
  enum class Kind {
    kQueued,
    kRunning,
    kMigrationFreeze,
    kMigrationCopy,
    kCompleted,
  };

  /// Sentinel for "no machine" (queued spans).
  static constexpr std::size_t kNoMachine = static_cast<std::size_t>(-1);

  Kind kind = Kind::kQueued;
  std::uint64_t task = 0;
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::size_t app = 0;
  std::size_t machine = kNoMachine;  ///< all kinds except queued
  /// Co-runner app class during a running/copy epoch; nullopt when the
  /// task had the machine to itself.
  std::optional<std::size_t> neighbour;
  /// Interference speed in force (progress per wall second next to
  /// `neighbour`; usually <= 1, slightly above when a pairing outpaces
  /// solo and the interference penalty becomes a credit). Running and
  /// migration_copy spans only.
  double factor = 1.0;
  /// Extra slowdown from the live-migration copy window (1 -
  /// copy_interference). migration_copy spans only.
  double copy_factor = 1.0;
  /// Solo reference runtime, stamped on the completed marker.
  double solo_runtime_s = 0.0;
};

/// Append-only recorder owned by obs::Telemetry. All record calls are
/// no-ops until set_enabled(true); the simulator probes it through the
/// nullable Telemetry* it already carries, so the log is zero-cost
/// when off.
class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Appends one span. Zero-length segments are dropped (they carry no
  /// time) unless they are the `completed` marker; t1 < t0 is a
  /// contract violation.
  void record(SpanEvent event);

  /// Appends a pre-built span verbatim — the sharded merge path, after
  /// re-indexing ids. Ignores the enabled gate and keeps zero-length
  /// spans as given.
  void append(SpanEvent event);
  /// Appends a whole merged stream at once, moving the spans in.
  void append(std::vector<SpanEvent> events);

  std::size_t size() const { return events_.size(); }
  const std::vector<SpanEvent>& events() const { return events_; }
  /// Moves every recorded span out, leaving the log empty.
  std::vector<SpanEvent> take_events() { return std::exchange(events_, {}); }

  /// Reproducibility stamp emitted in the header line. Deliberately
  /// excludes the thread count so logs stay byte-comparable across
  /// `--threads` values.
  void set_fingerprint(const std::string& key, const std::string& value);
  const std::map<std::string, std::string>& fingerprint() const {
    return fingerprint_;
  }

  /// Header line plus one record per span, in append order.
  void write(std::ostream& os) const;
  std::string str() const;

 private:
  bool enabled_ = false;
  std::vector<SpanEvent> events_;
  std::map<std::string, std::string> fingerprint_;
};

/// Parsed span-log document, as read back by obs::breakdown, `tracon
/// explain`, and telemetry_check.
struct SpanDoc {
  int version = 0;
  std::map<std::string, std::string> fingerprint;
  std::vector<SpanEvent> events;
};

/// Parses a document as written by SpanLog::write. Throws
/// std::invalid_argument on a foreign schema or malformed records.
SpanDoc parse_span_log(std::istream& in);
SpanDoc parse_span_log(const std::string& text);

/// Re-emits a parsed (or programmatically merged) document in the
/// exact byte format SpanLog::write produces — the sharded runner
/// publishes its merged log through this writer so the result is
/// byte-comparable across thread counts.
void write_span_log(std::ostream& os, const SpanDoc& doc);
std::string span_log_str(const SpanDoc& doc);

}  // namespace tracon::obs
