// Typed simulation event tracing with virtual-clock timestamps.
//
// The tracer records plain-old-data events (no allocation per event
// beyond vector growth) and exports two machine-readable views:
//   - Chrome trace_event JSON, loadable in chrome://tracing and
//     Perfetto (task lifetimes become duration slices per machine,
//     control-plane events become instants);
//   - one JSON object per line (JSONL) for ad-hoc scripting.
//
// Timestamps are SIMULATED seconds — never wall clock — so two runs
// with the same seed export byte-identical traces. The tracer is
// disabled by default; a disabled tracer's record() is a branch and a
// return, with zero allocations (tested in test_tracer.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <utility>
#include <vector>

namespace tracon::obs {

enum class TraceEventKind : std::uint8_t {
  kTaskArrival,    ///< app; count = queue length after enqueue
  kTaskDropped,    ///< app; queue was at capacity
  kTaskPlaced,     ///< app, machine; value = predicted runtime (if probed)
  kTaskCompleted,  ///< app, machine; value = realized runtime, value2 = IOPS
  kVmStart,        ///< machine left the empty state
  kVmStop,         ///< machine returned to the empty state
  kSchedDecision,  ///< count = queue length, value = predicted cost of the
                   ///< chosen placements, value2 = number placed
  kModelRetrain,   ///< count = training-window size
  kModelDrift,     ///< count = drift kind (1 mean shift, 2 variance surge)
};

/// Dotted snake_case event name ("sim.task.arrival", "sched.decision").
std::string_view trace_event_kind_name(TraceEventKind kind);

struct TraceEvent {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  double time_s = 0.0;  ///< virtual clock
  TraceEventKind kind = TraceEventKind::kTaskArrival;
  std::size_t app = kNone;      ///< application class, when applicable
  std::size_t machine = kNone;  ///< machine index, when applicable
  std::size_t count = 0;        ///< kind-specific cardinality
  double value = 0.0;           ///< kind-specific payload (see kind docs)
  double value2 = 0.0;
};

class EventTracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Caps the number of recorded events; records past the cap are
  /// counted in dropped() instead of stored. Long instrumented runs
  /// (e.g. the bench sidecar) use this to bound trace-file size.
  /// Default: no cap.
  void set_max_events(std::size_t n) { max_events_ = n; }
  std::size_t dropped() const { return dropped_; }

  /// Appends `ev` when enabled; a no-op (no allocation) otherwise.
  void record(const TraceEvent& ev) {
    if (!enabled_) return;
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(ev);
  }

  /// Appends a whole merged stream at once as record() would, but
  /// without the enabled gate: events past the cap count as dropped.
  void append(std::vector<TraceEvent> events);

  const std::vector<TraceEvent>& events() const { return events_; }
  /// Moves every recorded event out, leaving the tracer empty (the
  /// dropped count is kept).
  std::vector<TraceEvent> take_events() { return std::exchange(events_, {}); }
  std::size_t capacity() const { return events_.capacity(); }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Chrome trace_event format: {"traceEvents": [...]}. Task lifetimes
  /// export as "X" duration slices (pid 0 = hosts, tid = machine);
  /// control-plane events as "i" instants (pid 1).
  void write_chrome_json(std::ostream& os) const;

  /// One JSON object per line, in record order.
  void write_jsonl(std::ostream& os) const;

 private:
  bool enabled_ = false;
  std::size_t max_events_ = static_cast<std::size_t>(-1);
  std::size_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace tracon::obs
