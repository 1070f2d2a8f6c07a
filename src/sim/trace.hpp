// Per-task event tracing for the dynamic scenario: who arrived, where
// each task was placed, when it completed, what was rejected. Useful for
// debugging scheduler behaviour and for offline analysis/plotting
// (CSV or JSONL export; `tracon dynamic --trace out.csv`).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tracon::sim {

enum class TaskEventKind { kArrived, kDropped, kPlaced, kCompleted };

std::string_view task_event_kind_name(TaskEventKind kind);

/// Inverse of task_event_kind_name; nullopt for unknown names, so
/// task-event files round-trip through their textual form.
std::optional<TaskEventKind> parse_task_event_kind(std::string_view name);

struct TaskEvent {
  double time_s = 0.0;
  TaskEventKind kind = TaskEventKind::kArrived;
  std::size_t app = 0;
  /// Machine index for kPlaced/kCompleted; npos otherwise.
  std::size_t machine = kNoMachine;

  static constexpr std::size_t kNoMachine = static_cast<std::size_t>(-1);
};

class TraceRecorder {
 public:
  void record(const TaskEvent& event) { events_.push_back(event); }
  void record(double time_s, TaskEventKind kind, std::size_t app,
              std::size_t machine = TaskEvent::kNoMachine) {
    events_.push_back({time_s, kind, app, machine});
  }

  /// Appends a whole merged stream at once, moving the events in.
  void append(std::vector<TaskEvent> events);

  const std::vector<TaskEvent>& events() const { return events_; }
  /// Moves every recorded event out, leaving the recorder empty.
  std::vector<TaskEvent> take_events() { return std::exchange(events_, {}); }
  std::size_t count(TaskEventKind kind) const;
  void clear() { events_.clear(); }

  /// CSV with header: time_s,event,app,machine (machine empty if none).
  /// time_s uses the JSONL export's shortest round-trip formatter, so
  /// both exports carry the same event times.
  void write_csv(std::ostream& os) const;

  /// JSONL: a schema-version header line ({"schema":
  /// "tracon.task_events", "version": N} — the same header shape as the
  /// replay arrival-trace format) followed by one event object per line
  /// ("machine" omitted when the event has none).
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<TaskEvent> events_;
};

}  // namespace tracon::sim
