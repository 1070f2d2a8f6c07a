#include "sim/trace.hpp"

#include <cstdint>
#include <string>
#include <utility>

#include "obs/jsonl.hpp"

namespace tracon::sim {

std::string_view task_event_kind_name(TaskEventKind kind) {
  switch (kind) {
    case TaskEventKind::kArrived: return "arrived";
    case TaskEventKind::kDropped: return "dropped";
    case TaskEventKind::kPlaced: return "placed";
    case TaskEventKind::kCompleted: return "completed";
  }
  return "unknown";
}

std::optional<TaskEventKind> parse_task_event_kind(std::string_view name) {
  if (name == "arrived") return TaskEventKind::kArrived;
  if (name == "dropped") return TaskEventKind::kDropped;
  if (name == "placed") return TaskEventKind::kPlaced;
  if (name == "completed") return TaskEventKind::kCompleted;
  return std::nullopt;
}

void TraceRecorder::append(std::vector<TaskEvent> events) {
  if (events_.empty()) {
    events_ = std::move(events);
    return;
  }
  events_.insert(events_.end(), events.begin(), events.end());
}

std::size_t TraceRecorder::count(TaskEventKind kind) const {
  std::size_t n = 0;
  for (const auto& e : events_)
    if (e.kind == kind) ++n;
  return n;
}

void TraceRecorder::write_csv(std::ostream& os) const {
  obs::ChunkedWriter sink(os);
  std::string& out = sink.buf();
  out += "time_s,event,app,machine\n";
  for (const auto& e : events_) {
    obs::append_json_number(out, e.time_s);
    out += ',';
    out += task_event_kind_name(e.kind);
    out += ',';
    obs::append_uint(out, e.app);
    out += ',';
    if (e.machine != TaskEvent::kNoMachine) obs::append_uint(out, e.machine);
    out += '\n';
    sink.end_record();
  }
}

void TraceRecorder::write_jsonl(std::ostream& os) const {
  obs::ChunkedWriter sink(os);
  std::string& out = sink.buf();
  obs::JsonLineWriter(out)
      .field("schema", "tracon.task_events")
      .field("version", obs::kJsonlSchemaVersion)
      .field("events", static_cast<std::uint64_t>(events_.size()))
      .close();
  out += '\n';
  for (const auto& e : events_) {
    obs::JsonLineWriter line(out);
    line.field("time_s", e.time_s)
        .field("event", task_event_kind_name(e.kind))
        .field("app", static_cast<std::uint64_t>(e.app));
    if (e.machine != TaskEvent::kNoMachine) {
      line.field("machine", static_cast<std::uint64_t>(e.machine));
    }
    line.close();
    out += '\n';
    sink.end_record();
  }
}

}  // namespace tracon::sim
