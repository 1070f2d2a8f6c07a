#include "obs/event_tracer.hpp"

#include <string>
#include <utility>

#include "obs/jsonl.hpp"

namespace tracon::obs {

std::string_view trace_event_kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kTaskArrival: return "sim.task.arrival";
    case TraceEventKind::kTaskDropped: return "sim.task.dropped";
    case TraceEventKind::kTaskPlaced: return "sim.task.placed";
    case TraceEventKind::kTaskCompleted: return "sim.task.completed";
    case TraceEventKind::kVmStart: return "sim.vm.start";
    case TraceEventKind::kVmStop: return "sim.vm.stop";
    case TraceEventKind::kSchedDecision: return "sched.decision";
    case TraceEventKind::kModelRetrain: return "model.retrain";
    case TraceEventKind::kModelDrift: return "model.drift";
  }
  return "unknown";
}

namespace {

/// pid 0 hosts the per-machine timelines; pid 1 the control plane
/// (queue, scheduler, model) so Perfetto groups them separately.
constexpr std::size_t kHostsPid = 0;
constexpr std::size_t kControlPid = 1;

bool machine_scoped(const TraceEvent& ev) {
  return ev.machine != TraceEvent::kNone;
}

// The fields both exports share, in order: [app] [machine] count value
// value2, each after ", " except the first, which follows `lead`. The
// writers append constant text directly rather than going through
// JsonLineWriter: every key is fixed, and the tracer export is the
// largest file a run writes.
void append_fields(std::string& out, const TraceEvent& ev,
                   std::string_view lead) {
  if (ev.app != TraceEvent::kNone) {
    out += lead;
    out += "\"app\": ";
    append_uint(out, ev.app);
    lead = ", ";
  }
  if (machine_scoped(ev)) {
    out += lead;
    out += "\"machine\": ";
    append_uint(out, ev.machine);
    lead = ", ";
  }
  out += lead;
  out += "\"count\": ";
  append_uint(out, ev.count);
  out += ", \"value\": ";
  append_g10(out, ev.value);
  out += ", \"value2\": ";
  append_g10(out, ev.value2);
}

}  // namespace

void EventTracer::append(std::vector<TraceEvent> events) {
  const std::size_t room =
      max_events_ > events_.size() ? max_events_ - events_.size() : 0;
  if (events.size() > room) {
    dropped_ += events.size() - room;
    events.resize(room);
  }
  if (events_.empty()) {
    events_ = std::move(events);
    return;
  }
  events_.insert(events_.end(), events.begin(), events.end());
}

void EventTracer::write_chrome_json(std::ostream& os) const {
  ChunkedWriter sink(os);
  std::string& out = sink.buf();
  out += "{\"traceEvents\": [\n"
         "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"hosts\"}},\n"
         "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"control\"}}";
  for (const TraceEvent& ev : events_) {
    if (ev.kind == TraceEventKind::kTaskCompleted && machine_scoped(ev)) {
      // The completed task becomes a duration slice covering its whole
      // residence on the machine (value = realized runtime in seconds).
      out += ",\n  {\"ph\": \"X\", \"name\": \"app_";
      append_uint(out, ev.app);
      out += "\", \"cat\": \"task\", \"ts\": ";
      append_g10(out, (ev.time_s - ev.value) * 1e6);
      out += ", \"dur\": ";
      append_g10(out, ev.value * 1e6);
      out += ", \"pid\": ";
      append_uint(out, kHostsPid);
      out += ", \"tid\": ";
      append_uint(out, ev.machine);
    } else {
      const bool scoped = machine_scoped(ev);
      out += ",\n  {\"ph\": \"i\", \"s\": \"t\", \"name\": \"";
      out += trace_event_kind_name(ev.kind);
      out += "\", \"cat\": \"sim\", \"ts\": ";
      append_g10(out, ev.time_s * 1e6);
      out += ", \"pid\": ";
      append_uint(out, scoped ? kHostsPid : kControlPid);
      out += ", \"tid\": ";
      append_uint(out, scoped ? ev.machine : 0);
    }
    out += ", \"args\": {";
    append_fields(out, ev, "");
    out += "}}";
    sink.end_record();
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void EventTracer::write_jsonl(std::ostream& os) const {
  ChunkedWriter sink(os);
  std::string& out = sink.buf();
  for (const TraceEvent& ev : events_) {
    out += "{\"time_s\": ";
    append_g10(out, ev.time_s);
    out += ", \"kind\": \"";
    out += trace_event_kind_name(ev.kind);
    out += '"';
    append_fields(out, ev, ", ");
    out += "}\n";
    sink.end_record();
  }
}

}  // namespace tracon::obs
