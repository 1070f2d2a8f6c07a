#include "obs/span_log.hpp"

#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "util/error.hpp"

namespace tracon::obs {

namespace {

// An empty machine is spelled as the string "empty" so a span's
// co-runner column is never confused with app class 0 (mirrors the
// decision log's convention).
void append_neighbour(std::string& out,
                      const std::optional<std::size_t>& neighbour) {
  if (neighbour.has_value()) {
    append_uint(out, *neighbour);
  } else {
    out += "\"empty\"";
  }
}

const char* kind_name(SpanEvent::Kind kind) {
  switch (kind) {
    case SpanEvent::Kind::kQueued:
      return "queued";
    case SpanEvent::Kind::kRunning:
      return "running";
    case SpanEvent::Kind::kMigrationFreeze:
      return "migration_freeze";
    case SpanEvent::Kind::kMigrationCopy:
      return "migration_copy";
    case SpanEvent::Kind::kCompleted:
      return "completed";
  }
  return "unknown";
}

// Shared by SpanLog::write and write_span_log so the recorded stream
// and a re-emitted merged stream are byte-compatible.
void append_event(std::string& out, const SpanEvent& e) {
  JsonLineWriter w(out);
  w.field("kind", kind_name(e.kind));
  w.field("task", e.task);
  if (e.kind == SpanEvent::Kind::kCompleted) {
    w.field("t", e.t0_s);
  } else {
    w.field("t0", e.t0_s);
    w.field("t1", e.t1_s);
  }
  w.field("app", static_cast<std::uint64_t>(e.app));
  if (e.kind != SpanEvent::Kind::kQueued) {
    w.field("machine", static_cast<std::uint64_t>(e.machine));
  }
  if (e.kind == SpanEvent::Kind::kRunning ||
      e.kind == SpanEvent::Kind::kMigrationCopy) {
    w.key("neighbour");
    append_neighbour(out, e.neighbour);
    w.field("factor", e.factor);
  }
  if (e.kind == SpanEvent::Kind::kMigrationCopy) {
    w.field("copy_factor", e.copy_factor);
  }
  if (e.kind == SpanEvent::Kind::kCompleted) {
    w.field("solo_runtime_s", e.solo_runtime_s);
  }
  w.close();
  out += '\n';
}

double number_field(const JsonValue& obj, const std::string& key,
                    const char* what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    throw std::invalid_argument(std::string("span log ") + what +
                                " lacks numeric \"" + key + "\"");
  }
  return v->as_number();
}

std::string string_field(const JsonValue& obj, const std::string& key,
                         const char* what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    throw std::invalid_argument(std::string("span log ") + what +
                                " lacks string \"" + key + "\"");
  }
  return v->as_string();
}

std::optional<std::size_t> neighbour_field(const JsonValue& obj,
                                           const char* what) {
  const JsonValue* v = obj.find("neighbour");
  if (v != nullptr && v->is_string() && v->as_string() == "empty") {
    return std::nullopt;
  }
  if (v != nullptr && v->is_number()) {
    return static_cast<std::size_t>(v->as_number());
  }
  throw std::invalid_argument(std::string("span log ") + what +
                              " \"neighbour\" must be \"empty\" or a number");
}

SpanEvent parse_event(const JsonValue& obj) {
  SpanEvent e;
  const std::string kind = string_field(obj, "kind", "record");
  e.task = static_cast<std::uint64_t>(number_field(obj, "task", "record"));
  e.app = static_cast<std::size_t>(number_field(obj, "app", "record"));
  if (kind == "completed") {
    e.kind = SpanEvent::Kind::kCompleted;
    e.t0_s = number_field(obj, "t", "completed");
    e.t1_s = e.t0_s;
  } else {
    e.t0_s = number_field(obj, "t0", "record");
    e.t1_s = number_field(obj, "t1", "record");
    if (e.t1_s < e.t0_s) {
      throw std::invalid_argument("span log record runs backwards (t1 < t0)");
    }
  }
  if (kind == "queued") {
    e.kind = SpanEvent::Kind::kQueued;
    return e;
  }
  e.machine = static_cast<std::size_t>(number_field(obj, "machine", kind.c_str()));
  if (kind == "running" || kind == "migration_copy") {
    e.kind = kind == "running" ? SpanEvent::Kind::kRunning
                               : SpanEvent::Kind::kMigrationCopy;
    e.neighbour = neighbour_field(obj, kind.c_str());
    e.factor = number_field(obj, "factor", kind.c_str());
    if (kind == "migration_copy") {
      e.copy_factor = number_field(obj, "copy_factor", "migration_copy");
    }
  } else if (kind == "migration_freeze") {
    e.kind = SpanEvent::Kind::kMigrationFreeze;
  } else if (kind == "completed") {
    e.solo_runtime_s = number_field(obj, "solo_runtime_s", "completed");
  } else {
    throw std::invalid_argument("span log record has unknown kind \"" + kind +
                                "\"");
  }
  return e;
}

}  // namespace

void SpanLog::record(SpanEvent event) {
  if (!enabled_) return;
  TRACON_REQUIRE(event.t1_s >= event.t0_s, "span must not run backwards");
  if (event.kind != SpanEvent::Kind::kCompleted && event.t1_s <= event.t0_s) {
    return;  // zero-length segment carries no time
  }
  events_.push_back(std::move(event));
}

void SpanLog::append(SpanEvent event) { events_.push_back(std::move(event)); }

void SpanLog::append(std::vector<SpanEvent> events) {
  if (events_.empty()) {
    events_ = std::move(events);
    return;
  }
  events_.insert(events_.end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
}

void SpanLog::set_fingerprint(const std::string& key,
                              const std::string& value) {
  fingerprint_[key] = value;
}

void SpanLog::write(std::ostream& os) const {
  write_fingerprinted(os, kSpanLogSchema, kJsonlSchemaVersion,
                      fingerprint_, events_, append_event);
}

std::string SpanLog::str() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

SpanDoc parse_span_log(std::istream& in) {
  SpanDoc doc;
  std::string line;
  bool have_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue obj = parse_json(line);
    if (!have_header) {
      doc.version = require_schema(obj, kSpanLogSchema);
      const JsonValue* fingerprint = obj.find("fingerprint");
      if (fingerprint == nullptr || !fingerprint->is_object()) {
        throw std::invalid_argument(
            "span log header lacks \"fingerprint\" object");
      }
      for (const auto& [key, value] : fingerprint->as_object()) {
        if (!value->is_string()) {
          throw std::invalid_argument("span log fingerprint entry \"" + key +
                                      "\" is not a string");
        }
        doc.fingerprint[key] = value->as_string();
      }
      have_header = true;
      continue;
    }
    doc.events.push_back(parse_event(obj));
  }
  if (!have_header) {
    throw std::invalid_argument("span log document has no header line");
  }
  return doc;
}

SpanDoc parse_span_log(const std::string& text) {
  std::istringstream in(text);
  return parse_span_log(in);
}

void write_span_log(std::ostream& os, const SpanDoc& doc) {
  write_fingerprinted(os, kSpanLogSchema, doc.version, doc.fingerprint,
                      doc.events, append_event);
}

std::string span_log_str(const SpanDoc& doc) {
  std::ostringstream os;
  write_span_log(os, doc);
  return os.str();
}

}  // namespace tracon::obs
