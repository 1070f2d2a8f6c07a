#include "obs/decision_log.hpp"

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

// An empty machine is spelled as the string "empty" so a candidate's
// co-runner column is never confused with app class 0.
void append_neighbour(std::string& out,
                      const std::optional<std::size_t>& neighbour) {
  if (neighbour.has_value()) {
    append_uint(out, *neighbour);
  } else {
    out += "\"empty\"";
  }
}

void append_number_array(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    append_json_number(out, values[i]);
  }
  out += ']';
}

void append_string_array(std::string& out,
                         const std::vector<std::string>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    append_escaped(out, values[i]);
    out += '"';
  }
  out += ']';
}

// Shared by DecisionLog::write and write_decision_log so the recorded
// stream and a re-emitted merged stream are byte-compatible.
void append_event(std::string& out, const DecisionEvent& e) {
  JsonLineWriter w(out);
  if (e.kind == DecisionEvent::Kind::kDecision) {
    w.field("kind", "decision");
    w.field("task", e.task);
    w.field("t", e.time_s);
    w.field("app", static_cast<std::uint64_t>(e.app));
    w.field("scheduler", e.scheduler);
    w.field("objective", e.objective);
    w.key("families");
    append_string_array(out, e.families);
    w.key("weights");
    append_number_array(out, e.weights);
    w.key("candidates");
    out += '[';
    for (std::size_t i = 0; i < e.candidates.size(); ++i) {
      const DecisionCandidate& c = e.candidates[i];
      if (i != 0) out += ", ";
      JsonLineWriter candidate(out);
      candidate.key("neighbour");
      append_neighbour(out, c.neighbour);
      candidate.field("score", c.score);
      candidate.key("by_family");
      append_number_array(out, c.by_family);
      candidate.close();
    }
    out += ']';
    w.field("chosen", static_cast<std::uint64_t>(e.chosen));
    w.field("margin", e.margin);
    w.field("predicted_runtime_s", e.predicted_runtime_s);
    w.field("predicted_iops", e.predicted_iops);
    if (e.machine != DecisionEvent::kNoMachine) {
      w.field("machine", static_cast<std::uint64_t>(e.machine));
    }
  } else if (e.kind == DecisionEvent::Kind::kMigration) {
    w.field("kind", "migration");
    w.field("task", e.task);
    w.field("t", e.time_s);
    w.field("app", static_cast<std::uint64_t>(e.app));
    w.field("from_machine", static_cast<std::uint64_t>(e.from_machine));
    w.key("from_neighbour");
    append_neighbour(out, e.from_neighbour);
    w.field("machine", static_cast<std::uint64_t>(e.machine));
    w.key("neighbour");
    append_neighbour(out, e.neighbour);
    w.field("predicted_stay_s", e.predicted_stay_s);
    w.field("predicted_move_s", e.predicted_move_s);
    w.field("downtime_s", e.downtime_s);
    w.field("copy_s", e.copy_s);
    w.field("cost_s", e.cost_s);
    w.field("margin", e.margin);
  } else {
    w.field("kind", "outcome");
    w.field("task", e.task);
    w.field("t", e.time_s);
    w.field("app", static_cast<std::uint64_t>(e.app));
    w.key("neighbour");
    append_neighbour(out, e.neighbour);
    w.field("runtime_s", e.runtime_s);
    w.field("iops", e.iops);
    w.field("solo_runtime_s", e.solo_runtime_s);
    if (e.machine != DecisionEvent::kNoMachine) {
      w.field("machine", static_cast<std::uint64_t>(e.machine));
    }
  }
  w.close();
  out += '\n';
}

double number_field(const JsonValue& obj, const std::string& key,
                    const char* what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    throw std::invalid_argument(std::string("decision log ") + what +
                                " lacks numeric \"" + key + "\"");
  }
  return v->as_number();
}

std::string string_field(const JsonValue& obj, const std::string& key,
                         const char* what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    throw std::invalid_argument(std::string("decision log ") + what +
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
  throw std::invalid_argument(std::string("decision log ") + what +
                              " \"neighbour\" must be \"empty\" or a number");
}

std::vector<double> number_array_field(const JsonValue& obj,
                                       const std::string& key,
                                       const char* what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_array()) {
    throw std::invalid_argument(std::string("decision log ") + what +
                                " lacks array \"" + key + "\"");
  }
  std::vector<double> out;
  out.reserve(v->as_array().size());
  for (const auto& entry : v->as_array()) {
    if (!entry->is_number()) {
      throw std::invalid_argument("decision log " + key +
                                  " entry is not a number");
    }
    out.push_back(entry->as_number());
  }
  return out;
}

DecisionEvent parse_event(const JsonValue& obj) {
  DecisionEvent e;
  const std::string kind = string_field(obj, "kind", "record");
  e.task = static_cast<std::uint64_t>(number_field(obj, "task", "record"));
  e.time_s = number_field(obj, "t", "record");
  e.app = static_cast<std::size_t>(number_field(obj, "app", "record"));
  if (const JsonValue* m = obj.find("machine"); m != nullptr) {
    if (!m->is_number()) {
      throw std::invalid_argument("decision log \"machine\" is not a number");
    }
    e.machine = static_cast<std::size_t>(m->as_number());
  }
  if (kind == "decision") {
    e.kind = DecisionEvent::Kind::kDecision;
    e.scheduler = string_field(obj, "scheduler", "decision");
    e.objective = string_field(obj, "objective", "decision");
    const JsonValue* families = obj.find("families");
    if (families == nullptr || !families->is_array()) {
      throw std::invalid_argument("decision record lacks \"families\" array");
    }
    for (const auto& name : families->as_array()) {
      if (!name->is_string()) {
        throw std::invalid_argument("decision family name is not a string");
      }
      e.families.push_back(name->as_string());
    }
    e.weights = number_array_field(obj, "weights", "decision");
    const JsonValue* candidates = obj.find("candidates");
    if (candidates == nullptr || !candidates->is_array()) {
      throw std::invalid_argument(
          "decision record lacks \"candidates\" array");
    }
    for (const auto& entry : candidates->as_array()) {
      DecisionCandidate c;
      c.neighbour = neighbour_field(*entry, "candidate");
      c.score = number_field(*entry, "score", "candidate");
      c.by_family = number_array_field(*entry, "by_family", "candidate");
      e.candidates.push_back(std::move(c));
    }
    e.chosen =
        static_cast<std::size_t>(number_field(obj, "chosen", "decision"));
    if (e.chosen >= e.candidates.size()) {
      throw std::invalid_argument(
          "decision record \"chosen\" is out of candidate range");
    }
    e.margin = number_field(obj, "margin", "decision");
    e.predicted_runtime_s =
        number_field(obj, "predicted_runtime_s", "decision");
    e.predicted_iops = number_field(obj, "predicted_iops", "decision");
  } else if (kind == "migration") {
    e.kind = DecisionEvent::Kind::kMigration;
    e.from_machine =
        static_cast<std::size_t>(number_field(obj, "from_machine", "migration"));
    const JsonValue* from_nb = obj.find("from_neighbour");
    if (from_nb != nullptr && from_nb->is_string() &&
        from_nb->as_string() == "empty") {
      e.from_neighbour = std::nullopt;
    } else if (from_nb != nullptr && from_nb->is_number()) {
      e.from_neighbour = static_cast<std::size_t>(from_nb->as_number());
    } else {
      throw std::invalid_argument(
          "decision log migration \"from_neighbour\" must be \"empty\" or a "
          "number");
    }
    e.neighbour = neighbour_field(obj, "migration");
    e.predicted_stay_s = number_field(obj, "predicted_stay_s", "migration");
    e.predicted_move_s = number_field(obj, "predicted_move_s", "migration");
    e.downtime_s = number_field(obj, "downtime_s", "migration");
    e.copy_s = number_field(obj, "copy_s", "migration");
    e.cost_s = number_field(obj, "cost_s", "migration");
    e.margin = number_field(obj, "margin", "migration");
  } else if (kind == "outcome") {
    e.kind = DecisionEvent::Kind::kOutcome;
    e.neighbour = neighbour_field(obj, "outcome");
    e.runtime_s = number_field(obj, "runtime_s", "outcome");
    e.iops = number_field(obj, "iops", "outcome");
    e.solo_runtime_s = number_field(obj, "solo_runtime_s", "outcome");
  } else {
    throw std::invalid_argument("decision log record has unknown kind \"" +
                                kind + "\"");
  }
  return e;
}

}  // namespace

void DecisionLog::record_decision(DecisionEvent event) {
  if (!enabled_) return;
  TRACON_REQUIRE(event.chosen < event.candidates.size(),
                 "decision's chosen index must address a scanned candidate");
  event.kind = DecisionEvent::Kind::kDecision;
  decision_index_[event.task] = events_.size();
  events_.push_back(std::move(event));
}

void DecisionLog::bind_machine(std::uint64_t task, std::size_t machine) {
  if (!enabled_) return;
  auto it = decision_index_.find(task);
  if (it == decision_index_.end()) return;
  events_[it->second].machine = machine;
}

void DecisionLog::record_migration(DecisionEvent event) {
  if (!enabled_) return;
  TRACON_REQUIRE(event.machine != DecisionEvent::kNoMachine &&
                     event.from_machine != DecisionEvent::kNoMachine,
                 "migration record must carry both host ids");
  TRACON_REQUIRE(event.machine != event.from_machine,
                 "migration source and destination must differ");
  event.kind = DecisionEvent::Kind::kMigration;
  events_.push_back(std::move(event));
}

void DecisionLog::record_outcome(DecisionEvent event) {
  if (!enabled_) return;
  event.kind = DecisionEvent::Kind::kOutcome;
  events_.push_back(std::move(event));
}

void DecisionLog::append(DecisionEvent event) {
  events_.push_back(std::move(event));
}

void DecisionLog::append(std::vector<DecisionEvent> events) {
  if (events_.empty()) {
    events_ = std::move(events);
    return;
  }
  events_.insert(events_.end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
}

std::vector<DecisionEvent> DecisionLog::take_events() {
  decision_index_.clear();
  return std::exchange(events_, {});
}

void DecisionLog::set_fingerprint(const std::string& key,
                                  const std::string& value) {
  fingerprint_[key] = value;
}

void DecisionLog::write(std::ostream& os) const {
  write_fingerprinted(os, kDecisionLogSchema, kJsonlSchemaVersion,
                      fingerprint_, events_, append_event);
}

std::string DecisionLog::str() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

DecisionDoc parse_decision_log(std::istream& in) {
  DecisionDoc doc;
  std::string line;
  bool have_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue obj = parse_json(line);
    if (!have_header) {
      doc.version = require_schema(obj, kDecisionLogSchema);
      const JsonValue* fingerprint = obj.find("fingerprint");
      if (fingerprint == nullptr || !fingerprint->is_object()) {
        throw std::invalid_argument(
            "decision log header lacks \"fingerprint\" object");
      }
      for (const auto& [key, value] : fingerprint->as_object()) {
        if (!value->is_string()) {
          throw std::invalid_argument("decision log fingerprint entry \"" +
                                      key + "\" is not a string");
        }
        doc.fingerprint[key] = value->as_string();
      }
      have_header = true;
      continue;
    }
    doc.events.push_back(parse_event(obj));
  }
  if (!have_header) {
    throw std::invalid_argument("decision log document has no header line");
  }
  return doc;
}

DecisionDoc parse_decision_log(const std::string& text) {
  std::istringstream in(text);
  return parse_decision_log(in);
}

void write_decision_log(std::ostream& os, const DecisionDoc& doc) {
  write_fingerprinted(os, kDecisionLogSchema, doc.version, doc.fingerprint,
                      doc.events, append_event);
}

std::string decision_log_str(const DecisionDoc& doc) {
  std::ostringstream os;
  write_decision_log(os, doc);
  return os.str();
}

}  // namespace tracon::obs
