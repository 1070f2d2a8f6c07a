// Pinned writer bytes: every record-store exporter (decision log, span
// log, Chrome trace, tracer JSONL, task-event JSONL) reproduces a
// committed golden file byte for byte from fixed in-memory events, and
// the %.10g number formatter agrees with printf on every double class.
// The goldens under tests/data/ come from an independent earlier
// implementation of these writers (one ostream insertion per field),
// so any drift in escaping, number formatting, field order or chunk
// boundaries fails here first.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "obs/decision_log.hpp"
#include "obs/event_tracer.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/span_log.hpp"
#include "sim/trace.hpp"

namespace tracon {
namespace {

using obs::DecisionCandidate;
using obs::DecisionEvent;
using obs::SpanEvent;
using obs::TraceEvent;
using obs::TraceEventKind;

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(TRACON_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Awkward doubles every fixture cycles through: shortest round-trip
// and %.10g disagree on most of them.
constexpr double kAwkward[] = {0.1,     1.0 / 3.0, 2.5e-7,  123456789.125,
                               1e21,    -0.0,      5e-324,  3597.4512345,
                               -42.75,  1e-300,    6.02e23, 0.0};

obs::DecisionLog golden_decision_log() {
  obs::DecisionLog log;
  log.set_enabled(true);
  log.set_fingerprint("seed", "42");
  log.set_fingerprint("scheduler", "MIBS_8");
  log.set_fingerprint("quoted \"key\"", "tab\there\\slash");

  DecisionEvent d;
  d.task = 7;
  d.time_s = 384.25;
  d.app = 3;
  d.scheduler = "MIBS_8";
  d.objective = "runtime";
  d.families = {"wmm", "lm", "nl\"m"};
  d.weights = {0.2, kAwkward[1], 0.4666666666666667};
  DecisionCandidate empty_slot;
  empty_slot.score = 812.5;
  empty_slot.by_family = {800.0, kAwkward[0], 1e21};
  DecisionCandidate busy;
  busy.neighbour = 0;
  busy.score = 1015.625;
  busy.by_family = {kAwkward[2], -0.0, 5e-324};
  DecisionCandidate busy2;
  busy2.neighbour = 6;
  busy2.score = 999.0;
  d.candidates = {empty_slot, busy, busy2};
  d.chosen = 0;
  d.margin = 186.5;
  d.predicted_runtime_s = 812.5;
  d.predicted_iops = kAwkward[3];
  log.record_decision(d);
  log.bind_machine(7, 9123);

  // A second decision whose machine is never bound.
  DecisionEvent unbound = d;
  unbound.task = 8;
  unbound.time_s = 384.25;
  unbound.objective = "iops";
  unbound.families = {"nlm"};
  unbound.weights = {1.0};
  DecisionCandidate only;
  only.score = kAwkward[7];
  only.by_family = {kAwkward[7]};
  unbound.candidates = {only};
  unbound.margin = 0.0;
  log.record_decision(unbound);

  DecisionEvent m;
  m.task = 7;
  m.time_s = 600.125;
  m.app = 3;
  m.from_machine = 9123;
  m.from_neighbour = std::nullopt;
  m.machine = 14;
  m.neighbour = 5;
  m.predicted_stay_s = 500.0;
  m.predicted_move_s = kAwkward[1] * 1000.0;
  m.downtime_s = 0.5;
  m.copy_s = 12.75;
  m.cost_s = kAwkward[8];
  m.margin = 166.6666666666667;
  log.record_migration(m);

  DecisionEvent m2 = m;
  m2.task = 11;
  m2.from_neighbour = 2;
  m2.machine = 15;
  m2.neighbour = std::nullopt;
  log.record_migration(m2);

  DecisionEvent o;
  o.task = 7;
  o.time_s = 1200.5;
  o.app = 3;
  o.neighbour = std::nullopt;
  o.runtime_s = 820.0;
  o.iops = kAwkward[6];
  o.solo_runtime_s = 800.0;
  o.machine = 14;
  log.record_outcome(o);

  DecisionEvent o2 = o;
  o2.task = 12;
  o2.neighbour = 4;
  o2.runtime_s = kAwkward[9];
  o2.machine = DecisionEvent::kNoMachine;
  log.record_outcome(o2);
  return log;
}

obs::SpanLog golden_span_log() {
  obs::SpanLog log;
  log.set_enabled(true);
  log.set_fingerprint("seed", "42");
  log.set_fingerprint("model", "nlm");
  auto span = [](SpanEvent::Kind kind, std::uint64_t task, double t0,
                 double t1, std::size_t machine) {
    SpanEvent e;
    e.kind = kind;
    e.task = task;
    e.t0_s = t0;
    e.t1_s = t1;
    e.app = 4;
    e.machine = machine;
    return e;
  };
  log.record(span(SpanEvent::Kind::kQueued, 21, 0.1, 12.5,
                  SpanEvent::kNoMachine));
  SpanEvent run = span(SpanEvent::Kind::kRunning, 21, 12.5, 400.0, 9999);
  run.neighbour = 2;
  run.factor = kAwkward[1];
  log.record(run);
  SpanEvent solo = span(SpanEvent::Kind::kRunning, 21, 400.0, 401.0, 9999);
  solo.factor = 1.0;
  log.record(solo);
  log.record(span(SpanEvent::Kind::kMigrationFreeze, 21, 401.0,
                  401.0 + kAwkward[2], 9999));
  SpanEvent copy = span(SpanEvent::Kind::kMigrationCopy, 21,
                        401.0 + kAwkward[2], 410.5, 3);
  copy.neighbour = 0;
  copy.factor = 0.95;
  copy.copy_factor = 0.7;
  log.record(copy);
  SpanEvent copy_alone =
      span(SpanEvent::Kind::kMigrationCopy, 21, 410.5, 3597.4512345, 3);
  copy_alone.factor = 1.0000000000000002;
  copy_alone.copy_factor = 0.75;
  log.record(copy_alone);
  SpanEvent done = span(SpanEvent::Kind::kCompleted, 21, 3597.4512345,
                        3597.4512345, 3);
  done.solo_runtime_s = kAwkward[3];
  log.record(done);
  return log;
}

obs::EventTracer golden_tracer() {
  obs::EventTracer t;
  t.set_enabled(true);
  const TraceEventKind kinds[] = {
      TraceEventKind::kTaskArrival,   TraceEventKind::kTaskDropped,
      TraceEventKind::kTaskPlaced,    TraceEventKind::kTaskCompleted,
      TraceEventKind::kVmStart,       TraceEventKind::kVmStop,
      TraceEventKind::kSchedDecision, TraceEventKind::kModelRetrain,
      TraceEventKind::kModelDrift,
  };
  std::size_t n = 0;
  for (TraceEventKind kind : kinds) {
    // Each kind once machine-scoped and once not, with and without an
    // app, so both Chrome phases and every optional field appear.
    for (int variant = 0; variant < 2; ++variant, ++n) {
      TraceEvent ev;
      ev.time_s = 0.5 * static_cast<double>(n) + kAwkward[n % 12] * 1e-3;
      ev.kind = kind;
      ev.app = variant == 0 ? n % 8 : TraceEvent::kNone;
      ev.machine = variant == 0 ? 1000 + n : TraceEvent::kNone;
      ev.count = n * 3;
      ev.value = kAwkward[(n + 3) % 12];
      ev.value2 = kAwkward[(n + 7) % 12];
      t.record(ev);
    }
  }
  TraceEvent long_slice;
  long_slice.time_s = 3600.0;
  long_slice.kind = TraceEventKind::kTaskCompleted;
  long_slice.app = 7;
  long_slice.machine = 18446744073709551614ULL;
  long_slice.count = 1;
  long_slice.value = 3597.4512345;
  long_slice.value2 = 250.0;
  t.record(long_slice);
  return t;
}

sim::TraceRecorder golden_task_events() {
  sim::TraceRecorder r;
  const sim::TaskEventKind kinds[] = {
      sim::TaskEventKind::kArrived, sim::TaskEventKind::kDropped,
      sim::TaskEventKind::kPlaced, sim::TaskEventKind::kCompleted};
  for (std::size_t i = 0; i < 12; ++i) {
    const sim::TaskEventKind kind = kinds[i % 4];
    const bool bound = kind == sim::TaskEventKind::kPlaced ||
                       kind == sim::TaskEventKind::kCompleted;
    r.record(100.0 * static_cast<double>(i) + kAwkward[i], kind, i % 8,
             bound ? 5000 + i : sim::TaskEvent::kNoMachine);
  }
  return r;
}

TEST(WriterGolden, DecisionLog) {
  const obs::DecisionLog log = golden_decision_log();
  std::ostringstream os;
  log.write(os);
  EXPECT_EQ(os.str(), read_golden("golden_decisions.jsonl"));
  EXPECT_EQ(log.str(), os.str());
  obs::DecisionDoc doc;
  doc.version = obs::kJsonlSchemaVersion;
  doc.fingerprint = log.fingerprint();
  doc.events = log.events();
  EXPECT_EQ(obs::decision_log_str(doc), os.str());
}

TEST(WriterGolden, SpanLog) {
  const obs::SpanLog log = golden_span_log();
  std::ostringstream os;
  log.write(os);
  EXPECT_EQ(os.str(), read_golden("golden_spans.jsonl"));
  EXPECT_EQ(log.str(), os.str());
  obs::SpanDoc doc;
  doc.version = obs::kJsonlSchemaVersion;
  doc.fingerprint = log.fingerprint();
  doc.events = log.events();
  EXPECT_EQ(obs::span_log_str(doc), os.str());
}

TEST(WriterGolden, ChromeTrace) {
  std::ostringstream os;
  golden_tracer().write_chrome_json(os);
  EXPECT_EQ(os.str(), read_golden("golden_trace.json"));
}

TEST(WriterGolden, TracerJsonl) {
  std::ostringstream os;
  golden_tracer().write_jsonl(os);
  EXPECT_EQ(os.str(), read_golden("golden_trace.jsonl"));
}

TEST(WriterGolden, TaskEventJsonl) {
  std::ostringstream os;
  golden_task_events().write_jsonl(os);
  EXPECT_EQ(os.str(), read_golden("golden_task_events.jsonl"));
}

// %.10g through std::to_chars must match printf on every class of
// double: random bit patterns (normals, denormals, NaN payloads of both
// signs) plus the special values named explicitly.
TEST(FormatDouble, MatchesPrintfG10) {
  auto printf_g10 = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return std::string(buf);
  };
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      1e-5,
      1e-4,
      9999999999.5,
      99999.999995,
      0.5,
  };
  for (double v : specials) EXPECT_EQ(obs::format_double(v), printf_g10(v));

  std::mt19937_64 rng(20111112);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (obs::format_double(v) != printf_g10(v)) {
      if (++mismatches <= 5) ADD_FAILURE() << "bits " << bits;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// Output larger than the writers' flush chunk: a log of N identical
// records must be the header followed by N copies of the one-record
// line, with nothing lost or doubled at a chunk boundary.
TEST(WriterChunks, LargeLogsSplitAcrossChunksLoseNothing) {
  obs::DecisionLog one = golden_decision_log();
  const DecisionEvent record = one.events().front();
  obs::DecisionLog single;
  single.append(record);
  const std::string single_text = single.str();
  const std::size_t header_end = single_text.find('\n') + 1;
  const std::string header = single_text.substr(0, header_end);
  const std::string line = single_text.substr(header_end);

  constexpr std::size_t kRecords = 12'000;  // several MiB
  obs::DecisionLog many;
  for (std::size_t i = 0; i < kRecords; ++i) many.append(record);
  std::ostringstream os;
  many.write(os);
  const std::string text = os.str();
  ASSERT_EQ(text.size(), header.size() + kRecords * line.size());
  EXPECT_EQ(text.compare(0, header.size(), header), 0);
  for (std::size_t i = 0; i < kRecords; ++i) {
    ASSERT_EQ(text.compare(header.size() + i * line.size(), line.size(), line),
              0)
        << "record " << i;
  }
}

}  // namespace
}  // namespace tracon
