#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sched/fifo.hpp"
#include "sim/dynamic_scenario.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::sim {
namespace {

TEST(TraceRecorder, RecordsAndCounts) {
  TraceRecorder t;
  t.record(1.0, TaskEventKind::kArrived, 3);
  t.record(1.5, TaskEventKind::kPlaced, 3, 7);
  t.record(9.0, TaskEventKind::kCompleted, 3, 7);
  t.record(2.0, TaskEventKind::kDropped, 5);
  EXPECT_EQ(t.events().size(), 4u);
  EXPECT_EQ(t.count(TaskEventKind::kArrived), 1u);
  EXPECT_EQ(t.count(TaskEventKind::kPlaced), 1u);
  EXPECT_EQ(t.count(TaskEventKind::kDropped), 1u);
  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(TraceRecorder, CsvFormat) {
  TraceRecorder t;
  t.record(1.5, TaskEventKind::kPlaced, 3, 7);
  t.record(2.0, TaskEventKind::kDropped, 5);
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(),
            "time_s,event,app,machine\n"
            "1.5,placed,3,7\n"
            "2,dropped,5,\n");
}

// Event times keep every digit the simulator produced: the CSV uses
// the same shortest round-trip formatter as the JSONL export, so a
// 1 h run's distinct times stay distinct.
TEST(TraceRecorder, CsvTimesRoundTrip) {
  TraceRecorder t;
  t.record(3597.4512345, TaskEventKind::kCompleted, 2, 11);
  t.record(0.1 + 0.2, TaskEventKind::kArrived, 4);
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(),
            "time_s,event,app,machine\n"
            "3597.4512345,completed,2,11\n"
            "0.30000000000000004,arrived,4,\n");
  std::istringstream in(os.str());
  std::string line;
  std::getline(in, line);  // header
  for (const TaskEvent& e : t.events()) {
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(std::stod(line.substr(0, line.find(','))), e.time_s);
  }
}

TEST(TraceRecorder, KindNames) {
  EXPECT_EQ(task_event_kind_name(TaskEventKind::kArrived), "arrived");
  EXPECT_EQ(task_event_kind_name(TaskEventKind::kCompleted), "completed");
}

TEST(TraceRecorder, KindNamesRoundTripThroughParse) {
  for (auto kind : {TaskEventKind::kArrived, TaskEventKind::kDropped,
                    TaskEventKind::kPlaced, TaskEventKind::kCompleted}) {
    auto parsed = parse_task_event_kind(task_event_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_task_event_kind("exploded").has_value());
  EXPECT_FALSE(parse_task_event_kind("").has_value());
}

TEST(TraceRecorder, JsonlFormat) {
  TraceRecorder t;
  t.record(1.5, TaskEventKind::kPlaced, 3, 7);
  t.record(2.0, TaskEventKind::kDropped, 5);
  std::ostringstream os;
  t.write_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"schema\": \"tracon.task_events\", \"version\": 2, "
            "\"events\": 2}\n"
            "{\"time_s\": 1.5, \"event\": \"placed\", \"app\": 3, "
            "\"machine\": 7}\n"
            "{\"time_s\": 2, \"event\": \"dropped\", \"app\": 5}\n");
}

class TracedDynamic : public ::testing::Test {
 protected:
  static const PerfTable& table() {
    static PerfTable t = [] {
      model::Profiler prof(
          virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
      // The mix sampler draws over the full 8-benchmark rank scale, so
      // the table must cover all of them.
      return PerfTable::build(prof, workload::paper_benchmarks());
    }();
    return t;
  }
};

TEST_F(TracedDynamic, TraceMatchesOutcomeCounts) {
  TraceRecorder trace;
  DynamicConfig cfg;
  cfg.machines = 4;
  cfg.lambda_per_min = 30.0;
  cfg.duration_s = 1800.0;
  cfg.trace = &trace;
  sched::FifoScheduler fifo(9);
  DynamicOutcome o = run_dynamic(table(), fifo, cfg);

  EXPECT_EQ(trace.count(TaskEventKind::kArrived), o.arrived);
  EXPECT_EQ(trace.count(TaskEventKind::kDropped), o.dropped);
  EXPECT_EQ(trace.count(TaskEventKind::kCompleted), o.completed);
  // Every completion was preceded by a placement.
  EXPECT_GE(trace.count(TaskEventKind::kPlaced),
            trace.count(TaskEventKind::kCompleted));
  // Events are time-ordered (the simulator emits them in event order).
  for (std::size_t i = 1; i < trace.events().size(); ++i)
    EXPECT_LE(trace.events()[i - 1].time_s, trace.events()[i].time_s);
  // Placements and completions carry machine ids within range.
  for (const auto& e : trace.events()) {
    if (e.kind == TaskEventKind::kPlaced ||
        e.kind == TaskEventKind::kCompleted) {
      EXPECT_LT(e.machine, cfg.machines);
    }
  }
}

TEST_F(TracedDynamic, ExplicitArrivalListHonored) {
  std::vector<Arrival> arrivals = {{10.0, 0}, {20.0, 1}, {30.0, 0}};
  DynamicConfig cfg;
  cfg.machines = 4;
  cfg.duration_s = 600.0;
  sched::FifoScheduler fifo(9);
  DynamicOutcome o = run_dynamic(table(), fifo, cfg, arrivals);
  EXPECT_EQ(o.arrived, 3u);
  EXPECT_EQ(o.completed, 3u);
  EXPECT_EQ(o.dropped, 0u);
}

TEST_F(TracedDynamic, UnsortedArrivalsRejected) {
  std::vector<Arrival> arrivals = {{20.0, 0}, {10.0, 1}};
  DynamicConfig cfg;
  cfg.machines = 2;
  sched::FifoScheduler fifo(9);
  EXPECT_THROW(run_dynamic(table(), fifo, cfg, arrivals),
               std::invalid_argument);
}

TEST_F(TracedDynamic, GeneratedArrivalsSortedAndMixed) {
  DynamicConfig cfg;
  cfg.lambda_per_min = 120.0;
  cfg.duration_s = 3600.0;
  cfg.mix = workload::MixKind::kUniform;
  auto arrivals = generate_arrivals(cfg, 8);
  ASSERT_GT(arrivals.size(), 50u);
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    EXPECT_LE(arrivals[i - 1].time_s, arrivals[i].time_s);
  // Mean inter-arrival ~ 0.5 s at 120/min.
  double span = arrivals.back().time_s - arrivals.front().time_s;
  EXPECT_NEAR(span / static_cast<double>(arrivals.size() - 1), 0.5, 0.1);
}

}  // namespace
}  // namespace tracon::sim
