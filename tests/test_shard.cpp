// Tests the sharded dynamic scenario's headline guarantee: results are
// a function of (seed, machines, shards) only — the worker-pool size
// must never leak into outcomes, metrics bytes, trace bytes, or the
// merged snapshot series (DESIGN.md §7).
#include "sim/shard_scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <vector>

#include "migrate/rebalancer.hpp"
#include "obs/snapshot.hpp"
#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
#include "sched/mix.hpp"
#include "sim/shard_merge.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::sim {
namespace {

const PerfTable& table() {
  static PerfTable t = [] {
    model::Profiler prof(
        virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
    return PerfTable::build(prof, workload::paper_benchmarks());
  }();
  return t;
}

const sched::TablePredictor& oracle() {
  static sched::TablePredictor p = table().oracle_predictor();
  return p;
}

TEST(DeriveStreamSeed, DeterministicAndStreamSeparated) {
  EXPECT_EQ(derive_stream_seed(7, 0), derive_stream_seed(7, 0));
  // Distinct streams and distinct base seeds land on distinct values,
  // including the pathological all-zero input.
  EXPECT_NE(derive_stream_seed(7, 0), derive_stream_seed(7, 1));
  EXPECT_NE(derive_stream_seed(7, 0), derive_stream_seed(8, 0));
  EXPECT_NE(derive_stream_seed(0, 0), derive_stream_seed(0, 1));
  EXPECT_NE(derive_stream_seed(0, 0), 0u);
  // Stream ids must not collapse onto neighbouring seeds.
  EXPECT_NE(derive_stream_seed(7, 1), derive_stream_seed(8, 0));
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(97);
    for (auto& h : hits) h.store(0);
    parallel_for(threads, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, PropagatesFirstWorkerException) {
  EXPECT_THROW(parallel_for(4, 16,
                            [](std::size_t i) {
                              if (i % 2 == 1)
                                throw std::runtime_error("shard failed");
                            }),
               std::runtime_error);
  // Zero iterations: no worker runs, no exception.
  parallel_for(4, 0, [](std::size_t) { throw std::runtime_error("never"); });
}

TEST(HardwareThreads, NeverZero) { EXPECT_GE(hardware_threads(), 1u); }

TEST(AutoShardCount, OneShardPer128MachinesClamped) {
  EXPECT_EQ(auto_shard_count(1), 1u);
  EXPECT_EQ(auto_shard_count(127), 1u);
  EXPECT_EQ(auto_shard_count(256), 2u);
  EXPECT_EQ(auto_shard_count(10'000), 64u);  // 78 -> clamp
  EXPECT_EQ(auto_shard_count(1'000'000), 64u);
}

ShardedConfig small_cfg(std::uint64_t seed, std::size_t threads) {
  ShardedConfig cfg;
  cfg.machines = 26;  // uneven split: 4 shards of 7,7,6,6
  cfg.lambda_per_min = 40.0;
  cfg.duration_s = 3600.0;
  cfg.seed = seed;
  cfg.shards = 4;
  cfg.threads = threads;
  return cfg;
}

sched::PlacementPolicy no_hold() {
  sched::PlacementPolicy p;
  p.beneficial_joins_only = false;
  return p;
}

/// Builds the factory for one scheduler family; `kind` in
/// {fifo, mios, mibs, mix}.
SchedulerFactory factory_for(const std::string& kind, std::uint64_t seed) {
  if (kind == "fifo") {
    return [seed](std::size_t shard) -> std::unique_ptr<sched::Scheduler> {
      return std::make_unique<sched::FifoScheduler>(
          derive_stream_seed(seed + 1, shard));
    };
  }
  if (kind == "mios") {
    return [](std::size_t) -> std::unique_ptr<sched::Scheduler> {
      return std::make_unique<sched::MiosScheduler>(
          oracle(), sched::Objective::kRuntime, no_hold());
    };
  }
  if (kind == "mibs") {
    return [](std::size_t) -> std::unique_ptr<sched::Scheduler> {
      return std::make_unique<sched::MibsScheduler>(
          oracle(), sched::Objective::kRuntime, 8, 60.0, no_hold());
    };
  }
  return [](std::size_t) -> std::unique_ptr<sched::Scheduler> {
    return std::make_unique<sched::MixScheduler>(
        oracle(), sched::Objective::kRuntime, 8, 60.0, no_hold());
  };
}

/// Full instrumented run: metrics + typed trace + task trace + series.
struct RunBytes {
  ShardedOutcome outcome;
  std::string metrics_json;
  std::string trace_jsonl;
  std::string events_jsonl;
  std::string series;
};

RunBytes run_instrumented(const std::string& kind, std::uint64_t seed,
                          std::size_t threads) {
  ShardedConfig cfg = small_cfg(seed, threads);
  obs::Telemetry telemetry;
  telemetry.tracer.set_enabled(true);
  TraceRecorder trace;
  cfg.telemetry = &telemetry;
  cfg.trace = &trace;
  cfg.accuracy_probe = &oracle();
  cfg.accuracy_family = "oracle";
  cfg.snapshot_interval_s = 600.0;

  RunBytes r;
  r.outcome = run_dynamic_sharded(table(), factory_for(kind, seed), cfg);
  std::ostringstream metrics, tj, ej;
  telemetry.metrics.write_json(metrics);
  telemetry.tracer.write_jsonl(tj);
  trace.write_jsonl(ej);
  r.metrics_json = metrics.str();
  r.trace_jsonl = tj.str();
  r.events_jsonl = ej.str();
  r.series = r.outcome.series;
  return r;
}

class ThreadInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(ThreadInvariance, FourThreadsByteIdenticalToOne) {
  const std::string kind = GetParam();
  for (std::uint64_t seed : {7u, 23u}) {
    RunBytes a = run_instrumented(kind, seed, 1);
    RunBytes b = run_instrumented(kind, seed, 4);
    EXPECT_EQ(b.outcome.threads_used, 4u);
    EXPECT_EQ(a.outcome.shards, b.outcome.shards);
    EXPECT_EQ(a.outcome.total.arrived, b.outcome.total.arrived);
    EXPECT_EQ(a.outcome.total.completed, b.outcome.total.completed);
    EXPECT_EQ(a.outcome.total.dropped, b.outcome.total.dropped);
    EXPECT_EQ(a.outcome.total.total_runtime, b.outcome.total.total_runtime);
    EXPECT_EQ(a.outcome.total.mean_wait_s, b.outcome.total.mean_wait_s);
    ASSERT_EQ(a.outcome.per_shard.size(), b.outcome.per_shard.size());
    for (std::size_t i = 0; i < a.outcome.per_shard.size(); ++i) {
      EXPECT_EQ(a.outcome.per_shard[i].completed,
                b.outcome.per_shard[i].completed);
    }
    // The determinism contract is byte-level, not value-level.
    EXPECT_EQ(a.metrics_json, b.metrics_json) << kind << " seed " << seed;
    EXPECT_EQ(a.trace_jsonl, b.trace_jsonl) << kind << " seed " << seed;
    EXPECT_EQ(a.events_jsonl, b.events_jsonl) << kind << " seed " << seed;
    EXPECT_EQ(a.series, b.series) << kind << " seed " << seed;
    EXPECT_FALSE(a.series.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ThreadInvariance,
                         ::testing::Values("fifo", "mios", "mibs", "mix"));

TEST(ShardedScenario, OversubscribedThreadsStillByteIdentical) {
  // More workers than shards: extra threads must be harmless.
  RunBytes a = run_instrumented("mios", 11, 1);
  RunBytes b = run_instrumented("mios", 11, 16);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.events_jsonl, b.events_jsonl);
}

TEST(ShardedScenario, ShardStreamsAreIndependent) {
  ShardedConfig cfg = small_cfg(7, 1);
  ShardedOutcome o = run_dynamic_sharded(table(), factory_for("fifo", 7), cfg);
  ASSERT_EQ(o.per_shard.size(), 4u);
  // Shards 0 and 1 host the same machine count and arrival rate; only
  // their counter-derived streams differ, so identical arrival tallies
  // across all pairs would mean the streams collapsed.
  bool all_equal = true;
  for (std::size_t i = 1; i < o.per_shard.size(); ++i) {
    if (o.per_shard[i].arrived != o.per_shard[0].arrived) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
  // And the totals are the sum of the parts.
  std::size_t arrived = 0, completed = 0;
  for (const DynamicOutcome& s : o.per_shard) {
    arrived += s.arrived;
    completed += s.completed;
  }
  EXPECT_EQ(o.total.arrived, arrived);
  EXPECT_EQ(o.total.completed, completed);
}

TEST(ShardedScenario, ShardCountShapesTheSystem) {
  // Shards are part of the simulated system (per-shard queues and
  // managers), so different shard counts are different systems.
  ShardedConfig one = small_cfg(7, 1);
  one.shards = 1;
  ShardedConfig four = small_cfg(7, 1);
  ShardedOutcome a = run_dynamic_sharded(table(), factory_for("fifo", 7), one);
  ShardedOutcome b = run_dynamic_sharded(table(), factory_for("fifo", 7), four);
  EXPECT_EQ(a.shards, 1u);
  EXPECT_EQ(b.shards, 4u);
  EXPECT_NE(a.total.arrived, b.total.arrived);
}

TEST(ShardedScenario, ShardsNeverExceedMachines) {
  ShardedConfig cfg = small_cfg(7, 1);
  cfg.machines = 2;
  cfg.shards = 8;
  ShardedOutcome o = run_dynamic_sharded(table(), factory_for("fifo", 7), cfg);
  EXPECT_EQ(o.shards, 2u);
}

TEST(ShardedScenario, RejectsBadConfig) {
  ShardedConfig cfg = small_cfg(7, 1);
  cfg.machines = 0;
  EXPECT_THROW(run_dynamic_sharded(table(), factory_for("fifo", 7), cfg),
               std::invalid_argument);
  EXPECT_THROW(run_dynamic_sharded(table(), nullptr, small_cfg(7, 1)),
               std::invalid_argument);
}

/// Every byte a run exports, plus its outcome.
struct Exports {
  DynamicOutcome outcome;
  std::string metrics, metrics_csv, tracer_jsonl, chrome, decisions, spans,
      events_jsonl, events_csv, series;
};

Exports exports_of(const DynamicOutcome& outcome, const obs::Telemetry& tel,
                   const TraceRecorder& trace, std::string series) {
  Exports e;
  e.outcome = outcome;
  std::ostringstream m, mc, tj, ch, d, sp, ej, ec;
  tel.metrics.write_json(m);
  tel.metrics.write_csv(mc);
  tel.tracer.write_jsonl(tj);
  tel.tracer.write_chrome_json(ch);
  tel.decisions.write(d);
  tel.spans.write(sp);
  trace.write_jsonl(ej);
  trace.write_csv(ec);
  e.metrics = m.str();
  e.metrics_csv = mc.str();
  e.tracer_jsonl = tj.str();
  e.chrome = ch.str();
  e.decisions = d.str();
  e.spans = sp.str();
  e.events_jsonl = ej.str();
  e.events_csv = ec.str();
  e.series = std::move(series);
  return e;
}

void enable_records(obs::Telemetry& tel) {
  tel.tracer.set_enabled(true);
  tel.decisions.set_enabled(true);
  tel.spans.set_enabled(true);
}

TEST(ShardedScenario, OneShardIsTheFlatRun) {
  migrate::RebalanceConfig rcfg;
  rcfg.interval_s = 120.0;
  ShardedConfig cfg;
  cfg.machines = 12;
  cfg.lambda_per_min = 30.0;
  cfg.duration_s = 3600.0;
  cfg.seed = 19;
  cfg.shards = 1;
  cfg.accuracy_family = "oracle";
  cfg.accuracy_window = 32;
  cfg.snapshot_interval_s = 600.0;
  cfg.rebalance = true;
  cfg.rebalance_cfg = rcfg;
  cfg.rebalance_predictor = &oracle();

  // The flat run, wired by hand.
  DynamicConfig flat;
  flat.machines = cfg.machines;
  flat.lambda_per_min = cfg.lambda_per_min;
  flat.duration_s = cfg.duration_s;
  flat.seed = cfg.seed;
  obs::Telemetry flat_tel;
  enable_records(flat_tel);
  TraceRecorder flat_trace;
  obs::SnapshotSeries series(flat_tel.metrics, cfg.snapshot_interval_s);
  obs::WindowedAccuracy win_runtime(cfg.accuracy_window);
  obs::WindowedAccuracy win_iops(cfg.accuracy_window);
  series.track_accuracy("model.oracle.runtime", &win_runtime);
  series.track_accuracy("model.oracle.iops", &win_iops);
  migrate::Rebalancer rebalancer(oracle(), rcfg);
  flat.telemetry = &flat_tel;
  flat.trace = &flat_trace;
  flat.accuracy_probe = &oracle();
  flat.accuracy_family = cfg.accuracy_family;
  flat.snapshots = &series;
  flat.windowed_runtime = &win_runtime;
  flat.windowed_iops = &win_iops;
  flat.rebalancer = &rebalancer;
  std::unique_ptr<sched::Scheduler> sched = factory_for("mibs", cfg.seed)(0);
  sched->set_telemetry(&flat_tel);
  const DynamicOutcome flat_outcome = run_dynamic(table(), *sched, flat);
  const Exports want =
      exports_of(flat_outcome, flat_tel, flat_trace, series.str());
  EXPECT_GT(want.outcome.completed, 0u);
  EXPECT_NE(want.decisions.find("\"migration\""), std::string::npos);

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::Telemetry tel;
    enable_records(tel);
    TraceRecorder trace;
    ShardedConfig one = cfg;
    one.threads = threads;
    one.telemetry = &tel;
    one.trace = &trace;
    one.accuracy_probe = &oracle();
    ShardedOutcome o =
        run_dynamic_sharded(table(), factory_for("mibs", cfg.seed), one);
    ASSERT_EQ(o.shards, 1u);
    const Exports got = exports_of(o.total, tel, trace, o.series);
    EXPECT_EQ(got.outcome.arrived, want.outcome.arrived) << threads;
    EXPECT_EQ(got.outcome.dropped, want.outcome.dropped) << threads;
    EXPECT_EQ(got.outcome.completed, want.outcome.completed) << threads;
    EXPECT_EQ(got.outcome.total_runtime, want.outcome.total_runtime);
    EXPECT_EQ(got.outcome.total_iops, want.outcome.total_iops);
    EXPECT_EQ(got.outcome.mean_wait_s, want.outcome.mean_wait_s);
    EXPECT_EQ(got.outcome.mean_queue_length, want.outcome.mean_queue_length);
    EXPECT_EQ(got.outcome.duration_s, want.outcome.duration_s);
    EXPECT_EQ(got.metrics, want.metrics) << threads;
    EXPECT_EQ(got.metrics_csv, want.metrics_csv) << threads;
    EXPECT_EQ(got.tracer_jsonl, want.tracer_jsonl) << threads;
    EXPECT_EQ(got.chrome, want.chrome) << threads;
    EXPECT_EQ(got.decisions, want.decisions) << threads;
    EXPECT_EQ(got.spans, want.spans) << threads;
    EXPECT_EQ(got.events_jsonl, want.events_jsonl) << threads;
    EXPECT_EQ(got.events_csv, want.events_csv) << threads;
    EXPECT_EQ(got.series, want.series) << threads;
  }
}

TEST(ShardedScenario, EnsembleAndArrivalListNeedOneShard) {
  sched::ConfidenceWeightedPredictor ensemble({{"oracle", &oracle()}});
  ShardedConfig cfg = small_cfg(7, 1);
  cfg.confidence = &ensemble;
  EXPECT_THROW(run_dynamic_sharded(table(), factory_for("mix", 7), cfg),
               std::invalid_argument);
  const std::vector<Arrival> arrivals;
  EXPECT_THROW(run_dynamic_sharded(table(), factory_for("fifo", 7),
                                   small_cfg(7, 1), arrivals),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// The record-store merge against the recipe it replaced: concatenate
// the shards in shard order, re-index ids by hand, then stable_sort on
// the key. Timestamps tie across shards (including -0 against 0), and
// spans run out of start order inside a shard.

template <typename Event, typename Reindex, typename KeyFn>
std::vector<Event> concat_then_stable_sort(
    const std::vector<std::vector<Event>>& parts, Reindex reindex,
    KeyFn key) {
  std::vector<Event> all;
  for (std::size_t s = 0; s < parts.size(); ++s)
    for (Event ev : parts[s]) {
      reindex(ev, s);
      all.push_back(std::move(ev));
    }
  std::stable_sort(all.begin(), all.end(), [&](const Event& a, const Event& b) {
    return key(a) < key(b);
  });
  return all;
}

// Shard s has 10 + s machines and 100 * (s + 1) arrivals before it.
const std::vector<ShardBase> kBases = {{0, 0}, {10, 100}, {21, 300}};
constexpr std::size_t kMachineBase[] = {0, 10, 21};
constexpr std::uint64_t kTaskBase[] = {0, 100, 300};

// Keys with deliberate ties inside and across shards.
const double kTimes[3][6] = {{0.0, 1.5, 1.5, 2.0, 7.25, 9.0},
                             {-0.0, 1.5, 2.0, 2.0, 7.25, 8.0},
                             {1.5, 1.5, 1.5, 3.0, 7.25, 9.0}};

TEST(ShardMerge, TaskAndTraceEventsMatchStableSortOracle) {
  std::vector<std::vector<TaskEvent>> tasks(3);
  std::vector<std::vector<obs::TraceEvent>> traces(3);
  std::size_t id = 0;
  for (std::size_t s = 0; s < 3; ++s)
    for (std::size_t i = 0; i < 6; ++i, ++id) {
      const bool bound = i % 3 != 0;
      tasks[s].push_back({kTimes[s][i], TaskEventKind::kPlaced, id,
                          bound ? i : TaskEvent::kNoMachine});
      obs::TraceEvent ev;
      ev.time_s = kTimes[s][i];
      ev.kind = obs::TraceEventKind::kTaskPlaced;
      ev.machine = bound ? i : obs::TraceEvent::kNone;
      ev.count = id;  // unique payload, so any misorder shows in the bytes
      traces[s].push_back(ev);
    }

  TraceRecorder want_tasks, got_tasks;
  want_tasks.append(concat_then_stable_sort(
      tasks,
      [](TaskEvent& e, std::size_t s) {
        if (e.machine != TaskEvent::kNoMachine) e.machine += kMachineBase[s];
      },
      [](const TaskEvent& e) { return e.time_s; }));
  got_tasks.append(merge_shards(tasks, kBases,
                                [](const TaskEvent& e) { return e.time_s; }));
  std::ostringstream want_t, got_t;
  want_tasks.write_jsonl(want_t);
  got_tasks.write_jsonl(got_t);
  EXPECT_EQ(got_t.str(), want_t.str());

  obs::EventTracer want_trace, got_trace;
  want_trace.append(concat_then_stable_sort(
      traces,
      [](obs::TraceEvent& e, std::size_t s) {
        if (e.machine != obs::TraceEvent::kNone) e.machine += kMachineBase[s];
      },
      [](const obs::TraceEvent& e) { return e.time_s; }));
  got_trace.append(merge_shards(
      traces, kBases, [](const obs::TraceEvent& e) { return e.time_s; }));
  std::ostringstream want_j, got_j;
  want_trace.write_jsonl(want_j);
  got_trace.write_jsonl(got_j);
  EXPECT_EQ(got_j.str(), want_j.str());
  // The -0 record of shard 1 ties with shard 0's 0 and stays after it.
  EXPECT_EQ(got_trace.events()[0].count, 0u);
  EXPECT_EQ(got_trace.events()[1].count, 6u);
}

TEST(ShardMerge, DecisionsAndSpansMatchStableSortOracle) {
  std::vector<std::vector<obs::DecisionEvent>> decisions(3);
  std::vector<std::vector<obs::SpanEvent>> spans(3);
  for (std::size_t s = 0; s < 3; ++s)
    for (std::size_t i = 0; i < 6; ++i) {
      obs::DecisionEvent d;
      d.kind = i % 3 == 0   ? obs::DecisionEvent::Kind::kDecision
               : i % 3 == 1 ? obs::DecisionEvent::Kind::kMigration
                            : obs::DecisionEvent::Kind::kOutcome;
      d.task = i;
      d.time_s = kTimes[s][i];
      d.app = s;
      d.scheduler = "MIBS_8";
      d.objective = "runtime";
      d.candidates.resize(1);
      if (d.kind == obs::DecisionEvent::Kind::kMigration) {
        d.from_machine = i;
        d.machine = i + 1;
      } else if (i != 3) {  // task 3's decision stays unbound
        d.machine = i;
      }
      decisions[s].push_back(d);

      // Spans out of start order inside the shard: the last span of a
      // shard starts first.
      obs::SpanEvent sp;
      sp.kind = i % 2 == 0 ? obs::SpanEvent::Kind::kQueued
                           : obs::SpanEvent::Kind::kRunning;
      sp.task = i;
      sp.t0_s = kTimes[s][(i + 5) % 6];
      sp.t1_s = sp.t0_s + 1.0;
      sp.app = s;
      if (sp.kind != obs::SpanEvent::Kind::kQueued) sp.machine = i;
      spans[s].push_back(sp);
    }

  obs::DecisionLog want_d, got_d;
  want_d.append(concat_then_stable_sort(
      decisions,
      [](obs::DecisionEvent& e, std::size_t s) {
        if (e.machine != obs::DecisionEvent::kNoMachine)
          e.machine += kMachineBase[s];
        if (e.from_machine != obs::DecisionEvent::kNoMachine)
          e.from_machine += kMachineBase[s];
        e.task += kTaskBase[s];
      },
      [](const obs::DecisionEvent& e) { return e.time_s; }));
  got_d.append(merge_shards(
      decisions, kBases, [](const obs::DecisionEvent& e) { return e.time_s; }));
  EXPECT_EQ(got_d.str(), want_d.str());

  obs::SpanLog want_s, got_s;
  want_s.append(concat_then_stable_sort(
      spans,
      [](obs::SpanEvent& e, std::size_t s) {
        if (e.machine != obs::SpanEvent::kNoMachine)
          e.machine += kMachineBase[s];
        e.task += kTaskBase[s];
      },
      [](const obs::SpanEvent& e) { return e.t0_s; }));
  got_s.append(merge_shards(spans, kBases,
                            [](const obs::SpanEvent& e) { return e.t0_s; }));
  EXPECT_EQ(got_s.str(), want_s.str());
  // Ids really moved: shard 2's records carry its bases.
  bool saw_shard2 = false;
  for (const obs::SpanEvent& e : got_s.events()) {
    if (e.app != 2) continue;
    saw_shard2 = true;
    EXPECT_GE(e.task, 300u);
    if (e.machine != obs::SpanEvent::kNoMachine) {
      EXPECT_GE(e.machine, 21u);
    }
  }
  EXPECT_TRUE(saw_shard2);
}

}  // namespace
}  // namespace tracon::sim
