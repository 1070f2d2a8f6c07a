// Tests the sharded dynamic scenario's headline guarantee: results are
// a function of (seed, machines, shards) only — the worker-pool size
// must never leak into outcomes, metrics bytes, trace bytes, or the
// merged snapshot series (DESIGN.md §7).
#include "sim/shard_scenario.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
#include "sched/mix.hpp"
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

}  // namespace
}  // namespace tracon::sim
