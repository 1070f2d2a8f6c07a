// Sharded dynamic scenario: partitions the cluster into independent
// machine shards, runs one dynamic sub-simulation per shard on a worker
// pool, and merges the per-shard results deterministically.
//
// Determinism contract (DESIGN.md §7): every quantity that affects the
// simulation or its exports is a function of (seed, machines, shards)
// only — machine partitioning, per-shard arrival streams (counter-based
// seeds via shard_seed), scheduler construction, and the
// (time, shard, position) record merge. The thread count sizes the
// worker pool and NOTHING else, so `--threads N` produces
// byte-identical metrics JSON, snapshot series, and task/trace event
// files to `--threads 1` for the same seed.
//
// Model note: a sharded run is the paper's hierarchical deployment
// (Section 5's per-manager sub-clusters) rather than one global
// manager — each shard has its own queue (queue_capacity per shard) and
// its own scheduler instance, and arrivals split across shards in
// proportion to their machine share. Shard count therefore changes the
// simulated system; it deliberately does NOT default from the thread
// count. One shard is the flat system: run_dynamic with the caller's
// seed, rate and sinks, byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "migrate/rebalancer.hpp"
#include "obs/telemetry.hpp"
#include "sched/predictor.hpp"
#include "sched/scheduler.hpp"
#include "sim/dynamic_scenario.hpp"
#include "sim/perf_table.hpp"
#include "sim/trace.hpp"
#include "workload/mixes.hpp"

namespace tracon::sim {

/// Builds shard `shard`'s scheduler. Called serially on the caller's
/// thread before the workers start, once per shard in shard order —
/// factories may therefore use shared mutable state (e.g. draw
/// per-shard seeds). Each returned scheduler is driven by exactly one
/// worker thread.
using SchedulerFactory =
    std::function<std::unique_ptr<sched::Scheduler>(std::size_t shard)>;

struct ShardedConfig {
  std::size_t machines = 64;
  double lambda_per_min = 100.0;  ///< aggregate rate, split across shards
  double duration_s = 36'000.0;
  workload::MixKind mix = workload::MixKind::kMedium;
  double mix_stddev = 1.5;
  std::uint64_t seed = 7;
  /// Per-shard manager queue bound (the MIBS_8 subscript applies to
  /// each shard's manager, matching the hierarchical scenario).
  std::size_t queue_capacity = 8;
  double schedule_period_s = 5.0;

  /// Worker pool size; 0 = hardware_threads(). Affects wall-clock
  /// time only, never results.
  std::size_t threads = 1;
  /// Number of machine shards; 0 = auto_shard_count(machines). Part of
  /// the simulated system's shape — never derived from `threads`.
  std::size_t shards = 0;

  /// Merged-output sinks (not owned; may be nullptr). Task events and
  /// typed trace events are buffered per shard with shard-local machine
  /// indices, then re-indexed into the global machine space and emitted
  /// in canonical (time, shard, record) order (sim::merge_shards).
  /// Metrics merge via MetricsRegistry::merge with machine-weighted
  /// utilization gauges. A one-shard run writes into them directly.
  TraceRecorder* trace = nullptr;
  obs::Telemetry* telemetry = nullptr;

  /// Accuracy probe shared by every shard; must be immutable under
  /// concurrent reads (TablePredictor qualifies, the confidence
  /// ensemble does not). See DynamicConfig::accuracy_probe.
  const sched::Predictor* accuracy_probe = nullptr;
  std::string accuracy_family;
  /// Per-shard rolling accuracy window capacity (when probing).
  std::size_t accuracy_window = 64;

  /// Live rebalancing, restricted per shard (DESIGN.md §6h): when on,
  /// each shard owns one migrate::Rebalancer scoped to its own
  /// machines, fed by its own completions and decision log — no state
  /// crosses a shard boundary, so migrations are a function of the
  /// shard's seed alone and `--threads N` stays byte-identical to
  /// `--threads 1`. Cross-shard moves are deliberately not modeled: a
  /// shard is the paper's per-manager sub-cluster, and a manager only
  /// migrates within its own fleet.
  bool rebalance = false;
  migrate::RebalanceConfig rebalance_cfg;
  /// Predictor the per-shard rebalancers score destinations with; must
  /// be non-null when `rebalance` is set and immutable under
  /// concurrent reads (TablePredictor qualifies).
  const sched::Predictor* rebalance_predictor = nullptr;

  /// Candidate shortlist index shared by every shard (not owned; may be
  /// nullptr). Read-only during the run, so it must be built over a
  /// predictor whose model epoch never changes mid-run (TablePredictor
  /// qualifies; the CLI rejects the index with the online ensemble).
  /// Each shard attaches the index's clustering to its own
  /// ClusterCounts; placements stay bit-identical to the flat scan.
  const sched::CandidateIndex* candidate_index = nullptr;

  /// > 0 enables the merged snapshot series (ShardedOutcome::series):
  /// every shard samples the same virtual-clock window grid, and
  /// windows merge index by index at those global barriers.
  double snapshot_interval_s = 0.0;

  /// Confidence-weighted ensemble (not owned; may be nullptr). It
  /// learns online from every completion, so it cannot be shared
  /// across shards: only a one-shard run may set it. The run then
  /// feeds it completions, scores it as the accuracy probe (family
  /// "confidence", replacing `accuracy_probe`), binds it to the
  /// metrics, and samples each family's own rolling windows into the
  /// series. The factory's scheduler is expected to predict through it.
  sched::ConfidenceWeightedPredictor* confidence = nullptr;
};

struct ShardedOutcome {
  DynamicOutcome total;
  std::vector<DynamicOutcome> per_shard;
  std::size_t shards = 0;        ///< effective shard count
  std::size_t threads_used = 0;  ///< effective worker-pool size
  /// Merged `tracon.metrics_series` document (empty when
  /// snapshot_interval_s == 0): per-window counter deltas and gauges
  /// sum across shards; accuracy stats merge count-weighted (the
  /// quantiles are a weighted average of per-shard quantiles, an
  /// approximation that is exact for the count/total fields).
  std::string series;
};

/// Default shard count for a cluster size: one shard per 128 machines,
/// clamped to [1, 64]. Pure function of `machines` so same-seed runs
/// agree on the decomposition regardless of the host.
std::size_t auto_shard_count(std::size_t machines);

/// The shard count a run with `cfg` uses: cfg.shards, or the auto
/// count when 0, never more than the machines.
std::size_t effective_shards(const ShardedConfig& cfg);

/// Seed of shard `shard`'s streams out of `shards`: `seed` itself when
/// there is only one shard (so a one-shard run is the flat run), else
/// the counter-derived derive_stream_seed(seed, shard).
std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard,
                         std::size_t shards);

/// Runs the sharded scenario. See the file comment for the determinism
/// contract; throws (first worker error) if any shard fails.
///
/// One shard is the flat system: the shard keeps cfg.seed and
/// cfg.lambda_per_min, writes straight into the caller's sinks, and
/// its outcome and exports are byte-identical to run_dynamic over the
/// same configuration.
ShardedOutcome run_dynamic_sharded(const PerfTable& table,
                                   const SchedulerFactory& make_scheduler,
                                   const ShardedConfig& cfg);

/// Same run over an explicit arrival list (sorted by time), as
/// run_dynamic's overload; lambda_per_min / mix / seed are ignored for
/// arrivals. The list is one manager's queue, so cfg must resolve to
/// one shard.
ShardedOutcome run_dynamic_sharded(const PerfTable& table,
                                   const SchedulerFactory& make_scheduler,
                                   const ShardedConfig& cfg,
                                   std::span<const Arrival> arrivals);

}  // namespace tracon::sim
