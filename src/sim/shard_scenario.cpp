#include "sim/shard_scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/snapshot.hpp"
#include "sim/shard_merge.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tracon::sim {

std::size_t auto_shard_count(std::size_t machines) {
  return std::clamp<std::size_t>(machines / 128, 1, 64);
}

std::size_t effective_shards(const ShardedConfig& cfg) {
  return std::min(cfg.shards > 0 ? cfg.shards : auto_shard_count(cfg.machines),
                  cfg.machines);
}

std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard,
                         std::size_t shards) {
  return shards == 1 ? seed : derive_stream_seed(seed, shard);
}

namespace {

/// Everything one shard owns. Sink pointers in `cfg` point into this
/// struct, so states are wired only after the state vector has reached
/// its final size and is never reallocated or moved afterwards.
struct ShardState {
  std::size_t base = 0;  ///< first global machine index of the shard
  DynamicConfig cfg;
  std::unique_ptr<sched::Scheduler> scheduler;
  TraceRecorder trace;
  obs::Telemetry telemetry;
  std::optional<obs::SnapshotSeries> series;
  std::optional<obs::WindowedAccuracy> win_runtime;
  std::optional<obs::WindowedAccuracy> win_iops;
  std::optional<migrate::Rebalancer> rebalancer;
  DynamicOutcome outcome;
};

/// Machine-weighted average of a per-shard gauge, for utilization
/// fractions whose merge() default (last writer wins) is meaningless.
void weighted_gauge(obs::MetricsRegistry& merged,
                    const std::vector<ShardState>& states,
                    const std::string& name, std::size_t total_machines) {
  double acc = 0.0;
  bool present = false;
  for (const ShardState& s : states) {
    auto it = s.telemetry.metrics.gauges().find(name);
    if (it == s.telemetry.metrics.gauges().end()) continue;
    present = true;
    acc += it->second.value() * static_cast<double>(s.cfg.machines);
  }
  if (present)
    merged.gauge(name).set(acc / static_cast<double>(total_machines));
}

/// Sum of a per-shard gauge (queue lengths, busy counts).
void summed_gauge(obs::MetricsRegistry& merged,
                  const std::vector<ShardState>& states,
                  const std::string& name) {
  double acc = 0.0;
  bool present = false;
  for (const ShardState& s : states) {
    auto it = s.telemetry.metrics.gauges().find(name);
    if (it == s.telemetry.metrics.gauges().end()) continue;
    present = true;
    acc += it->second.value();
  }
  if (present) merged.gauge(name).set(acc);
}

/// Merges the per-shard snapshot series window by window, folding the
/// shards' records directly. All shards sample the same virtual-clock
/// grid (same interval and horizon), so records pair up by window
/// index: counter deltas and gauges sum, accuracy statistics merge
/// weighted by each shard's windowed sample count.
std::string merge_series(const std::vector<ShardState>& states) {
  obs::MetricsSeries merged = states[0].series->series();
  // Pre-scale accuracy stats by their weights; divided back out after
  // every shard is folded in.
  for (obs::SeriesWindow& w : merged.windows)
    for (auto& [name, a] : w.accuracy) {
      a.mean_abs *= a.count;
      a.p50 *= a.count;
      a.p90 *= a.count;
    }
  for (std::size_t i = 1; i < states.size(); ++i) {
    const obs::MetricsSeries& part = states[i].series->series();
    TRACON_REQUIRE(part.windows.size() == merged.windows.size(),
                   "shards disagree on snapshot window count");
    for (std::size_t w = 0; w < part.windows.size(); ++w) {
      const obs::SeriesWindow& in = part.windows[w];
      obs::SeriesWindow& out = merged.windows[w];
      TRACON_REQUIRE(in.index == out.index && in.t_end == out.t_end,
                     "shards disagree on snapshot window boundaries");
      for (const auto& [name, v] : in.counters) out.counters[name] += v;
      for (const auto& [name, v] : in.gauges) out.gauges[name] += v;
      for (const auto& [name, a] : in.accuracy) {
        obs::SeriesWindow::Accuracy& acc = out.accuracy[name];
        acc.count += a.count;
        acc.total += a.total;
        acc.mean_abs += a.mean_abs * a.count;
        acc.p50 += a.p50 * a.count;
        acc.p90 += a.p90 * a.count;
      }
    }
  }
  for (obs::SeriesWindow& w : merged.windows)
    for (auto& [name, a] : w.accuracy) {
      double denom = a.count > 0.0 ? a.count : 1.0;
      a.mean_abs /= denom;
      a.p50 /= denom;
      a.p90 /= denom;
    }
  return obs::metrics_series_str(merged);
}

/// Both public overloads; `arrivals` (one-shard runs only) replaces
/// the shard's Poisson stream when set.
ShardedOutcome run_sharded(const PerfTable& table,
                           const SchedulerFactory& make_scheduler,
                           const ShardedConfig& cfg,
                           std::optional<std::span<const Arrival>> arrivals) {
  TRACON_REQUIRE(cfg.machines > 0, "need at least one machine");
  TRACON_REQUIRE(make_scheduler != nullptr, "scheduler factory must be set");
  const std::size_t shards = effective_shards(cfg);
  // One shard is the flat system: its own seed and rate, the caller's
  // sinks, and nothing to merge.
  const bool direct = shards == 1;
  TRACON_REQUIRE(direct || cfg.confidence == nullptr,
                 "the confidence ensemble is stateful and needs one shard");
  TRACON_REQUIRE(direct || !arrivals.has_value(),
                 "an explicit arrival list needs one shard");
  const std::size_t threads =
      cfg.threads > 0 ? cfg.threads : hardware_threads();
  const bool series_on = cfg.snapshot_interval_s > 0.0;
  const bool telemetry_on = cfg.telemetry != nullptr || series_on;
  const bool tracer_on =
      cfg.telemetry != nullptr && cfg.telemetry->tracer.enabled();
  const bool decisions_on =
      cfg.telemetry != nullptr && cfg.telemetry->decisions.enabled();
  const bool spans_on =
      cfg.telemetry != nullptr && cfg.telemetry->spans.enabled();

  // --- Decompose: everything here is a function of (seed, machines,
  // shards); the thread count appears only in the parallel_for below.
  std::vector<ShardState> states(shards);
  const std::size_t per_shard = cfg.machines / shards;
  const std::size_t remainder = cfg.machines % shards;
  std::size_t base = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    ShardState& s = states[i];
    s.base = base;
    DynamicConfig& d = s.cfg;
    d.machines = per_shard + (i < remainder ? 1 : 0);
    base += d.machines;
    // Each shard sees its machine share of the aggregate arrival rate,
    // drawn from its own counter-derived Poisson stream.
    d.lambda_per_min = direct ? cfg.lambda_per_min
                              : cfg.lambda_per_min *
                                    static_cast<double>(d.machines) /
                                    static_cast<double>(cfg.machines);
    d.duration_s = cfg.duration_s;
    d.mix = cfg.mix;
    d.mix_stddev = cfg.mix_stddev;
    d.seed = shard_seed(cfg.seed, i, shards);
    d.queue_capacity = cfg.queue_capacity;
    d.schedule_period_s = cfg.schedule_period_s;
    d.candidate_index = cfg.candidate_index;
    s.scheduler = make_scheduler(i);
    TRACON_REQUIRE(s.scheduler != nullptr, "scheduler factory returned null");
  }
  TRACON_ASSERT(base == cfg.machines, "shard partition must cover the fleet");

  // Wire the per-shard sinks only now that `states` has its final
  // addresses (DynamicConfig stores raw pointers into its ShardState).
  for (ShardState& s : states) {
    obs::Telemetry& tel = direct && cfg.telemetry != nullptr
                              ? *cfg.telemetry
                              : s.telemetry;
    if (cfg.trace != nullptr) s.cfg.trace = direct ? cfg.trace : &s.trace;
    if (telemetry_on) {
      s.cfg.telemetry = &tel;
      s.scheduler->set_telemetry(&tel);
    }
    if (tracer_on) tel.tracer.set_enabled(true);
    if (decisions_on) tel.decisions.set_enabled(true);
    if (spans_on) tel.spans.set_enabled(true);
    if (cfg.accuracy_probe != nullptr) {
      s.cfg.accuracy_probe = cfg.accuracy_probe;
      s.cfg.accuracy_family = cfg.accuracy_family;
    }
    if (cfg.confidence != nullptr) {
      // The ensemble learns from the run and scores the blend itself.
      s.cfg.outcome_observer = cfg.confidence;
      s.cfg.accuracy_probe = cfg.confidence;
      s.cfg.accuracy_family = "confidence";
      if (telemetry_on) cfg.confidence->set_metrics(&tel.metrics);
    }
    if (cfg.rebalance) {
      TRACON_REQUIRE(cfg.rebalance_predictor != nullptr,
                     "sharded rebalancing needs a destination predictor");
      s.rebalancer.emplace(*cfg.rebalance_predictor, cfg.rebalance_cfg);
      s.cfg.rebalancer = &*s.rebalancer;
    }
    if (series_on) {
      s.series.emplace(tel.metrics, cfg.snapshot_interval_s);
      s.cfg.snapshots = &*s.series;
      // One model family's rolling windows, sampled into the series.
      auto track = [&s](const std::string& fam,
                        const obs::WindowedAccuracy* runtime,
                        const obs::WindowedAccuracy* iops) {
        // TRACON_ANALYZE_ALLOW(metric-name): "model." is a prefix; the
        // composed path is validated by track_accuracy itself.
        s.series->track_accuracy("model." + fam + ".runtime", runtime);
        // TRACON_ANALYZE_ALLOW(metric-name): prefix of a composed path,
        // validated by track_accuracy like the one above.
        s.series->track_accuracy("model." + fam + ".iops", iops);
      };
      if (cfg.confidence != nullptr) {
        for (std::size_t f = 0; f < cfg.confidence->num_families(); ++f)
          track(cfg.confidence->family_name(f),
                &cfg.confidence->runtime_window(f),
                &cfg.confidence->iops_window(f));
      } else if (cfg.accuracy_probe != nullptr) {
        s.win_runtime.emplace(cfg.accuracy_window);
        s.win_iops.emplace(cfg.accuracy_window);
        s.cfg.windowed_runtime = &*s.win_runtime;
        s.cfg.windowed_iops = &*s.win_iops;
        track(obs::metric_path_component(cfg.accuracy_family.empty()
                                             ? "probe"
                                             : cfg.accuracy_family),
              &*s.win_runtime, &*s.win_iops);
      }
    }
  }

  // --- Run every shard on the worker pool. Shards touch only their own
  // state (plus shared read-only inputs: the perf table and the probe),
  // and parallel_for joins all workers before returning, so the merge
  // below reads fully published results.
  parallel_for(threads, shards, [&](std::size_t i) {
    ShardState& s = states[i];
    s.outcome = arrivals.has_value()
                    ? run_dynamic(table, *s.scheduler, s.cfg, *arrivals)
                    : run_dynamic(table, *s.scheduler, s.cfg);
  });

  ShardedOutcome out;
  out.shards = shards;
  out.threads_used = threads;
  if (direct) {
    // The shard already wrote into the caller's sinks.
    out.total = states[0].outcome;
    out.per_shard = {states[0].outcome};
    if (series_on) out.series = states[0].series->str();
    return out;
  }

  // --- Merge, serially and in shard order.
  out.total.duration_s = cfg.duration_s;
  double wait_weighted = 0.0;
  std::size_t wait_count = 0;
  out.per_shard.reserve(shards);
  for (const ShardState& s : states) {
    const DynamicOutcome& o = s.outcome;
    out.per_shard.push_back(o);
    out.total.arrived += o.arrived;
    out.total.dropped += o.dropped;
    out.total.completed += o.completed;
    out.total.total_runtime += o.total_runtime;
    out.total.total_iops += o.total_iops;
    out.total.mean_queue_length += o.mean_queue_length;
    // mean_wait is per-started-task; weight by completions as a proxy
    // (the hierarchical scenario's convention).
    wait_weighted += o.mean_wait_s * static_cast<double>(o.completed);
    wait_count += o.completed;
  }
  out.total.mean_wait_s =
      wait_count > 0 ? wait_weighted / static_cast<double>(wait_count) : 0.0;

  if (cfg.telemetry != nullptr) {
    for (const ShardState& s : states)
      cfg.telemetry->metrics.merge(s.telemetry.metrics);
    // merge() leaves gauges last-writer-wins; replace the ones with a
    // meaningful cluster-level aggregate.
    obs::MetricsRegistry& m = cfg.telemetry->metrics;
    weighted_gauge(m, states, "sim.util.host_busy_fraction", cfg.machines);
    weighted_gauge(m, states, "sim.util.slot_busy_fraction", cfg.machines);
    summed_gauge(m, states, "sim.queue.mean_length");
    summed_gauge(m, states, "sim.queue.length");
    summed_gauge(m, states, "sim.util.busy_machines");
    summed_gauge(m, states, "sim.util.busy_slots");
    summed_gauge(m, states, "sched.queue_length");
  }

  // The record stores merge independently of each other, so each is
  // one job on the worker pool. merge_shards fixes the canonical
  // (time, shard, position) order; spans key on their start, which
  // keeps each task's spans chronological. Task ids are per-shard
  // arrival indices, shifted by the arrivals of the shards before so
  // they stay unique; `arrived` is a function of the shard seed alone,
  // so the shifts (and the merged bytes) are thread-independent.
  std::vector<ShardBase> bases(shards);
  std::uint64_t task_base = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    bases[i] = {states[i].base, task_base};
    task_base += states[i].outcome.arrived;
  }
  // One store's per-shard events, moved out of the shard states.
  auto take = [&](auto take_one) {
    std::vector<decltype(take_one(states[0]))> parts;
    parts.reserve(shards);
    for (ShardState& s : states) parts.push_back(take_one(s));
    return parts;
  };
  std::vector<std::function<void()>> merges;
  if (cfg.trace != nullptr)
    merges.emplace_back([&] {
      cfg.trace->append(merge_shards(
          take([](ShardState& s) { return s.trace.take_events(); }), bases,
          [](const TaskEvent& e) { return e.time_s; }));
    });
  if (tracer_on)
    merges.emplace_back([&] {
      cfg.telemetry->tracer.append(merge_shards(
          take([](ShardState& s) {
            return s.telemetry.tracer.take_events();
          }),
          bases, [](const obs::TraceEvent& e) { return e.time_s; }));
    });
  if (decisions_on)
    merges.emplace_back([&] {
      cfg.telemetry->decisions.append(merge_shards(
          take([](ShardState& s) {
            return s.telemetry.decisions.take_events();
          }),
          bases, [](const obs::DecisionEvent& e) { return e.time_s; }));
    });
  if (spans_on)
    merges.emplace_back([&] {
      cfg.telemetry->spans.append(merge_shards(
          take([](ShardState& s) { return s.telemetry.spans.take_events(); }),
          bases, [](const obs::SpanEvent& e) { return e.t0_s; }));
    });
  if (series_on)
    merges.emplace_back([&] { out.series = merge_series(states); });
  parallel_for(threads, merges.size(), [&](std::size_t i) { merges[i](); });
  return out;
}

}  // namespace

ShardedOutcome run_dynamic_sharded(const PerfTable& table,
                                   const SchedulerFactory& make_scheduler,
                                   const ShardedConfig& cfg) {
  return run_sharded(table, make_scheduler, cfg, std::nullopt);
}

ShardedOutcome run_dynamic_sharded(const PerfTable& table,
                                   const SchedulerFactory& make_scheduler,
                                   const ShardedConfig& cfg,
                                   std::span<const Arrival> arrivals) {
  return run_sharded(table, make_scheduler, cfg, arrivals);
}

}  // namespace tracon::sim
