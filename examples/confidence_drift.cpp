// Confidence-weighted MIX under a workload mix shift.
//
// Two model families feed the MIX scheduler's blended predictor: an
// oracle table (the measured truth) and a "stale" model whose
// co-location ordering no longer matches reality — the situation the
// paper's adaptation loop exists for. Halfway through the run the
// arrival mix shifts from light to heavy I/O. The A/B:
//
//   adaptive   --confidence-weighting on: live windowed error
//              disqualifies the stale family from the blend
//   frozen     equal weights forever (static MIX baseline)
//
// Both runs record metrics and a snapshot series into a run store and
// the comparison is rendered with the same report machinery as
// `tracon report A B` — the series section shows per-window divergence
// between the two runs.
//
// Flags:
//   --store DIR    run store directory (default runs-confidence-drift)
//   --hours H      horizon (default 2; the shift happens at H/2)
//   --json         emit the report as JSON instead of text
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "model/profiler.hpp"
#include "obs/json.hpp"
#include "obs/snapshot.hpp"
#include "obs/telemetry.hpp"
#include "runstore/report.hpp"
#include "runstore/runstore.hpp"
#include "sched/mix.hpp"
#include "sched/predictor.hpp"
#include "sim/arrival_source.hpp"
#include "sim/dynamic_scenario.hpp"
#include "util/cli.hpp"
#include "workload/benchmarks.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace tracon;

/// A stale interference model: its relative ordering of neighbours is
/// inverted against the truth, so the placements it favours are the
/// ones the cluster regrets. Stands in for a model trained on a
/// workload mix that no longer arrives.
class StalePredictor final : public sched::Predictor {
 public:
  explicit StalePredictor(const sched::TablePredictor& oracle)
      : oracle_(oracle) {}
  std::size_t num_apps() const override { return oracle_.num_apps(); }
  double predict_runtime(
      std::size_t task,
      const std::optional<std::size_t>& neighbour) const override {
    const double solo = oracle_.predict_runtime(task, std::nullopt);
    return 4.0 * solo * solo / oracle_.predict_runtime(task, neighbour);
  }
  double predict_iops(
      std::size_t task,
      const std::optional<std::size_t>& neighbour) const override {
    const double solo = oracle_.predict_iops(task, std::nullopt);
    return solo * solo / std::max(oracle_.predict_iops(task, neighbour), 1e-9);
  }

 private:
  const sched::TablePredictor& oracle_;
};

struct DriftRun {
  std::string id;
  double mean_completion_s = 0.0;
  std::size_t completed = 0;
};

DriftRun run_once(const sim::PerfTable& table,
                  const sched::TablePredictor& oracle,
                  const StalePredictor& stale, bool adapt, double hours,
                  runstore::RunStore& store) {
  sched::ConfidenceConfig ccfg;
  ccfg.window = 32;
  ccfg.min_samples = 8;
  ccfg.adapt = adapt;
  sched::ConfidenceWeightedPredictor pred(
      {{"oracle", &oracle}, {"stale", &stale}}, ccfg);

  obs::Telemetry tel;
  tel.tracer.set_enabled(false);
  pred.set_metrics(&tel.metrics);
  obs::SnapshotSeries series(tel.metrics, 600.0);
  series.track_accuracy("model.oracle.runtime", &pred.runtime_window(0));
  series.track_accuracy("model.stale.runtime", &pred.runtime_window(1));

  sim::DynamicConfig cfg;
  cfg.machines = 8;
  cfg.lambda_per_min = 8.0;
  cfg.duration_s = hours * 3600.0;
  cfg.seed = 5;
  cfg.telemetry = &tel;
  cfg.snapshots = &series;
  cfg.outcome_observer = &pred;
  sim::MixShiftArrivalSource source(
      cfg.lambda_per_min, cfg.duration_s, cfg.duration_s / 2.0,
      workload::MixKind::kLight, workload::MixKind::kHeavy, 1.5, cfg.seed);
  const std::vector<sim::Arrival> arrivals = source.arrivals(table.num_apps());

  sched::MixScheduler mix(pred, sched::Objective::kRuntime, 8, 60.0, {});
  tel.metrics.set_fingerprint("scheduler", mix.name());
  tel.metrics.set_fingerprint("confidence", adapt ? "on" : "off");
  tel.metrics.set_fingerprint("seed", std::to_string(cfg.seed));
  sim::DynamicOutcome o = sim::run_dynamic(table, mix, cfg, arrivals);

  DriftRun result;
  result.id = store.add_run(tel.metrics, mix.name(),
                            adapt ? "drift-adaptive" : "drift-frozen",
                            series.str());
  result.completed = o.completed;
  result.mean_completion_s =
      o.completed == 0 ? 0.0
                       : o.total_runtime / static_cast<double>(o.completed);
  std::printf("%-8s weights oracle=%.2f stale=%.2f  completed=%zu  "
              "mean completion=%.1f s\n",
              adapt ? "adaptive" : "frozen", pred.runtime_weight(0),
              pred.runtime_weight(1), result.completed,
              result.mean_completion_s);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tracon;

  ArgParser args(argc, argv);
  const double hours = args.get_double("hours", 2.0);
  runstore::RunStore store(args.get("store", "runs-confidence-drift"));

  model::Profiler prof(virt::HostSimulator(virt::HostConfig::paper_testbed()),
                       42);
  sim::PerfTable table =
      sim::PerfTable::build(prof, workload::paper_benchmarks());
  sched::TablePredictor oracle = table.oracle_predictor();
  StalePredictor stale(oracle);

  std::printf("mix shift light->heavy at %.1f h, horizon %.1f h\n\n",
              hours / 2.0, hours);
  DriftRun adaptive = run_once(table, oracle, stale, true, hours, store);
  DriftRun frozen = run_once(table, oracle, stale, false, hours, store);
  std::printf("\nadaptive/frozen mean completion: %.3f\n\n",
              adaptive.mean_completion_s / frozen.mean_completion_s);

  // The same diff the CLI renders for `tracon report <adaptive> <frozen>`.
  runstore::RunRecord ra = *store.find(adaptive.id);
  runstore::RunRecord rb = *store.find(frozen.id);
  runstore::RunReport report = runstore::diff_runs(
      runstore::summarize_metrics(obs::parse_json(store.read_metrics(ra))),
      runstore::summarize_metrics(obs::parse_json(store.read_metrics(rb))),
      ra.id + " (adaptive)", rb.id + " (frozen)");
  runstore::diff_series(obs::parse_metrics_series(store.read_series(ra)),
                        obs::parse_metrics_series(store.read_series(rb)),
                        &report);
  if (args.has("json")) {
    runstore::write_report_json(std::cout, report);
  } else {
    runstore::write_report_text(std::cout, report);
  }
  return 0;
}
