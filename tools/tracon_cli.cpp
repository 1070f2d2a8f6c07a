// tracon — command-line front end to the TRACON library.
//
// Subcommands:
//   tracon table1                reproduce the interference micro-table
//   tracon matrix                pairwise slowdown / IOPS-retention matrix
//   tracon predict               model vs measured for one app pair
//   tracon static                schedule a batch and report Speedup/IOBoost
//   tracon dynamic               Poisson-arrival cluster simulation
//   tracon record                dynamic run that also writes an arrival
//                                trace (--out) and stores the run (--store)
//   tracon replay                re-run a recorded trace (--trace) under
//                                any --scheduler; stores the run
//   tracon runs                  list the runs in a run store
//   tracon report A B            A/B diff of two stored runs by id prefix
//                                (counters, latency, model accuracy, and —
//                                when both runs stored a snapshot series —
//                                per-window divergence);
//                                --json for machine-readable output
//   tracon timeline              render a tracon.metrics_series file
//                                (--series FILE) or a stored run's series
//                                (<run-id-prefix> [--store DIR]) as an
//                                aligned per-window table; --json,
//                                --metric SUBSTR to filter columns
//   tracon explain TASK          why one placement happened: the
//                                candidate slots scanned, per-family
//                                predictions, confidence weights, and
//                                margin for task TASK, plus the joined
//                                outcome; reads --decisions FILE or a
//                                stored run (<run-id-prefix> [--store])
//   tracon attribution           decision quality for a whole run:
//                                per-co-location-pair realized-slowdown
//                                heatmap and worst-mispredicts table
//                                (--top N, default 10); --json for
//                                machine-readable output
//   tracon breakdown             latency accounting for a whole run:
//                                every completed task's end-to-end
//                                latency decomposed into wait + solo +
//                                interference + migration, aggregated
//                                per app class (and per window with
//                                --window S); reads --spans FILE or a
//                                stored run (<run-id-prefix> [--store]);
//                                --json for machine-readable output
//   tracon critical-path         the chain of tasks that set the
//                                makespan: walk back from the last
//                                completion through each same-machine
//                                predecessor; same sources as breakdown
//
// Common flags:
//   --host paper|ssd|raid|iscsi  host/storage model   (default paper)
//   --model wmm|lm|nlm|nlm-log   prediction model     (default nlm)
//   --seed N                     RNG seed             (default 42)
//   --csv                        machine-readable output where applicable
//   --prof                       print wall-clock kernel profile to stderr
//
// Telemetry flags (dynamic, record, replay; the task-event files are
// dynamic only):
//   --metrics-out FILE           metrics registry as JSON
//   --metrics-csv FILE           metrics registry as CSV
//   --trace-out FILE             Chrome trace_event JSON (Perfetto-loadable)
//   --trace-jsonl FILE           one trace event per line
//   --events-jsonl FILE          per-task event log (tracon.task_events)
//   --trace FILE                 per-task event log as CSV
//
// Execution shape flags (dynamic, record, replay; DESIGN.md §7). Every
// run goes through the sharded engine; with neither flag it has one
// shard, the flat system, and the fingerprint and summary name no
// shape. Either flag adds `shards`/`threads` to both.
//   --threads N                  run shards on N workers (0 = all cores;
//                                results are byte-identical for every N
//                                at a fixed seed/shard count)
//   --shards K                   machine shards (default with --threads:
//                                auto, one per 128 machines, clamped to
//                                [1, 64]); part of the simulated
//                                system's shape
//   --prof requires --threads 1; --confidence-weighting, record and
//   replay require a run that resolves to one shard.
//   --candidate-index            place via the clustered candidate
//                                shortlist index with per-scheduler
//                                prediction memoization. Placements are
//                                bit-identical to the flat scan, so
//                                every export keeps its exact bytes and
//                                no fingerprint entry is stamped.
//
// Snapshot / confidence flags (dynamic, record, replay):
//   --snapshot-interval S        sample a tracon.metrics_series window
//                                every S sim-seconds (record/replay also
//                                store the series alongside the run)
//   --series-out FILE            write the series JSONL (implies
//                                snapshots at the default 600 s interval)
//   --confidence-weighting       schedule with the confidence-weighted
//                                WMM/LM/NLM ensemble instead of the
//                                single --model table (requires
//                                --scheduler mix)
//   --accuracy-window N          rolling accuracy window size (default 64)
//
// Decision provenance flags (DESIGN.md §6g):
//   --decisions-out FILE         write the tracon.decision_log JSONL
//                                (dynamic, record, replay; works with
//                                --threads — the merged log is
//                                byte-identical across thread counts)
//   --decisions                  record the decision log and store it
//                                with the run (record/replay), readable
//                                later via `explain` / `attribution`
//
// Lifecycle span flags (DESIGN.md §6i):
//   --spans-out FILE             write the tracon.spans JSONL (dynamic,
//                                record, replay; works with --threads —
//                                the merged log is byte-identical
//                                across thread counts)
//   --spans                      record the span log and store it with
//                                the run (record/replay), readable
//                                later via `breakdown` / `critical-path`
//                                / `explain`
//
// Live rebalancing flags (dynamic, record, replay; DESIGN.md §6h):
//   --rebalance                  run a migrate::Rebalancer round every
//                                --rebalance-interval sim-seconds
//                                (default 60): tasks in degrading
//                                (app, co-runner) cells move when the
//                                predicted benefit beats the migration
//                                cost by --rebalance-min-benefit s
//   --rebalance-max-moves N      cap migrations per round (default 2)
//   --migration-downtime S       stop-and-copy pause, s (default 0.5)
//   --migration-bandwidth MBPS   copy bandwidth      (default 400)
//   --working-set MB             copied working set  (default 512)
//   --migration-interference F   host slowdown fraction while copying,
//                                in [0,1)            (default 0.25)
//   Works with --threads: rebalancing is per shard, and every export
//   stays byte-identical across thread counts. Migrations appear in
//   the decision log as `migration` records (`explain` shows them).
// All telemetry timestamps are virtual-clock; same-seed runs produce
// byte-identical files (including the snapshot series and decision
// log).
//
// Examples:
//   tracon matrix --host ssd
//   tracon predict --fg video --bg blastn
//   tracon static --machines 16 --mix medium --objective io
//   tracon dynamic --machines 64 --lambda 80 --hours 10
//          [continued] --scheduler mibs --queue 8 --mix heavy
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>

#include "core/tracon.hpp"
#include "migrate/rebalancer.hpp"
#include "obs/attribution.hpp"
#include "obs/breakdown.hpp"
#include "obs/decision_log.hpp"
#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/scope_timer.hpp"
#include "obs/snapshot.hpp"
#include "obs/span_log.hpp"
#include "obs/telemetry.hpp"
#include "replay/arrival_trace.hpp"
#include "runstore/report.hpp"
#include "runstore/runstore.hpp"
#include "sched/candidate_index.hpp"
#include "sched/fifo.hpp"
#include "sched/prediction_cache.hpp"
#include "sched/predictor.hpp"
#include "sim/arrival_source.hpp"
#include "sim/hierarchy.hpp"
#include "sim/shard_scenario.hpp"
#include "sim/static_scenario.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "virt/host_sim.hpp"
#include "workload/benchmarks.hpp"
#include "workload/mixes.hpp"

// Injected by tools/CMakeLists.txt from `git describe` at configure
// time; stamps run fingerprints so stored runs record the build.
#ifndef TRACON_GIT_DESCRIBE
#define TRACON_GIT_DESCRIBE "unknown"
#endif

namespace {

using namespace tracon;

virt::HostConfig host_by_name(const std::string& h) {
  if (h == "paper") return virt::HostConfig::paper_testbed();
  if (h == "ssd") return virt::HostConfig::ssd_testbed();
  if (h == "raid") return virt::HostConfig::raid_testbed();
  if (h == "iscsi") return virt::HostConfig::iscsi_testbed();
  throw std::invalid_argument("unknown --host '" + h +
                              "' (paper|ssd|raid|iscsi)");
}

virt::HostConfig host_from(const ArgParser& args) {
  return host_by_name(args.get("host", "paper"));
}

model::ModelKind model_by_name(const std::string& m) {
  if (m == "wmm") return model::ModelKind::kWmm;
  if (m == "lm") return model::ModelKind::kLinear;
  if (m == "nlm") return model::ModelKind::kNonlinear;
  if (m == "nlm-log") return model::ModelKind::kNonlinearLog;
  if (m == "nlm-nodom0") return model::ModelKind::kNonlinearNoDom0;
  throw std::invalid_argument("unknown --model '" + m +
                              "' (wmm|lm|nlm|nlm-log|nlm-nodom0)");
}

model::ModelKind model_from(const ArgParser& args) {
  return model_by_name(args.get("model", "nlm"));
}

workload::MixKind mix_by_name(const std::string& m) {
  if (m == "light") return workload::MixKind::kLight;
  if (m == "medium") return workload::MixKind::kMedium;
  if (m == "heavy") return workload::MixKind::kHeavy;
  if (m == "uniform") return workload::MixKind::kUniform;
  throw std::invalid_argument("unknown --mix '" + m +
                              "' (light|medium|heavy|uniform)");
}

workload::MixKind mix_from(const ArgParser& args) {
  return mix_by_name(args.get("mix", "medium"));
}

/// Parses the live-rebalancing knobs (DESIGN.md §6h). Returns true when
/// --rebalance is on; `out` then carries the round interval, the
/// hysteresis margin, and the migration cost model's parameters.
bool rebalance_from(const ArgParser& args, migrate::RebalanceConfig* out) {
  if (!args.has("rebalance")) return false;
  out->interval_s = args.get_double("rebalance-interval", out->interval_s);
  out->min_benefit_s =
      args.get_double("rebalance-min-benefit", out->min_benefit_s);
  out->max_moves_per_round =
      args.get_count("rebalance-max-moves", out->max_moves_per_round);
  out->cost.downtime_s =
      args.get_double("migration-downtime", out->cost.downtime_s);
  out->cost.copy_bandwidth_mbps =
      args.get_double("migration-bandwidth", out->cost.copy_bandwidth_mbps);
  out->cost.working_set_mb =
      args.get_double("working-set", out->cost.working_set_mb);
  out->cost.copy_interference =
      args.get_double("migration-interference", out->cost.copy_interference);
  return true;
}

/// The `completed` line of the dynamic summary. The normalized
/// throughput divides by at least one FIFO completion, so a horizon too
/// short for FIFO to finish anything prints a number, never 0/0.
void print_completed(std::size_t completed, std::size_t fifo_completed) {
  std::printf("  completed %zu (FIFO %zu, normalized %.3f)\n", completed,
              fifo_completed,
              static_cast<double>(completed) /
                  static_cast<double>(
                      std::max<std::size_t>(1, fifo_completed)));
}

/// One export file of a `tracon dynamic` run: written when `flag` was
/// given, to the path that flag names.
struct ExportFile {
  const char* flag;
  const char* what;
  std::function<void(std::ostream&)> write;
};

/// The telemetry exports of a dynamic, record or replay run, in report
/// order; `series` is the run's snapshot series document.
std::vector<ExportFile> telemetry_exports(const obs::Telemetry& tel,
                                          const std::string& series) {
  return {
      {"metrics-out", "metrics JSON",
       [&tel](std::ostream& f) { tel.metrics.write_json(f); }},
      {"metrics-csv", "metrics CSV",
       [&tel](std::ostream& f) { tel.metrics.write_csv(f); }},
      {"trace-out", "Chrome trace",
       [&tel](std::ostream& f) { tel.tracer.write_chrome_json(f); }},
      {"trace-jsonl", "JSONL trace",
       [&tel](std::ostream& f) { tel.tracer.write_jsonl(f); }},
      {"series-out", "metrics series",
       [&series](std::ostream& f) { f << series; }},
      {"decisions-out", "decision log",
       [&tel](std::ostream& f) { tel.decisions.write(f); }},
      {"spans-out", "span log",
       [&tel](std::ostream& f) { tel.spans.write(f); }},
  };
}

/// Writes every export whose flag was given. The files are independent,
/// so they are written concurrently on up to `threads` workers; the
/// report follows in list order once all are closed: "<what> written
/// to <path>", or a "cannot open" error on stderr. Returns false when
/// any file could not be opened.
bool write_exports(const ArgParser& args, const std::vector<ExportFile>& all,
                   std::size_t threads) {
  std::vector<const ExportFile*> files;
  std::vector<std::string> paths;
  for (const ExportFile& file : all) {
    if (!args.has(file.flag)) continue;
    files.push_back(&file);
    paths.push_back(args.get(file.flag));
  }
  // Two flags naming one file would interleave writes; serially the
  // later export wins, as it always has.
  if (std::set<std::string>(paths.begin(), paths.end()).size() !=
      paths.size())
    threads = 1;
  std::vector<char> opened(files.size(), 0);
  parallel_for(threads, files.size(), [&](std::size_t i) {
    std::ofstream f(paths[i]);
    opened[i] = f ? 1 : 0;
    if (opened[i] != 0) files[i]->write(f);
  });
  bool ok = true;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (opened[i] == 0) {
      std::fprintf(stderr, "cannot open %s file '%s'\n", files[i]->what,
                   paths[i].c_str());
      ok = false;
      continue;
    }
    std::printf("%s written to %s\n", files[i]->what, paths[i].c_str());
  }
  return ok;
}

/// App-class id -> benchmark name, for human-readable decision output.
std::string app_class_name(std::size_t app) {
  const auto& apps = workload::paper_benchmarks();
  if (app < apps.size()) return apps[app].name;
  return "app" + std::to_string(app);
}

std::string neighbour_name(const std::optional<std::size_t>& neighbour) {
  return neighbour.has_value() ? app_class_name(*neighbour)
                               : std::string("empty");
}

/// Span kind -> display / JSON label (matches the serialized kind).
std::string span_state_name(obs::SpanEvent::Kind kind) {
  switch (kind) {
    case obs::SpanEvent::Kind::kQueued: return "queued";
    case obs::SpanEvent::Kind::kRunning: return "running";
    case obs::SpanEvent::Kind::kMigrationFreeze: return "migration_freeze";
    case obs::SpanEvent::Kind::kMigrationCopy: return "migration_copy";
    case obs::SpanEvent::Kind::kCompleted: return "completed";
  }
  return "unknown";
}

core::Tracon make_system(const ArgParser& args, bool train) {
  core::TraconConfig cfg;
  cfg.host = host_from(args);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  core::Tracon sys(cfg);
  sys.register_applications(workload::paper_benchmarks());
  if (train) sys.train(model_from(args));
  return sys;
}

void emit(const TableWriter& table, const ArgParser& args) {
  if (args.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

int cmd_table1(const ArgParser& args) {
  virt::HostConfig cfg = host_from(args);
  cfg.noise_sigma = 0.0;
  virt::HostSimulator sim(cfg);
  TableWriter out({"App1\\App2", "cpu-high", "io-high", "cpu-io-med",
                   "cpu-io-high"});
  for (const auto& fg : {workload::calc_app(), workload::seqread_app()}) {
    double solo = sim.solo(fg).runtime_s;
    std::vector<double> row;
    for (const auto& bg :
         {workload::cpu_high_app(), workload::io_high_app(),
          workload::cpu_io_medium_app(), workload::cpu_io_high_app()})
      row.push_back(sim.measure_pair(fg, bg).runtime_s / solo);
    out.add_row_numeric(fg.name, row, 2);
  }
  emit(out, args);
  return 0;
}

int cmd_matrix(const ArgParser& args) {
  core::Tracon sys = make_system(args, false);
  const sim::PerfTable& t = sys.perf_table();
  std::vector<std::string> header = {"slowdown"};
  for (std::size_t b = 0; b < t.num_apps(); ++b)
    header.push_back(t.app_name(b));
  header.push_back("solo_s");
  TableWriter out(header);
  for (std::size_t a = 0; a < t.num_apps(); ++a) {
    std::vector<double> row;
    for (std::size_t b = 0; b < t.num_apps(); ++b)
      row.push_back(t.runtime(a, b) / t.solo_runtime(a));
    row.push_back(t.solo_runtime(a));
    out.add_row_numeric(t.app_name(a), row, 2);
  }
  emit(out, args);
  return 0;
}

int cmd_predict(const ArgParser& args) {
  auto fg = workload::benchmark_by_name(args.get("fg", "video"));
  auto bg = workload::benchmark_by_name(args.get("bg", "blastn"));
  if (!fg || !bg) {
    std::fprintf(stderr, "unknown --fg/--bg benchmark name\n");
    return 2;
  }
  core::Tracon sys = make_system(args, true);
  const sim::PerfTable& t = sys.perf_table();
  std::size_t fi = 0, bi = 0;
  for (std::size_t a = 0; a < t.num_apps(); ++a) {
    if (t.app_name(a) == fg->name) fi = a;
    if (t.app_name(a) == bg->name) bi = a;
  }
  std::printf("%s next to %s (%s, model %s):\n", fg->name.c_str(),
              bg->name.c_str(), args.get("host", "paper").c_str(),
              model::model_kind_name(sys.model_kind()).c_str());
  std::printf("  runtime: predicted %8.1f s   measured %8.1f s   solo %8.1f s\n",
              sys.predictor().predict_runtime(fi, bi), t.runtime(fi, bi),
              t.solo_runtime(fi));
  std::printf("  IOPS:    predicted %8.1f     measured %8.1f     solo %8.1f\n",
              sys.predictor().predict_iops(fi, bi), t.iops(fi, bi),
              t.solo_iops(fi));
  return 0;
}

std::unique_ptr<sched::Scheduler> scheduler_from(
    const ArgParser& args, const core::Tracon& sys, bool static_batch,
    std::size_t default_queue = 8,
    const sched::Predictor* predictor_override = nullptr) {
  std::string s = args.get("scheduler", "mibs");
  auto objective = args.get("objective", "rt") == "io"
                       ? sched::Objective::kIops
                       : sched::Objective::kRuntime;
  const std::size_t queue = args.get_count("queue", default_queue);
  sched::PlacementPolicy policy;
  if (static_batch) policy.beneficial_joins_only = false;
  core::SchedulerKind kind;
  if (s == "fifo") kind = core::SchedulerKind::kFifo;
  else if (s == "mios") kind = core::SchedulerKind::kMios;
  else if (s == "mibs") kind = core::SchedulerKind::kMibs;
  else if (s == "mix") kind = core::SchedulerKind::kMix;
  else throw std::invalid_argument("unknown --scheduler '" + s + "'");
  return sys.make_scheduler(kind, objective, queue,
                            static_batch ? 0.0 : 60.0, policy,
                            predictor_override);
}

int cmd_static(const ArgParser& args) {
  core::Tracon sys = make_system(args, true);
  const std::size_t machines = args.get_count("machines", 16);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)) + 7);
  auto tasks = workload::sample_task_indices(mix_from(args), 2 * machines,
                                             rng);
  double fifo_rt = 0, fifo_io = 0;
  constexpr int kRepeats = 20;
  for (int r = 0; r < kRepeats; ++r) {
    sched::FifoScheduler fifo(500 + static_cast<unsigned>(r));
    auto o = sim::run_static(sys.perf_table(), fifo, tasks, machines);
    fifo_rt += o.total_runtime / kRepeats;
    fifo_io += o.total_iops / kRepeats;
  }
  auto sched = scheduler_from(args, sys, true);
  auto o = sim::run_static(sys.perf_table(), *sched, tasks, machines);
  std::printf("%s on %zu machines, %zu %s tasks:\n", sched->name().c_str(),
              machines, tasks.size(), args.get("mix", "medium").c_str());
  std::printf("  total runtime %10.1f s  (FIFO avg %10.1f, Speedup %.3f)\n",
              o.total_runtime, fifo_rt, fifo_rt / o.total_runtime);
  std::printf("  total IOPS    %10.1f    (FIFO avg %10.1f, IOBoost %.3f)\n",
              o.total_iops, fifo_io, o.total_iops / fifo_io);
  if (o.unplaced > 0) std::printf("  unplaced tasks: %zu\n", o.unplaced);
  return 0;
}

/// One `dynamic`, `record` or `replay` run: its configuration and
/// everything the configuration points into. ShardedConfig holds raw
/// pointers into this, so it must outlive the run — callers keep it on
/// the stack.
struct DynamicRun {
  sim::ShardedConfig cfg;
  /// --threads or --shards was given: the fingerprint and the summary
  /// then record the execution shape.
  bool shape_given = false;
  obs::Telemetry tel;
  sim::TraceRecorder trace;
  std::optional<sched::CandidateIndex> cindex;
  std::vector<std::unique_ptr<sched::PredictionCache>> caches;
  std::vector<sched::TablePredictor> family_tables;
  std::unique_ptr<sched::ConfidenceWeightedPredictor> confidence;
  std::string scheduler_name;  ///< set by the scheduler factory
};

/// The simulated workload of `dynamic` and `record`.
void workload_from(const ArgParser& args, sim::ShardedConfig& cfg) {
  cfg.machines = args.get_count("machines", 64);
  cfg.lambda_per_min = args.get_double("lambda", 100.0);
  cfg.duration_s = args.get_double("hours", 10.0) * 3600.0;
  cfg.mix = mix_from(args);
  cfg.queue_capacity = args.get_count("queue", 8);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
}

/// --threads / --shards. With neither flag the run has one shard, the
/// flat system (a tree with one manager); --threads alone keeps the
/// auto shard count.
void execution_from(const ArgParser& args, DynamicRun& run) {
  run.shape_given = args.has("threads") || args.has("shards");
  run.cfg.threads = args.get_count("threads", 1);
  run.cfg.shards = run.shape_given ? args.get_count("shards", 0) : 1;
}

/// FIFO for shard `shard`: the core factory's seed + 1, split across
/// shards the way the arrival streams split the seed.
std::unique_ptr<sched::Scheduler> fifo_for(const sim::ShardedConfig& cfg,
                                           std::size_t shard) {
  return std::make_unique<sched::FifoScheduler>(
      sim::shard_seed(cfg.seed + 1, shard, sim::effective_shards(cfg)));
}

/// Wires the rebalancing, index, telemetry, snapshot and confidence
/// flags into run.cfg and returns the run's scheduler factory. Flags
/// that are absent change nothing. `stored` marks record/replay: one
/// manager queue takes their arrival list, their stored run is the
/// metrics export, so telemetry is always on, and --decisions /
/// --spans record a log for the store.
sim::SchedulerFactory configure_run(const ArgParser& args,
                                    const core::Tracon& sys, DynamicRun& run,
                                    bool stored, std::size_t default_queue) {
  sim::ShardedConfig& cfg = run.cfg;
  TRACON_REQUIRE(!stored || sim::effective_shards(cfg) == 1,
                 "record and replay feed one manager queue from their "
                 "arrival list: the run needs one shard");
  TRACON_REQUIRE(!args.has("prof") || cfg.threads == 1,
                 "--prof requires --threads 1: the profiling accumulators "
                 "are not synchronized across shard workers");
  const bool want_confidence = args.has("confidence-weighting");
  if (want_confidence) {
    TRACON_REQUIRE(sim::effective_shards(cfg) == 1,
                   "--confidence-weighting needs one shard: the ensemble "
                   "learns online and cannot be shared across shards");
    TRACON_REQUIRE(args.get("scheduler", "mibs") == "mix",
                   "--confidence-weighting requires --scheduler mix");
    TRACON_REQUIRE(!args.has("candidate-index"),
                   "--candidate-index is built over the trained table "
                   "predictor and cannot wrap the confidence ensemble");
  }
  if (rebalance_from(args, &cfg.rebalance_cfg)) {
    cfg.rebalance = true;
    cfg.rebalance_predictor = &sys.predictor();
  }
  // Sublinear placement: one shortlist index shared read-only by every
  // shard plus a per-shard prediction cache created by the factory.
  // Placements are bit-identical to the flat scan, so no fingerprint
  // entry is stamped and exports cmp-equal against exact-scan runs.
  if (args.has("candidate-index")) {
    run.cindex.emplace(sys.predictor());
    cfg.candidate_index = &*run.cindex;
  }
  if (!stored && (args.has("trace") || args.has("events-jsonl")))
    cfg.trace = &run.trace;

  const bool want_trace = args.has("trace-out") || args.has("trace-jsonl");
  const bool want_series =
      args.has("snapshot-interval") || args.has("series-out");
  const bool want_decisions =
      args.has("decisions-out") || (stored && args.has("decisions"));
  const bool want_spans =
      args.has("spans-out") || (stored && args.has("spans"));
  if (stored || args.has("metrics-out") || args.has("metrics-csv") ||
      want_trace || want_series || want_decisions || want_spans ||
      want_confidence) {
    run.tel.tracer.set_enabled(want_trace);
    run.tel.decisions.set_enabled(want_decisions);
    run.tel.spans.set_enabled(want_spans);
    cfg.telemetry = &run.tel;
    cfg.accuracy_probe = &sys.predictor();
    cfg.accuracy_family = model::model_kind_name(sys.model_kind());
    cfg.accuracy_window = args.get_count("accuracy-window", 64);
  }
  if (want_series) {
    cfg.snapshot_interval_s = args.get_double("snapshot-interval", 600.0);
    // The engine reads a non-positive interval as "no series".
    if (!(cfg.snapshot_interval_s > 0.0))
      throw std::invalid_argument(
          "--snapshot-interval must be positive, got '" +
          args.get("snapshot-interval") + "'");
  }
  if (want_confidence) {
    const model::ModelKind kinds[] = {model::ModelKind::kWmm,
                                      model::ModelKind::kLinear,
                                      model::ModelKind::kNonlinear};
    run.family_tables.reserve(std::size(kinds));
    std::vector<sched::ConfidenceWeightedPredictor::Family> families;
    for (model::ModelKind kind : kinds) {
      run.family_tables.push_back(sys.train_predictor(kind));
      families.push_back({model::model_kind_metric_family(kind),
                          &run.family_tables.back()});
    }
    sched::ConfidenceConfig ccfg;
    ccfg.window = cfg.accuracy_window;
    run.confidence = std::make_unique<sched::ConfidenceWeightedPredictor>(
        std::move(families), ccfg);
    cfg.confidence = run.confidence.get();
  }

  const std::string kind = args.get("scheduler", "mibs");
  return [&args, &sys, &run, kind, default_queue](std::size_t shard) {
    std::unique_ptr<sched::Scheduler> s;
    if (kind == "fifo") {
      s = fifo_for(run.cfg, shard);
    } else {
      const sched::Predictor* predictor = run.confidence.get();
      if (run.cindex.has_value()) {
        run.caches.push_back(
            std::make_unique<sched::PredictionCache>(sys.predictor()));
        predictor = run.caches.back().get();
      }
      s = scheduler_from(args, sys, false, default_queue, predictor);
    }
    run.scheduler_name = s->name();
    return s;
  };
}

/// Stamps the run-identity block every metrics export carries — enough
/// to tell two stored runs apart and to reproduce either one — and
/// copies it onto the decision and span logs minus the execution-shape
/// keys: DESIGN.md §6g/§6i keep those logs byte-identical across
/// `--threads N`, so their headers must not record the worker count.
void stamp_run(DynamicRun& run, const sim::ShardedOutcome& o,
               const std::string& host, const std::string& model,
               const std::string& source) {
  obs::MetricsRegistry& m = run.tel.metrics;
  m.set_fingerprint("seed", std::to_string(run.cfg.seed));
  m.set_fingerprint("scheduler", run.scheduler_name);
  m.set_fingerprint("machines", std::to_string(run.cfg.machines));
  m.set_fingerprint("mix", workload::mix_name(run.cfg.mix));
  m.set_fingerprint("host", host);
  m.set_fingerprint("model", model);
  m.set_fingerprint("source", source);
  m.set_fingerprint("build", TRACON_GIT_DESCRIBE);
  if (run.shape_given) {
    m.set_fingerprint("threads", std::to_string(o.threads_used));
    m.set_fingerprint("shards", std::to_string(o.shards));
  }
  if (run.confidence != nullptr) m.set_fingerprint("confidence", "on");
  if (run.cfg.rebalance) {
    m.set_fingerprint("rebalance", "on");
    m.set_fingerprint("rebalance_interval",
                      obs::json_number(run.cfg.rebalance_cfg.interval_s));
  }
  for (const auto& [key, value] : m.fingerprint()) {
    if (key == "threads" || key == "shards") continue;
    run.tel.decisions.set_fingerprint(key, value);
    run.tel.spans.set_fingerprint(key, value);
  }
}

/// `tracon dynamic`: the chosen scheduler's run plus a FIFO
/// normalization baseline over the same shape. Without --threads or
/// --shards this is the flat one-shard system; DESIGN.md §7's contract
/// makes every export byte-identical across thread counts (only the
/// `threads` fingerprint entry differs).
int cmd_dynamic(const ArgParser& args) {
  core::Tracon sys = make_system(args, true);
  DynamicRun run;
  workload_from(args, run.cfg);
  execution_from(args, run);
  // The baseline takes the shape only: no instrumentation, no
  // rebalancing, no index, and its own FIFO seed stream.
  const sim::ShardedConfig base_cfg = run.cfg;
  const sim::SchedulerFactory factory =
      configure_run(args, sys, run, false, 8);
  auto base = sim::run_dynamic_sharded(
      sys.perf_table(),
      [&](std::size_t shard) { return fifo_for(base_cfg, shard); }, base_cfg);
  auto o = sim::run_dynamic_sharded(sys.perf_table(), factory, run.cfg);
  if (run.cfg.telemetry != nullptr)
    stamp_run(run, o, args.get("host", "paper"), args.get("model", "nlm"),
              "live");

  std::vector<ExportFile> files = telemetry_exports(run.tel, o.series);
  files.push_back({"trace", "task-event CSV",
                   [&](std::ostream& f) { run.trace.write_csv(f); }});
  files.push_back({"events-jsonl", "task-event JSONL",
                   [&](std::ostream& f) { run.trace.write_jsonl(f); }});
  if (!write_exports(args, files, o.threads_used)) return 1;

  const std::string shape =
      run.shape_given ? std::to_string(o.shards) + " shards, " +
                            std::to_string(o.threads_used) + " threads, "
                      : "";
  std::printf("%s: %zu machines, %slambda=%.0f/min, %.1f h, %s mix\n",
              run.scheduler_name.c_str(), run.cfg.machines, shape.c_str(),
              run.cfg.lambda_per_min, run.cfg.duration_s / 3600.0,
              workload::mix_name(run.cfg.mix).c_str());
  print_completed(o.total.completed, base.total.completed);
  std::printf("  dropped %zu   mean runtime %.1f s   mean wait %.1f s\n",
              o.total.dropped,
              o.total.total_runtime /
                  static_cast<double>(
                      std::max<std::size_t>(1, o.total.completed)),
              o.total.mean_wait_s);
  return 0;
}

std::vector<double> solo_demands(const sim::PerfTable& table) {
  std::vector<double> demands;
  demands.reserve(table.num_apps());
  for (std::size_t a = 0; a < table.num_apps(); ++a)
    demands.push_back(table.solo_runtime(a));
  return demands;
}

/// Shared tail of `record` and `replay`: run the configured workload
/// over an already-materialized arrival list, stamp the fingerprint,
/// write the exports, store the run (plus its snapshot series and logs
/// when recorded), and print a one-line summary plus the run id (the
/// id is the last token on stdout, for scripting).
int run_and_store(const ArgParser& args, const core::Tracon& sys,
                  DynamicRun& run, const sim::SchedulerFactory& factory,
                  std::span<const sim::Arrival> arrivals,
                  const std::string& host, const std::string& model,
                  const std::string& source) {
  auto o =
      sim::run_dynamic_sharded(sys.perf_table(), factory, run.cfg, arrivals);
  stamp_run(run, o, host, model, source);
  if (!write_exports(args, telemetry_exports(run.tel, o.series),
                     o.threads_used))
    return 1;

  runstore::RunStore store(args.get("store", "runs"));
  std::string id = store.add_run(
      run.tel.metrics, run.scheduler_name, source, o.series,
      run.tel.decisions.enabled() ? run.tel.decisions.str() : "",
      run.tel.spans.enabled() ? run.tel.spans.str() : "");
  std::printf("%s (%s): %zu arrivals, completed %zu, dropped %zu\n",
              run.scheduler_name.c_str(), source.c_str(), arrivals.size(),
              o.total.completed, o.total.dropped);
  std::printf("stored run %s\n", id.c_str());
  return 0;
}

int cmd_record(const ArgParser& args) {
  core::Tracon sys = make_system(args, true);
  DynamicRun run;
  const sim::ShardedConfig& cfg = run.cfg;
  workload_from(args, run.cfg);
  execution_from(args, run);
  const sim::SchedulerFactory factory = configure_run(args, sys, run, true, 8);

  replay::ArrivalTraceHeader header;
  header.version = obs::kJsonlSchemaVersion;
  header.seed = cfg.seed;
  header.host = args.get("host", "paper");
  // CLI token, not the display name: `replay` feeds this back through
  // --model parsing.
  header.model = args.get("model", "nlm");
  header.mix = workload::mix_name(cfg.mix);
  header.lambda_per_min = cfg.lambda_per_min;
  header.duration_s = cfg.duration_s;
  header.machines = cfg.machines;
  header.queue_capacity = cfg.queue_capacity;
  header.num_apps = sys.perf_table().num_apps();

  const std::string trace_path = args.get("out", "arrivals.jsonl");
  std::ofstream trace_file(trace_path, std::ios::binary);
  if (!trace_file) {
    std::fprintf(stderr, "cannot open trace file '%s'\n", trace_path.c_str());
    return 1;
  }
  replay::TraceWriter writer(trace_file, header);
  sim::PoissonArrivalSource poisson(cfg.lambda_per_min, cfg.duration_s,
                                    cfg.mix, cfg.mix_stddev, cfg.seed);
  replay::RecordingArrivalSource recording(poisson, writer,
                                           solo_demands(sys.perf_table()));
  // Materialize once through the tee; both the trace file and the run
  // below see the same stream.
  std::vector<sim::Arrival> arrivals = recording.arrivals(header.num_apps);
  trace_file.close();
  std::printf("trace (%zu arrivals) written to %s\n", writer.written(),
              trace_path.c_str());

  return run_and_store(args, sys, run, factory, arrivals, header.host,
                       header.model, "live");
}

int cmd_replay(const ArgParser& args) {
  if (!args.has("trace")) {
    std::fprintf(stderr, "replay requires --trace FILE\n");
    return 2;
  }
  std::ifstream in(args.get("trace"), std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open trace file '%s'\n",
                 args.get("trace").c_str());
    return 1;
  }
  replay::ArrivalTrace trace = replay::load_arrival_trace(in);
  const replay::ArrivalTraceHeader header = trace.header;

  // Rebuild the recorded configuration; flags override the header.
  const std::string host = args.get("host", header.host);
  core::TraconConfig tcfg;
  tcfg.host = host_by_name(host);
  tcfg.seed = header.seed;
  const std::string model = args.get("model", header.model);
  core::Tracon sys(tcfg);
  sys.register_applications(workload::paper_benchmarks());
  sys.train(model_by_name(model));

  DynamicRun run;
  sim::ShardedConfig& cfg = run.cfg;
  cfg.machines = args.get_count("machines", header.machines);
  cfg.lambda_per_min = header.lambda_per_min;
  cfg.duration_s = header.duration_s;
  cfg.mix = mix_by_name(header.mix);
  cfg.queue_capacity = args.get_count("queue", header.queue_capacity);
  cfg.seed = header.seed;
  execution_from(args, run);
  const sim::SchedulerFactory factory =
      configure_run(args, sys, run, true, header.queue_capacity);

  replay::TraceArrivalSource source(std::move(trace));
  if (!source.validate_demands(solo_demands(sys.perf_table()))) {
    std::fprintf(stderr,
                 "warning: recorded service demands do not match this host's "
                 "perf table; replaying the recorded arrival stream anyway\n");
  }
  std::vector<sim::Arrival> arrivals =
      source.arrivals(sys.perf_table().num_apps());

  return run_and_store(args, sys, run, factory, arrivals, host, model,
                       "trace");
}

int cmd_runs(const ArgParser& args) {
  runstore::RunStore store(args.get("store", "runs"));
  runstore::RunStore::LoadResult loaded = store.load();
  for (const std::string& w : loaded.warnings)
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  TableWriter out({"id", "scheduler", "source", "seed", "machines", "mix"});
  for (const runstore::RunRecord& r : loaded.runs) {
    auto fp = [&](const char* key) {
      auto it = r.fingerprint.find(key);
      return it != r.fingerprint.end() ? it->second : std::string("-");
    };
    out.add_row({r.id, r.scheduler, r.source, fp("seed"), fp("machines"),
                 fp("mix")});
  }
  emit(out, args);
  return 0;
}

int cmd_report(const ArgParser& args) {
  if (args.positional().size() < 3) {
    std::fprintf(stderr, "usage: tracon report <run-id-a> <run-id-b> "
                         "[--store DIR] [--json]\n");
    return 2;
  }
  runstore::RunStore store(args.get("store", "runs"));
  auto resolve = [&](const std::string& prefix) {
    auto rec = store.find(prefix);
    if (!rec.has_value()) {
      throw std::invalid_argument("no run matches id prefix '" + prefix +
                                  "' in store '" + args.get("store", "runs") +
                                  "'");
    }
    return *rec;
  };
  runstore::RunRecord ra = resolve(args.positional()[1]);
  runstore::RunRecord rb = resolve(args.positional()[2]);
  obs::JsonValue da = obs::parse_json(store.read_metrics(ra));
  obs::JsonValue db = obs::parse_json(store.read_metrics(rb));
  runstore::RunReport report = runstore::diff_runs(
      runstore::summarize_metrics(da), runstore::summarize_metrics(db),
      ra.id + " (" + ra.scheduler + ", " + ra.source + ")",
      rb.id + " (" + rb.scheduler + ", " + rb.source + ")");
  if (ra.has_series() && rb.has_series()) {
    obs::MetricsSeries sa = obs::parse_metrics_series(store.read_series(ra));
    obs::MetricsSeries sb = obs::parse_metrics_series(store.read_series(rb));
    runstore::diff_series(sa, sb, &report);
  }
  if (ra.has_decisions() && rb.has_decisions()) {
    obs::AttributionReport aa =
        obs::attribute(obs::parse_decision_log(store.read_decisions(ra)));
    obs::AttributionReport ab =
        obs::attribute(obs::parse_decision_log(store.read_decisions(rb)));
    runstore::diff_decisions(aa, ab, &report);
  }
  if (ra.has_spans() && rb.has_spans()) {
    obs::BreakdownReport ba =
        obs::breakdown(obs::parse_span_log(store.read_spans(ra)));
    obs::BreakdownReport bb =
        obs::breakdown(obs::parse_span_log(store.read_spans(rb)));
    runstore::diff_breakdown(ba, bb, &report);
  }
  if (args.has("json")) {
    runstore::write_report_json(std::cout, report);
  } else {
    runstore::write_report_text(std::cout, report);
  }
  return 0;
}

/// Renders a tracon.metrics_series document. The series comes either
/// from a file (--series FILE) or from a stored run's series object
/// (positional run-id prefix, resolved against --store).
int cmd_timeline(const ArgParser& args) {
  std::string content;
  std::string label;
  if (args.has("series")) {
    const std::string path = args.get("series");
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open series file '%s'\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    content = buf.str();
    label = path;
  } else if (args.positional().size() >= 2) {
    runstore::RunStore store(args.get("store", "runs"));
    auto rec = store.find(args.positional()[1]);
    if (!rec.has_value()) {
      std::fprintf(stderr, "no run matches id prefix '%s' in store '%s'\n",
                   args.positional()[1].c_str(),
                   args.get("store", "runs").c_str());
      return 1;
    }
    if (!rec->has_series()) {
      std::fprintf(stderr,
                   "run %s has no stored metrics series (record it with "
                   "--snapshot-interval)\n",
                   rec->id.c_str());
      return 1;
    }
    content = store.read_series(*rec);
    label = rec->id;
  } else {
    std::fprintf(stderr,
                 "usage: tracon timeline (--series FILE | <run-id-prefix> "
                 "[--store DIR]) [--metric SUBSTR] [--json]\n");
    return 2;
  }

  obs::MetricsSeries series = obs::parse_metrics_series(content);
  const std::string filter = args.get("metric", "");
  auto keep = [&](const std::string& name) {
    return filter.empty() || name.find(filter) != std::string::npos;
  };
  std::set<std::string> counter_names, gauge_names, accuracy_names;
  for (const obs::SeriesWindow& w : series.windows) {
    for (const auto& [name, v] : w.counters)
      if (keep(name)) counter_names.insert(name);
    for (const auto& [name, v] : w.gauges)
      if (keep(name)) gauge_names.insert(name);
    for (const auto& [name, v] : w.accuracy)
      if (keep(name)) accuracy_names.insert(name);
  }

  if (args.has("json")) {
    std::ostream& os = std::cout;
    os << "{\n  \"schema\": \"" << obs::kMetricsSeriesSchema
       << "\", \"version\": " << series.version
       << ", \"interval_s\": " << obs::format_double(series.interval_s)
       << ",\n  \"windows\": [";
    bool first_window = true;
    for (const obs::SeriesWindow& w : series.windows) {
      os << (first_window ? "\n" : ",\n") << "    {\"window\": " << w.index
         << ", \"t_start\": " << obs::format_double(w.t_start)
         << ", \"t_end\": " << obs::format_double(w.t_end);
      first_window = false;
      auto scalar_map = [&](const char* key,
                            const std::map<std::string, double>& m) {
        os << ", \"" << key << "\": {";
        bool first = true;
        for (const auto& [name, value] : m) {
          if (!keep(name)) continue;
          os << (first ? "" : ", ") << "\"" << obs::json_escape(name)
             << "\": " << obs::format_double(value);
          first = false;
        }
        os << "}";
      };
      scalar_map("counters", w.counters);
      scalar_map("gauges", w.gauges);
      os << ", \"accuracy\": {";
      bool first_acc = true;
      for (const auto& [name, acc] : w.accuracy) {
        if (!keep(name)) continue;
        os << (first_acc ? "" : ", ") << "\"" << obs::json_escape(name)
           << "\": {\"count\": " << acc.count << ", \"total\": " << acc.total
           << ", \"mean_abs\": " << obs::format_double(acc.mean_abs)
           << ", \"p50\": " << obs::format_double(acc.p50)
           << ", \"p90\": " << obs::format_double(acc.p90) << "}";
        first_acc = false;
      }
      os << "}}";
    }
    os << (first_window ? "" : "\n  ") << "]\n}\n";
    return 0;
  }

  std::printf("metrics series %s: %zu windows, interval %s s\n", label.c_str(),
              series.windows.size(),
              obs::format_double(series.interval_s).c_str());
  // Counter columns carry a leading '+': they are per-window deltas,
  // not running totals.
  std::vector<std::string> header = {"window", "t_end"};
  for (const std::string& name : counter_names) header.push_back("+" + name);
  for (const std::string& name : gauge_names) header.push_back(name);
  for (const std::string& name : accuracy_names)
    header.push_back(name + "|err");
  TableWriter out(header);
  for (const obs::SeriesWindow& w : series.windows) {
    std::vector<std::string> row = {std::to_string(w.index), fmt(w.t_end, 1)};
    for (const std::string& name : counter_names) {
      auto it = w.counters.find(name);
      row.push_back(fmt(it != w.counters.end() ? it->second : 0.0, 0));
    }
    for (const std::string& name : gauge_names) {
      auto it = w.gauges.find(name);
      row.push_back(fmt(it != w.gauges.end() ? it->second : 0.0, 3));
    }
    for (const std::string& name : accuracy_names) {
      auto it = w.accuracy.find(name);
      row.push_back(fmt(it != w.accuracy.end() ? it->second.mean_abs : 0.0,
                        3));
    }
    out.add_row(std::move(row));
  }
  emit(out, args);
  return 0;
}

/// Shared source resolution for `explain` and `attribution`: the
/// decision log comes either from a file (--decisions FILE) or from a
/// stored run's decisions object (run-id prefix at positional `idx`,
/// resolved against --store). Returns 0 and fills doc/label, 1 after
/// printing an error, or 2 when neither source was given (the caller
/// prints its usage line).
int load_decision_doc(const ArgParser& args, std::size_t idx,
                      obs::DecisionDoc* doc, std::string* label) {
  std::string content;
  if (args.has("decisions")) {
    const std::string path = args.get("decisions");
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open decision log '%s'\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    content = buf.str();
    *label = path;
  } else if (args.positional().size() > idx) {
    runstore::RunStore store(args.get("store", "runs"));
    auto rec = store.find(args.positional()[idx]);
    if (!rec.has_value()) {
      std::fprintf(stderr, "no run matches id prefix '%s' in store '%s'\n",
                   args.positional()[idx].c_str(),
                   args.get("store", "runs").c_str());
      return 1;
    }
    if (!rec->has_decisions()) {
      std::fprintf(stderr,
                   "run %s has no stored decision log (record it with "
                   "--decisions)\n",
                   rec->id.c_str());
      return 1;
    }
    content = store.read_decisions(*rec);
    *label = rec->id;
  } else {
    return 2;
  }
  *doc = obs::parse_decision_log(content);
  return 0;
}

/// Same resolution for the span log (`breakdown`, `critical-path`):
/// --spans FILE, or a stored run's spans object (run-id prefix at
/// positional `idx`). Same return convention as load_decision_doc.
int load_span_doc(const ArgParser& args, std::size_t idx, obs::SpanDoc* doc,
                  std::string* label) {
  std::string content;
  if (args.has("spans")) {
    const std::string path = args.get("spans");
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open span log '%s'\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    content = buf.str();
    *label = path;
  } else if (args.positional().size() > idx) {
    runstore::RunStore store(args.get("store", "runs"));
    auto rec = store.find(args.positional()[idx]);
    if (!rec.has_value()) {
      std::fprintf(stderr, "no run matches id prefix '%s' in store '%s'\n",
                   args.positional()[idx].c_str(),
                   args.get("store", "runs").c_str());
      return 1;
    }
    if (!rec->has_spans()) {
      std::fprintf(stderr,
                   "run %s has no stored span log (record it with --spans)\n",
                   rec->id.c_str());
      return 1;
    }
    content = store.read_spans(*rec);
    *label = rec->id;
  } else {
    return 2;
  }
  *doc = obs::parse_span_log(content);
  return 0;
}

/// `tracon explain <task-id>`: renders one task's decision record —
/// every candidate slot the scheduler scanned, what each model family
/// predicted for it, the confidence weights in force, and the margin —
/// joined to the realized outcome when the task completed.
int cmd_explain(const ArgParser& args) {
  const char* kUsage =
      "usage: tracon explain <task-id> (--decisions FILE [--spans FILE] | "
      "<run-id-prefix> [--store DIR])\n";
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  std::uint64_t task = 0;
  try {
    std::size_t pos = 0;
    task = std::stoull(args.positional()[1], &pos);
    TRACON_REQUIRE(pos == args.positional()[1].size(),
                   "trailing junk in task id");
  } catch (const std::exception&) {
    std::fprintf(stderr, "task id '%s' is not a number\n",
                 args.positional()[1].c_str());
    return 2;
  }
  obs::DecisionDoc doc;
  std::string label;
  if (int rc = load_decision_doc(args, 2, &doc, &label); rc != 0) {
    if (rc == 2) std::fprintf(stderr, "%s", kUsage);
    return rc;
  }

  // Last record wins, matching the attribution engine's join: a task
  // id appears once per run, but a merged or hand-edited log should
  // explain the same record attribute() would use.
  const obs::DecisionEvent* decision = nullptr;
  const obs::DecisionEvent* outcome = nullptr;
  std::vector<const obs::DecisionEvent*> migrations;
  for (const obs::DecisionEvent& e : doc.events) {
    if (e.task != task) continue;
    if (e.kind == obs::DecisionEvent::Kind::kDecision) decision = &e;
    else if (e.kind == obs::DecisionEvent::Kind::kMigration)
      migrations.push_back(&e);
    else outcome = &e;
  }
  if (decision == nullptr) {
    std::fprintf(stderr, "no decision recorded for task %llu in %s\n",
                 static_cast<unsigned long long>(task), label.c_str());
    return 1;
  }

  std::printf("task %llu (%s) placed by %s at t=%s s  [%s]\n",
              static_cast<unsigned long long>(task),
              app_class_name(decision->app).c_str(),
              decision->scheduler.c_str(),
              fmt(decision->time_s, 1).c_str(), label.c_str());
  std::printf("  objective %s, %zu candidate slots, winning margin %s\n",
              decision->objective.c_str(), decision->candidates.size(),
              fmt(decision->margin, 2).c_str());
  if (decision->machine != obs::DecisionEvent::kNoMachine)
    std::printf("  bound to machine %zu\n", decision->machine);
  std::printf("  model families:");
  for (std::size_t f = 0; f < decision->families.size(); ++f) {
    double w = f < decision->weights.size() ? decision->weights[f] : 0.0;
    std::printf(" %s (weight %s)", decision->families[f].c_str(),
                fmt(w, 3).c_str());
  }
  std::printf("\n  candidate slots (* = chosen; score is the predicted %s "
              "if placed there):\n",
              decision->objective.c_str());
  std::vector<std::string> header = {"slot", "next-to", "score"};
  for (const std::string& fam : decision->families) header.push_back(fam);
  TableWriter table(header);
  for (std::size_t i = 0; i < decision->candidates.size(); ++i) {
    const obs::DecisionCandidate& c = decision->candidates[i];
    std::vector<std::string> row;
    row.push_back((i == decision->chosen ? "* " : "  ") + std::to_string(i));
    row.push_back(neighbour_name(c.neighbour));
    row.push_back(fmt(c.score, 2));
    for (std::size_t f = 0; f < decision->families.size(); ++f)
      row.push_back(f < c.by_family.size() ? fmt(c.by_family[f], 2) : "-");
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::printf("  predicted: runtime %s s, IOPS %s\n",
              fmt(decision->predicted_runtime_s, 1).c_str(),
              fmt(decision->predicted_iops, 1).c_str());
  for (const obs::DecisionEvent* m : migrations) {
    std::printf("  migrated:  machine %zu (next to %s) -> machine %zu "
                "(next to %s) at t=%s s\n",
                m->from_machine, neighbour_name(m->from_neighbour).c_str(),
                m->machine, neighbour_name(m->neighbour).c_str(),
                fmt(m->time_s, 1).c_str());
    std::printf("             stay %s s vs move %s s; cost %s s "
                "(%s s downtime + %s s copy), margin %s s\n",
                fmt(m->predicted_stay_s, 1).c_str(),
                fmt(m->predicted_move_s, 1).c_str(),
                fmt(m->cost_s, 2).c_str(), fmt(m->downtime_s, 2).c_str(),
                fmt(m->copy_s, 2).c_str(), fmt(m->margin, 2).c_str());
  }
  if (outcome != nullptr) {
    double slowdown = outcome->solo_runtime_s > 0.0
                          ? outcome->runtime_s / outcome->solo_runtime_s
                          : 0.0;
    std::printf("  outcome:   runtime %s s (rel error %s), IOPS %s (rel "
                "error %s)\n",
                fmt(outcome->runtime_s, 1).c_str(),
                fmt(obs::relative_error(decision->predicted_runtime_s,
                                        outcome->runtime_s), 3).c_str(),
                fmt(outcome->iops, 1).c_str(),
                fmt(obs::relative_error(decision->predicted_iops,
                                        outcome->iops), 3).c_str());
    std::printf("  realized:  slowdown %sx next to %s, completed at t=%s s\n",
                fmt(slowdown, 2).c_str(),
                neighbour_name(outcome->neighbour).c_str(),
                fmt(outcome->time_s, 1).c_str());
  } else {
    std::printf("  outcome:   task did not complete within the run\n");
  }

  // Lifecycle timeline alongside the decision: where the seconds went
  // once the placement was made. Loaded when a span source is at hand —
  // --spans FILE, or the same stored run carrying a spans object;
  // silently absent otherwise (the decision record stands alone).
  obs::SpanDoc spans;
  bool have_spans = false;
  if (args.has("spans")) {
    std::string span_label;
    if (int rc = load_span_doc(args, args.positional().size(), &spans,
                               &span_label);
        rc != 0)
      return rc;
    have_spans = true;
  } else if (!args.has("decisions") && args.positional().size() > 2) {
    runstore::RunStore store(args.get("store", "runs"));
    auto rec = store.find(args.positional()[2]);
    if (rec.has_value() && rec->has_spans()) {
      spans = obs::parse_span_log(store.read_spans(*rec));
      have_spans = true;
    }
  }
  if (have_spans) {
    obs::SpanDoc mine;
    mine.version = spans.version;
    for (const obs::SpanEvent& e : spans.events)
      if (e.task == task) mine.events.push_back(e);
    if (!mine.events.empty()) {
      std::printf("\n  lifecycle (tracon.spans; speed = progress per wall "
                  "second):\n");
      TableWriter tl({"t0", "t1", "dur_s", "state", "machine", "next-to",
                     "speed"});
      for (const obs::SpanEvent& e : mine.events) {
        std::string state = span_state_name(e.kind);
        bool scored = e.kind == obs::SpanEvent::Kind::kRunning ||
                      e.kind == obs::SpanEvent::Kind::kMigrationCopy;
        tl.add_row({fmt(e.t0_s, 1), fmt(e.t1_s, 1), fmt(e.t1_s - e.t0_s, 1),
                    state,
                    e.machine != obs::SpanEvent::kNoMachine
                        ? std::to_string(e.machine)
                        : "-",
                    scored ? neighbour_name(e.neighbour) : "-",
                    scored ? fmt(e.factor * e.copy_factor, 3) : "-"});
      }
      tl.print(std::cout);
      obs::BreakdownReport mine_report = obs::breakdown(mine);
      if (!mine_report.rows.empty()) {
        const obs::TaskBreakdown& row = mine_report.rows.front();
        std::printf("  accounted: wait %s s + solo %s s + interference %s s "
                    "+ migration %s s = %s s end-to-end\n",
                    fmt(row.wait_s, 1).c_str(), fmt(row.solo_s, 1).c_str(),
                    fmt(row.interference_s, 1).c_str(),
                    fmt(row.migration_s, 1).c_str(),
                    fmt(row.end_to_end_s(), 1).c_str());
      }
    }
  }
  return 0;
}

/// `tracon attribution`: reduces a whole run's decision log to the
/// joined summary, the per-co-location-pair realized-slowdown heatmap,
/// and the worst-mispredicts table.
int cmd_attribution(const ArgParser& args) {
  const char* kUsage =
      "usage: tracon attribution (--decisions FILE | <run-id-prefix> "
      "[--store DIR]) [--top N] [--json]\n";
  obs::DecisionDoc doc;
  std::string label;
  if (int rc = load_decision_doc(args, 1, &doc, &label); rc != 0) {
    if (rc == 2) std::fprintf(stderr, "%s", kUsage);
    return rc;
  }
  obs::AttributionReport report = obs::attribute(doc);
  const std::size_t top = args.get_count("top", 10);
  const std::size_t shown = std::min(top, report.mispredict_order.size());

  if (args.has("json")) {
    std::ostream& os = std::cout;
    os << "{\n  \"schema\": \"tracon.attribution\", \"version\": 1,\n"
       << "  \"decisions\": " << report.decisions
       << ", \"outcomes\": " << report.outcomes
       << ", \"joined\": " << report.joined
       << ",\n  \"mean_candidates\": "
       << obs::json_number(report.mean_candidates)
       << ", \"mean_abs_runtime_error\": "
       << obs::json_number(report.mean_abs_runtime_error)
       << ", \"mean_abs_iops_error\": "
       << obs::json_number(report.mean_abs_iops_error)
       << ",\n  \"pairs\": [";
    bool first = true;
    for (const auto& [key, cell] : report.pairs) {
      os << (first ? "\n" : ",\n") << "    {\"app\": \""
         << obs::json_escape(app_class_name(key.first))
         << "\", \"neighbour\": \""
         << obs::json_escape(neighbour_name(key.second))
         << "\", \"count\": " << cell.count
         << ", \"mean_slowdown\": " << obs::json_number(cell.mean_slowdown())
         << ", \"mean_abs_runtime_error\": "
         << obs::json_number(cell.mean_abs_runtime_error()) << "}";
      first = false;
    }
    os << (first ? "" : "\n  ") << "],\n  \"mispredicts\": [";
    first = true;
    for (std::size_t i = 0; i < shown; ++i) {
      const obs::AttributionRow& row =
          report.rows[report.mispredict_order[i]];
      os << (first ? "\n" : ",\n") << "    {\"task\": " << row.task
         << ", \"app\": \"" << obs::json_escape(app_class_name(row.app))
         << "\", \"neighbour\": \""
         << obs::json_escape(neighbour_name(row.neighbour))
         << "\", \"predicted_runtime_s\": "
         << obs::json_number(row.predicted_runtime_s)
         << ", \"runtime_s\": " << obs::json_number(row.runtime_s)
         << ", \"runtime_error\": " << obs::json_number(row.runtime_error)
         << ", \"margin\": " << obs::json_number(row.margin)
         << ", \"candidates\": " << row.candidates << "}";
      first = false;
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
    return 0;
  }

  std::printf("decision log %s: %llu decisions, %llu outcomes, %llu joined\n",
              label.c_str(),
              static_cast<unsigned long long>(report.decisions),
              static_cast<unsigned long long>(report.outcomes),
              static_cast<unsigned long long>(report.joined));
  std::printf("  mean candidate-set size %s   mean |runtime rel error| %s   "
              "mean |iops rel error| %s\n",
              fmt(report.mean_candidates, 2).c_str(),
              fmt(report.mean_abs_runtime_error, 3).c_str(),
              fmt(report.mean_abs_iops_error, 3).c_str());

  if (!report.pairs.empty()) {
    // Heatmap rows are the placed task's app class, columns the
    // co-runner it landed next to ("empty" first, the map's order).
    std::set<std::size_t> apps;
    std::set<std::optional<std::size_t>> neighbours;
    for (const auto& [key, cell] : report.pairs) {
      apps.insert(key.first);
      neighbours.insert(key.second);
    }
    std::printf("\nmean realized slowdown by (app, co-runner):\n");
    std::vector<std::string> header = {"app\\next-to"};
    for (const auto& n : neighbours) header.push_back(neighbour_name(n));
    TableWriter heat(header);
    for (std::size_t app : apps) {
      std::vector<std::string> row = {app_class_name(app)};
      for (const auto& n : neighbours) {
        auto it = report.pairs.find({app, n});
        row.push_back(it != report.pairs.end()
                          ? fmt(it->second.mean_slowdown(), 2)
                          : "-");
      }
      heat.add_row(std::move(row));
    }
    heat.print(std::cout);
  }

  if (shown > 0) {
    std::printf("\nworst mispredicts (by |runtime rel error|):\n");
    TableWriter worst({"task", "app", "next-to", "pred_s", "actual_s",
                       "rel_err", "margin", "cands"});
    for (std::size_t i = 0; i < shown; ++i) {
      const obs::AttributionRow& row =
          report.rows[report.mispredict_order[i]];
      worst.add_row({std::to_string(row.task), app_class_name(row.app),
                     neighbour_name(row.neighbour),
                     fmt(row.predicted_runtime_s, 1), fmt(row.runtime_s, 1),
                     fmt(row.runtime_error, 3), fmt(row.margin, 2),
                     std::to_string(row.candidates)});
    }
    worst.print(std::cout);
  }
  return 0;
}

/// `tracon breakdown`: reduces a whole run's span log to the latency
/// decomposition — where every completed task's seconds went, overall
/// and per app class (and per completion window with --window S).
int cmd_breakdown(const ArgParser& args) {
  const char* kUsage =
      "usage: tracon breakdown (--spans FILE | <run-id-prefix> "
      "[--store DIR]) [--window S] [--json]\n";
  obs::SpanDoc doc;
  std::string label;
  if (int rc = load_span_doc(args, 1, &doc, &label); rc != 0) {
    if (rc == 2) std::fprintf(stderr, "%s", kUsage);
    return rc;
  }
  const double window_s = args.get_double("window", 0.0);
  obs::BreakdownReport report = obs::breakdown(doc, window_s);

  if (args.has("json")) {
    std::ostream& os = std::cout;
    auto cell = [&](const obs::BreakdownCell& c) {
      os << "{\"tasks\": " << c.tasks
         << ", \"wait_s\": " << obs::json_number(c.wait_s)
         << ", \"solo_s\": " << obs::json_number(c.solo_s)
         << ", \"interference_s\": " << obs::json_number(c.interference_s)
         << ", \"migration_s\": " << obs::json_number(c.migration_s)
         << ", \"end_to_end_s\": " << obs::json_number(c.end_to_end_s())
         << "}";
    };
    os << "{\n  \"schema\": \"tracon.breakdown\", \"version\": 1,\n"
       << "  \"tasks\": " << report.rows.size()
       << ", \"incomplete\": " << report.incomplete
       << ", \"window_s\": " << obs::json_number(report.window_s)
       << ",\n  \"total\": ";
    cell(report.total);
    os << ",\n  \"by_app\": [";
    bool first = true;
    for (const auto& [app, c] : report.by_app) {
      os << (first ? "\n" : ",\n") << "    {\"app\": \""
         << obs::json_escape(app_class_name(app)) << "\", \"cell\": ";
      cell(c);
      os << "}";
      first = false;
    }
    os << (first ? "" : "\n  ") << "],\n  \"by_window\": [";
    first = true;
    for (const auto& [w, c] : report.by_window) {
      os << (first ? "\n" : ",\n") << "    {\"window\": " << w
         << ", \"t_start\": "
         << obs::json_number(static_cast<double>(w) * report.window_s)
         << ", \"cell\": ";
      cell(c);
      os << "}";
      first = false;
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
    return 0;
  }

  const double e2e = report.total.end_to_end_s();
  auto share = [&](double v) {
    return e2e > 0.0 ? fmt(100.0 * v / e2e, 1) + "%" : std::string("-");
  };
  std::printf("span log %s: %zu completed tasks, %llu incomplete at the "
              "horizon\n",
              label.c_str(), report.rows.size(),
              static_cast<unsigned long long>(report.incomplete));
  std::printf("  end-to-end %s s = wait %s s (%s) + solo %s s (%s) + "
              "interference %s s (%s) + migration %s s (%s)\n",
              fmt(e2e, 1).c_str(), fmt(report.total.wait_s, 1).c_str(),
              share(report.total.wait_s).c_str(),
              fmt(report.total.solo_s, 1).c_str(),
              share(report.total.solo_s).c_str(),
              fmt(report.total.interference_s, 1).c_str(),
              share(report.total.interference_s).c_str(),
              fmt(report.total.migration_s, 1).c_str(),
              share(report.total.migration_s).c_str());

  auto mean = [](const obs::BreakdownCell& c, double v) {
    return c.tasks > 0 ? v / static_cast<double>(c.tasks) : 0.0;
  };
  if (!report.by_app.empty()) {
    std::printf("\nmean seconds per task by app class:\n");
    TableWriter by_app({"app", "tasks", "wait", "solo", "interference",
                        "migration", "end-to-end"});
    for (const auto& [app, c] : report.by_app) {
      by_app.add_row({app_class_name(app), std::to_string(c.tasks),
                      fmt(mean(c, c.wait_s), 1), fmt(mean(c, c.solo_s), 1),
                      fmt(mean(c, c.interference_s), 1),
                      fmt(mean(c, c.migration_s), 1),
                      fmt(mean(c, c.end_to_end_s()), 1)});
    }
    emit(by_app, args);
  }
  if (!report.by_window.empty()) {
    std::printf("\nmean seconds per task by completion window (%s s):\n",
                fmt(report.window_s, 0).c_str());
    TableWriter by_win({"window", "t_start", "tasks", "wait", "solo",
                        "interference", "migration"});
    for (const auto& [w, c] : report.by_window) {
      by_win.add_row({std::to_string(w),
                      fmt(static_cast<double>(w) * report.window_s, 0),
                      std::to_string(c.tasks), fmt(mean(c, c.wait_s), 1),
                      fmt(mean(c, c.solo_s), 1),
                      fmt(mean(c, c.interference_s), 1),
                      fmt(mean(c, c.migration_s), 1)});
    }
    emit(by_win, args);
  }
  return 0;
}

/// `tracon critical-path`: the chain of tasks that bounds the run's
/// last completion — each link waited on the previous link's machine
/// time, so shortening any of them moves the makespan.
int cmd_critical_path(const ArgParser& args) {
  const char* kUsage =
      "usage: tracon critical-path (--spans FILE | <run-id-prefix> "
      "[--store DIR]) [--json]\n";
  obs::SpanDoc doc;
  std::string label;
  if (int rc = load_span_doc(args, 1, &doc, &label); rc != 0) {
    if (rc == 2) std::fprintf(stderr, "%s", kUsage);
    return rc;
  }
  std::vector<obs::CriticalPathEntry> chain = obs::critical_path(doc);

  if (args.has("json")) {
    std::ostream& os = std::cout;
    os << "{\n  \"schema\": \"tracon.critical_path\", \"version\": 1,\n"
       << "  \"links\": [";
    bool first = true;
    for (const obs::CriticalPathEntry& e : chain) {
      os << (first ? "\n" : ",\n") << "    {\"task\": " << e.task
         << ", \"app\": \"" << obs::json_escape(app_class_name(e.app))
         << "\", \"machine\": ";
      if (e.machine != obs::SpanEvent::kNoMachine) os << e.machine;
      else os << "\"-\"";
      os << ", \"enqueue_s\": " << obs::json_number(e.enqueue_s)
         << ", \"start_s\": " << obs::json_number(e.start_s)
         << ", \"complete_s\": " << obs::json_number(e.complete_s)
         << ", \"wait_s\": " << obs::json_number(e.wait_s) << "}";
      first = false;
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
    return 0;
  }

  if (chain.empty()) {
    std::printf("span log %s: no completed task, no critical path\n",
                label.c_str());
    return 0;
  }
  std::printf("critical path %s: %zu links, makespan ends at t=%s s with "
              "task %llu\n",
              label.c_str(), chain.size(),
              fmt(chain.back().complete_s, 1).c_str(),
              static_cast<unsigned long long>(chain.back().task));
  TableWriter out({"task", "app", "machine", "enqueue", "start", "complete",
                   "wait_s"});
  for (const obs::CriticalPathEntry& e : chain) {
    out.add_row({std::to_string(e.task), app_class_name(e.app),
                 e.machine != obs::SpanEvent::kNoMachine
                     ? std::to_string(e.machine)
                     : "-",
                 fmt(e.enqueue_s, 1), fmt(e.start_s, 1),
                 fmt(e.complete_s, 1), fmt(e.wait_s, 1)});
  }
  emit(out, args);
  return 0;
}

int cmd_profile(const ArgParser& args) {
  core::Tracon sys = make_system(args, false);
  std::string path = args.get("out", "perf_table.csv");
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 1;
  }
  sys.perf_table().save_csv(f);
  std::printf("pairwise perf table (%zu apps, host %s) written to %s\n",
              sys.perf_table().num_apps(), args.get("host", "paper").c_str(),
              path.c_str());
  return 0;
}

int cmd_hierarchy(const ArgParser& args) {
  core::Tracon sys = make_system(args, true);
  sim::HierarchyConfig cfg;
  cfg.managers = args.get_count("managers", 4);
  cfg.machines_per_manager = args.get_count("machines", 16);
  cfg.lambda_per_min = args.get_double("lambda", 100.0);
  cfg.duration_s = args.get_double("hours", 10.0) * 3600.0;
  cfg.mix = mix_from(args);
  cfg.queue_capacity = args.get_count("queue", 8);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  cfg.routing = args.get("routing", "rr") == "random"
                    ? sim::Routing::kRandom
                    : sim::Routing::kRoundRobin;
  cfg.threads = args.get_count("threads", 1);

  auto outcome = sim::run_hierarchical(
      sys.perf_table(),
      [&](std::size_t) {
        return scheduler_from(args, sys, false);
      },
      cfg);
  std::printf("%zu managers x %zu machines, lambda=%.0f/min total, %s mix\n",
              cfg.managers, cfg.machines_per_manager, cfg.lambda_per_min,
              workload::mix_name(cfg.mix).c_str());
  std::printf("  completed %zu   dropped %zu   imbalance %.3f\n",
              outcome.total.completed, outcome.total.dropped,
              outcome.completion_imbalance());
  for (std::size_t m = 0; m < outcome.per_manager.size(); ++m) {
    const auto& pm = outcome.per_manager[m];
    std::printf("  manager %zu: completed %zu dropped %zu\n", m,
                pm.completed, pm.dropped);
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: tracon "
               "<table1|matrix|predict|static|dynamic|hierarchy|profile|"
               "record|replay|runs|report|timeline|explain|attribution|"
               "breakdown|critical-path> "
               "[flags]\n(see the header of tools/tracon_cli.cpp)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    if (args.positional().empty()) return usage();
    if (args.has("prof")) tracon::obs::ProfRegistry::global().set_enabled(true);
    const std::string& cmd = args.positional()[0];
    int rc;
    if (cmd == "table1") rc = cmd_table1(args);
    else if (cmd == "matrix") rc = cmd_matrix(args);
    else if (cmd == "predict") rc = cmd_predict(args);
    else if (cmd == "static") rc = cmd_static(args);
    else if (cmd == "dynamic") rc = cmd_dynamic(args);
    else if (cmd == "hierarchy") rc = cmd_hierarchy(args);
    else if (cmd == "profile") rc = cmd_profile(args);
    else if (cmd == "record") rc = cmd_record(args);
    else if (cmd == "replay") rc = cmd_replay(args);
    else if (cmd == "runs") rc = cmd_runs(args);
    else if (cmd == "report") rc = cmd_report(args);
    else if (cmd == "timeline") rc = cmd_timeline(args);
    else if (cmd == "explain") rc = cmd_explain(args);
    else if (cmd == "attribution") rc = cmd_attribution(args);
    else if (cmd == "breakdown") rc = cmd_breakdown(args);
    else if (cmd == "critical-path") rc = cmd_critical_path(args);
    else return usage();
    if (args.has("prof")) {
      std::cerr << "--- wall-clock kernel profile (--prof) ---\n";
      tracon::obs::ProfRegistry::global().write_text(std::cerr);
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
