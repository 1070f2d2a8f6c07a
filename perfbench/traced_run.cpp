// perfbench_traced: the traced half of the benchmark (see README.md).
//
// Takes the same flags as `tracon dynamic` (the subset the benchmark's
// workloads use) and performs the same library calls in the same order
// as tools/tracon_cli.cpp, but calls the layers one by one and times each
// call from outside. Nothing inside src/ is instrumented: the scheduler
// and predictor the engine sees are wrapped in counting decorators, and
// wall time, CPU time and RSS are read around the calls.
//
// Writes the same export files as the CLI (the benchmark checks they match
// byte for byte after masking the build stamp), prints the CLI's three
// summary lines, and ends with one JSON line of raw per-layer figures.
// run.py turns them into the per-layer metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "migrate/rebalancer.hpp"
#include "model/factory.hpp"
#include "model/profiler.hpp"
#include "obs/accuracy.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/telemetry.hpp"
#include "sched/candidate_index.hpp"
#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mix.hpp"
#include "sched/prediction_cache.hpp"
#include "sched/predictor.hpp"
#include "sim/dynamic_scenario.hpp"
#include "sim/perf_table.hpp"
#include "sim/shard_scenario.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "virt/host_config.hpp"
#include "virt/host_sim.hpp"
#include "workload/benchmarks.hpp"
#include "workload/mixes.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace tracon;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Named top-level phases, in first-seen order. Phases never nest, so
/// their sum over the process wall time is the trace's coverage.
class Phases {
 public:
  template <class F>
  decltype(auto) time(const std::string& name, F&& f) {
    const auto t0 = Clock::now();
    struct Add {
      Phases* self;
      const std::string& name;
      Clock::time_point t0;
      ~Add() { self->add(name, seconds_since(t0)); }
    } add{this, name, t0};
    return f();
  }
  void add(const std::string& name, double s) {
    if (!secs_.count(name)) order_.push_back(name);
    secs_[name] += s;
  }
  double get(const std::string& name) const {
    auto it = secs_.find(name);
    return it == secs_.end() ? 0.0 : it->second;
  }
  const std::vector<std::string>& order() const { return order_; }

 private:
  std::vector<std::string> order_;
  std::map<std::string, double> secs_;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double rss_mb() {
  std::ifstream f("/proc/self/statm");
  long pages = 0, resident = 0;
  f >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Counts the queries a scheduler issues, then forwards them unchanged.
class CountingPredictor final : public sched::Predictor {
 public:
  explicit CountingPredictor(const sched::Predictor& inner) : inner_(inner) {}

  std::size_t num_apps() const override { return inner_.num_apps(); }
  double predict_runtime(
      std::size_t task,
      const std::optional<std::size_t>& neighbour) const override {
    ++queries_;
    return inner_.predict_runtime(task, neighbour);
  }
  double predict_iops(
      std::size_t task,
      const std::optional<std::size_t>& neighbour) const override {
    ++queries_;
    return inner_.predict_iops(task, neighbour);
  }
  void predict_runtime_batch(std::span<const sched::PredictQuery> queries,
                             std::span<double> out) const override {
    queries_ += queries.size();
    ++batch_calls_;
    inner_.predict_runtime_batch(queries, out);
  }
  void predict_iops_batch(std::span<const sched::PredictQuery> queries,
                          std::span<double> out) const override {
    queries_ += queries.size();
    ++batch_calls_;
    inner_.predict_iops_batch(queries, out);
  }
  void begin_round(double now_s) const override { inner_.begin_round(now_s); }
  std::uint64_t model_epoch() const override { return inner_.model_epoch(); }

  std::uint64_t queries() const { return queries_; }
  std::uint64_t batch_calls() const { return batch_calls_; }

 private:
  const sched::Predictor& inner_;
  mutable std::uint64_t queries_ = 0;
  mutable std::uint64_t batch_calls_ = 0;
};

/// What one scheduler's schedule() calls did. Owned outside the
/// scheduler, which the sharded engine destroys when the run ends.
struct ScheduleStats {
  std::uint64_t calls = 0;
  std::uint64_t placed = 0;
  std::uint64_t empty_calls = 0;
  double busy_s = 0.0;
};

/// Times every schedule() call of the wrapped scheduler. The engine sets
/// the telemetry bundle and candidate index on this object through the
/// base class's non-virtual setters, so both are copied onto the inner
/// scheduler before each delegated call.
class TimedScheduler final : public sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sched::Scheduler> inner, ScheduleStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::string name() const override { return inner_->name(); }
  bool online() const override { return inner_->online(); }

  std::vector<sched::Placement> schedule(
      std::span<const sched::QueuedTask> queue,
      const sched::ClusterCounts& cluster,
      const sched::ScheduleContext& ctx) override {
    sync();
    const auto t0 = Clock::now();
    auto out = inner_->schedule(queue, cluster, ctx);
    stats_.busy_s += seconds_since(t0);
    ++stats_.calls;
    stats_.placed += out.size();
    if (out.empty()) ++stats_.empty_calls;
    return out;
  }

  std::optional<double> next_wakeup(
      std::span<const sched::QueuedTask> queue,
      const sched::ScheduleContext& ctx) const override {
    sync();
    return inner_->next_wakeup(queue, ctx);
  }

 private:
  void sync() const {
    inner_->set_telemetry(telemetry());
    inner_->set_candidate_index(candidate_index());
  }

  std::unique_ptr<sched::Scheduler> inner_;
  ScheduleStats& stats_;
};

virt::HostConfig host_by_name(const std::string& h) {
  if (h == "paper") return virt::HostConfig::paper_testbed();
  if (h == "ssd") return virt::HostConfig::ssd_testbed();
  if (h == "raid") return virt::HostConfig::raid_testbed();
  if (h == "iscsi") return virt::HostConfig::iscsi_testbed();
  throw std::invalid_argument("unknown --host '" + h + "'");
}

model::ModelKind model_by_name(const std::string& m) {
  if (m == "wmm") return model::ModelKind::kWmm;
  if (m == "lm") return model::ModelKind::kLinear;
  if (m == "nlm") return model::ModelKind::kNonlinear;
  if (m == "nlm-log") return model::ModelKind::kNonlinearLog;
  if (m == "nlm-nodom0") return model::ModelKind::kNonlinearNoDom0;
  throw std::invalid_argument("unknown --model '" + m + "'");
}

workload::MixKind mix_by_name(const std::string& m) {
  if (m == "light") return workload::MixKind::kLight;
  if (m == "medium") return workload::MixKind::kMedium;
  if (m == "heavy") return workload::MixKind::kHeavy;
  if (m == "uniform") return workload::MixKind::kUniform;
  throw std::invalid_argument("unknown --mix '" + m + "'");
}

/// The per-layer figures one traced invocation reports.
struct Figures {
  std::map<std::string, double> values;
  void set(const std::string& k, double v) { values[k] = v; }
  void add(const std::string& k, double v) { values[k] += v; }
};

/// Everything the setup phase builds (what core::Tracon holds).
struct System {
  std::vector<virt::AppBehavior> apps;
  std::vector<model::TrainingSet> training;
  std::optional<sim::PerfTable> table;
  std::optional<sched::TablePredictor> predictor;
};

/// Trains one model family into a table predictor, timed per call.
sched::TablePredictor train_family(const System& sys, model::ModelKind kind,
                                   Phases& ph, Figures& fig) {
  std::vector<model::ModelPair> models;
  std::vector<monitor::AppProfile> profiles;
  ph.time("model.train", [&] {
    for (std::size_t a = 0; a < sys.apps.size(); ++a) {
      models.push_back(model::train_model_pair(kind, sys.training[a]));
      profiles.push_back(sys.table->profile(a));
      fig.add("model.train.fits", 1);
    }
  });
  return ph.time("sched.predictor_build", [&] {
    return sched::TablePredictor::from_models(models, profiles);
  });
}

/// core::Tracon's constructor, register_applications() and train(), one
/// layer call at a time.
System setup(const ArgParser& args, Phases& ph, Figures& fig) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  model::Profiler profiler(virt::HostSimulator(host_by_name(args.get("host", "paper"))),
                           seed);
  const auto synthetic = workload::synthetic_workloads({});
  System sys;
  sys.apps = workload::paper_benchmarks();
  ph.time("model.profile", [&] {
    for (const auto& app : sys.apps) {
      sys.training.push_back(profiler.profile_against(app, synthetic));
      fig.add("model.profile.runs",
              static_cast<double>(sys.training.back().size()));
    }
  });
  ph.time("sim.perf_table",
          [&] { sys.table.emplace(sim::PerfTable::build(profiler, sys.apps)); });
  const double n = static_cast<double>(sys.apps.size());
  fig.set("sim.perf_table.pairs", n * n);
  sys.predictor.emplace(
      train_family(sys, model_by_name(args.get("model", "nlm")), ph, fig));
  return sys;
}

std::unique_ptr<sched::Scheduler> make_scheduler(const ArgParser& args,
                                                 const sched::Predictor& pred) {
  const std::string s = args.get("scheduler", "mibs");
  const auto queue = static_cast<std::size_t>(args.get_int("queue", 8));
  const auto objective = sched::Objective::kRuntime;
  if (s == "mibs")
    return std::make_unique<sched::MibsScheduler>(pred, objective, queue, 60.0);
  if (s == "mix")
    return std::make_unique<sched::MixScheduler>(pred, objective, queue, 60.0);
  throw std::invalid_argument("unsupported --scheduler '" + s + "'");
}

/// One scheduled run's sinks, decorators and results. Owned here so a
/// second, sinks-off run can be made after the first one's records are
/// freed.
struct ScheduledRun {
  obs::Telemetry tel;
  sim::TraceRecorder trace;
  std::vector<std::unique_ptr<sched::PredictionCache>> caches;
  std::vector<std::unique_ptr<CountingPredictor>> counters;
  std::vector<std::unique_ptr<ScheduleStats>> sched_stats;
  // Legacy-route instruments (the CLI's RunInstruments).
  std::optional<obs::SnapshotSeries> series;
  std::optional<obs::WindowedAccuracy> win_runtime, win_iops;
  std::vector<sched::TablePredictor> family_tables;
  std::vector<std::string> family_names;
  std::unique_ptr<sched::ConfidenceWeightedPredictor> confidence;
  std::unique_ptr<sched::Scheduler> legacy_scheduler;
  std::string series_text;  ///< the sharded route's merged series
  std::string name;
  std::size_t completed = 0, dropped = 0, shards = 1, threads = 1;
  double total_runtime = 0.0, mean_wait_s = 0.0;
  // Measured around the engine call alone.
  double engine_s = 0.0, engine_cpu_s = 0.0, rss_growth_mb = 0.0;

  /// Runs `engine` (the simulator call) and takes its wall time, process
  /// CPU time and RSS growth.
  template <class F>
  auto measure(F&& engine) {
    const double rss0 = rss_mb();
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    auto out = engine();
    engine_s = seconds_since(t0);
    engine_cpu_s = cpu_seconds() - cpu0;
    rss_growth_mb = rss_mb() - rss0;
    return out;
  }

  double counter(const std::string& name) const {
    const auto& c = tel.metrics.counters();
    auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second.value());
  }
};

/// The figures taken from one scheduled run's decorators and sinks.
void collect(const ScheduledRun& r, Figures& fig) {
  double calls = 0, placed = 0, empty = 0, busy = 0, queries = 0, batches = 0;
  for (const auto& st : r.sched_stats) {
    calls += static_cast<double>(st->calls);
    placed += static_cast<double>(st->placed);
    empty += static_cast<double>(st->empty_calls);
    busy += st->busy_s;
  }
  for (const auto& c : r.counters) {
    queries += static_cast<double>(c->queries());
    batches += static_cast<double>(c->batch_calls());
  }
  fig.set("sched.schedule.calls", calls);
  fig.set("sched.schedule.placed", placed);
  fig.set("sched.schedule.empty_calls", empty);
  fig.set("sched.schedule.busy_s", busy);
  fig.set("sched.predict.queries", queries);
  fig.set("sched.predict.batch_calls", batches);
  double hits = 0, misses = 0, inval = 0;
  for (const auto& c : r.caches) {
    hits += static_cast<double>(c->hits());
    misses += static_cast<double>(c->misses());
    inval += static_cast<double>(c->invalidations());
  }
  fig.set("sched.cache.hits", hits);
  fig.set("sched.cache.lookups", hits + misses);
  fig.set("sched.cache.invalidations", inval);
  for (const char* k : {"arrived", "placed", "completed", "dropped", "migrated"})
    fig.set(std::string("sim.tasks.") + k, r.counter(std::string("sim.tasks.") + k));
  const auto& hists = r.tel.metrics.histograms();
  auto wait = hists.find("sim.task.wait_s");
  fig.set("sim.wait.sum_s", wait == hists.end() ? 0.0 : wait->second.sum());
  fig.set("sim.wait.count",
          wait == hists.end() ? 0.0 : static_cast<double>(wait->second.count()));
  // The migrate layer's own record of its moves when the log is kept.
  double moves = r.counter("sim.tasks.migrated");
  if (r.tel.decisions.enabled()) {
    moves = 0;
    for (const auto& ev : r.tel.decisions.events())
      if (ev.kind == obs::DecisionEvent::Kind::kMigration) ++moves;
  }
  fig.set("migrate.moves", moves);
  fig.set("obs.decisions.records", static_cast<double>(r.tel.decisions.size()));
  fig.set("obs.spans.records", static_cast<double>(r.tel.spans.size()));
  fig.set("obs.tracer.records", static_cast<double>(r.tel.tracer.events().size()));
  fig.set("obs.task_events.records", static_cast<double>(r.trace.events().size()));
  fig.set("sim.shards", static_cast<double>(r.shards));
  fig.set("sim.threads", static_cast<double>(r.threads));
}

/// Replays `tracon dynamic` for the flag sets the benchmark's workloads
/// use: the legacy route with --confidence-weighting and metrics/series
/// exports, and the sharded route with --candidate-index, --rebalance and
/// every export. Other combinations are refused rather than approximated.
class Harness {
 public:
  explicit Harness(const ArgParser& args)
      : args_(args),
        sharded_(args.has("threads")),
        stores_(args.has("trace-out") || args.has("decisions-out") ||
                args.has("spans-out") || args.has("events-jsonl")),
        seed_(static_cast<std::uint64_t>(args.get_int("seed", 42))),
        machines_(static_cast<std::size_t>(args.get_int("machines", 64))),
        lambda_(args.get_double("lambda", 100.0)),
        duration_s_(args.get_double("hours", 10.0) * 3600.0),
        mix_(mix_by_name(args.get("mix", "medium"))),
        queue_(static_cast<std::size_t>(args.get_int("queue", 8))) {
    if (!args.has("metrics-out"))
      throw std::invalid_argument("--metrics-out is required");
    if (sharded_ && args.has("confidence-weighting"))
      throw std::invalid_argument(
          "--confidence-weighting is not supported with --threads");
    if (!sharded_ && (stores_ || args.has("rebalance") ||
                      args.has("candidate-index")))
      throw std::invalid_argument(
          "the legacy route is replayed without record stores, "
          "--rebalance or --candidate-index");
  }

  int run() {
    sys_ = setup(args_, ph_, fig_);
    if (args_.has("candidate-index"))
      ph_.time("sched.index_build", [&] { cindex_.emplace(*sys_.predictor); });
    ph_.time("sim.baseline", [&] { baseline(); });

    auto r = std::make_unique<ScheduledRun>();
    if (sharded_) run_sharded(*r, true); else run_legacy(*r);
    ph_.add("sim.run", r->engine_s);
    fig_.set("sim.run.cpu_s", r->engine_cpu_s);
    fig_.set("obs.buffered_mb", r->rss_growth_mb);
    collect(*r, fig_);

    if (!ph_.time("obs.export", [&] { return write_exports(*r); })) return 1;
    print_summary(*r);
    const double run_s = r->engine_s;
    ph_.time("obs.release", [&] { r.reset(); });

    // The same run with the four record stores off: the difference is
    // what recording costs inside the run.
    double record_s = 0.0;
    if (stores_) {
      ph_.time("obs.sinks_off_run", [&] {
        ScheduledRun quiet;
        run_sharded(quiet, false);
        record_s = run_s - quiet.engine_s;
      });
    }
    fig_.set("obs.record.s", record_s);
    print_figures();
    return 0;
  }

 private:
  void baseline() {
    if (!sharded_) {
      sched::FifoScheduler fifo(seed_ + 1);
      fifo_completed_ =
          sim::run_dynamic(*sys_.table, fifo, legacy_config()).completed;
      return;
    }
    auto base = sim::run_dynamic_sharded(
        *sys_.table,
        [&](std::size_t shard) -> std::unique_ptr<sched::Scheduler> {
          return std::make_unique<sched::FifoScheduler>(
              derive_stream_seed(seed_ + 1, shard));
        },
        sharded_config());
    fifo_completed_ = base.total.completed;
  }

  sim::DynamicConfig legacy_config() const {
    sim::DynamicConfig cfg;
    cfg.machines = machines_;
    cfg.lambda_per_min = lambda_;
    cfg.duration_s = duration_s_;
    cfg.mix = mix_;
    cfg.queue_capacity = queue_;
    cfg.seed = seed_;
    return cfg;
  }

  sim::ShardedConfig sharded_config() const {
    sim::ShardedConfig cfg;
    cfg.machines = machines_;
    cfg.lambda_per_min = lambda_;
    cfg.duration_s = duration_s_;
    cfg.mix = mix_;
    cfg.queue_capacity = queue_;
    cfg.seed = seed_;
    cfg.threads = static_cast<std::size_t>(args_.get_int("threads", 1));
    return cfg;
  }

  /// The scheduler a run hands the engine: the CLI's choice over a
  /// counting predictor (over a per-scheduler cache with the candidate
  /// index), wrapped in the timing decorator.
  std::unique_ptr<sched::Scheduler> decorated(ScheduledRun& r,
                                              const sched::Predictor& base) {
    const sched::Predictor* pred = &base;
    if (cindex_.has_value()) {
      r.caches.push_back(std::make_unique<sched::PredictionCache>(base));
      pred = r.caches.back().get();
    }
    r.counters.push_back(std::make_unique<CountingPredictor>(*pred));
    r.sched_stats.push_back(std::make_unique<ScheduleStats>());
    return std::make_unique<TimedScheduler>(
        make_scheduler(args_, *r.counters.back()), *r.sched_stats.back());
  }

  void stamp_fingerprint(ScheduledRun& r) const {
    obs::MetricsRegistry& m = r.tel.metrics;
    m.set_fingerprint("seed", std::to_string(seed_));
    m.set_fingerprint("scheduler", r.name);
    m.set_fingerprint("machines", std::to_string(machines_));
    m.set_fingerprint("mix", workload::mix_name(mix_));
    m.set_fingerprint("host", args_.get("host", "paper"));
    m.set_fingerprint("model", args_.get("model", "nlm"));
    m.set_fingerprint("source", "live");
    m.set_fingerprint("build", "perfbench");
  }

  void run_legacy(ScheduledRun& r) {
    sim::DynamicConfig cfg = legacy_config();
    cfg.telemetry = &r.tel;
    cfg.accuracy_probe = &*sys_.predictor;
    cfg.accuracy_family =
        model::model_kind_name(model_by_name(args_.get("model", "nlm")));
    const sched::Predictor* sched_pred = &*sys_.predictor;
    if (args_.has("confidence-weighting")) {
      confidence(r, cfg);
      sched_pred = r.confidence.get();
    }
    if (args_.has("series-out")) series(r, cfg);
    r.legacy_scheduler = decorated(r, *sched_pred);
    r.legacy_scheduler->set_telemetry(&r.tel);
    r.name = r.legacy_scheduler->name();
    stamp_fingerprint(r);
    if (args_.has("confidence-weighting"))
      r.tel.metrics.set_fingerprint("confidence", "on");
    auto o = r.measure([&] {
      return sim::run_dynamic(*sys_.table, *r.legacy_scheduler, cfg);
    });
    r.completed = o.completed;
    r.dropped = o.dropped;
    r.total_runtime = o.total_runtime;
    r.mean_wait_s = o.mean_wait_s;
  }

  /// The CLI's instrument_run(), --confidence-weighting half: three more
  /// model families, the ensemble over them, and a MIX scheduler.
  void confidence(ScheduledRun& r, sim::DynamicConfig& cfg) {
    if (args_.get("scheduler", "mibs") != "mix")
      throw std::invalid_argument(
          "--confidence-weighting requires --scheduler mix");
    const model::ModelKind kinds[] = {model::ModelKind::kWmm,
                                      model::ModelKind::kLinear,
                                      model::ModelKind::kNonlinear};
    r.family_tables.reserve(std::size(kinds));
    for (model::ModelKind kind : kinds) {
      r.family_tables.push_back(train_family(sys_, kind, ph_, fig_));
      r.family_names.push_back(model::model_kind_metric_family(kind));
    }
    std::vector<sched::ConfidenceWeightedPredictor::Family> families;
    for (std::size_t f = 0; f < r.family_tables.size(); ++f)
      families.push_back({r.family_names[f], &r.family_tables[f]});
    r.confidence =
        std::make_unique<sched::ConfidenceWeightedPredictor>(std::move(families));
    r.confidence->set_metrics(&r.tel.metrics);
    cfg.outcome_observer = r.confidence.get();
    cfg.accuracy_probe = r.confidence.get();
    cfg.accuracy_family = "confidence";
  }

  /// The CLI's instrument_run(), snapshot-series half.
  void series(ScheduledRun& r, sim::DynamicConfig& cfg) {
    r.series.emplace(r.tel.metrics, 600.0);
    cfg.snapshots = &*r.series;
    if (r.confidence != nullptr) {
      for (std::size_t f = 0; f < r.confidence->num_families(); ++f) {
        const std::string& fam = r.confidence->family_name(f);
        r.series->track_accuracy("model." + fam + ".runtime",
                                 &r.confidence->runtime_window(f));
        r.series->track_accuracy("model." + fam + ".iops",
                                 &r.confidence->iops_window(f));
      }
      return;
    }
    r.win_runtime.emplace(64);
    r.win_iops.emplace(64);
    cfg.windowed_runtime = &*r.win_runtime;
    cfg.windowed_iops = &*r.win_iops;
    const std::string fam = obs::metric_path_component(cfg.accuracy_family);
    r.series->track_accuracy("model." + fam + ".runtime", &*r.win_runtime);
    r.series->track_accuracy("model." + fam + ".iops", &*r.win_iops);
  }

  void run_sharded(ScheduledRun& r, bool stores) {
    sim::ShardedConfig cfg = sharded_config();
    migrate::RebalanceConfig reb_cfg;
    if (args_.has("rebalance")) {
      cfg.rebalance = true;
      cfg.rebalance_cfg = reb_cfg;
      cfg.rebalance_predictor = &*sys_.predictor;
    }
    if (cindex_.has_value()) cfg.candidate_index = &*cindex_;
    if (stores && args_.has("events-jsonl")) cfg.trace = &r.trace;
    r.tel.tracer.set_enabled(stores && args_.has("trace-out"));
    r.tel.decisions.set_enabled(stores && args_.has("decisions-out"));
    r.tel.spans.set_enabled(stores && args_.has("spans-out"));
    cfg.telemetry = &r.tel;
    cfg.accuracy_probe = &*sys_.predictor;
    cfg.accuracy_family =
        model::model_kind_name(model_by_name(args_.get("model", "nlm")));
    if (args_.has("series-out")) cfg.snapshot_interval_s = 600.0;

    auto factory = [&](std::size_t) { return decorated(r, *sys_.predictor); };
    r.name = factory(0)->name();  // as the CLI does; its stats stay zero
    auto o = r.measure(
        [&] { return sim::run_dynamic_sharded(*sys_.table, factory, cfg); });
    r.shards = o.shards;
    r.threads = o.threads_used;
    r.series_text = std::move(o.series);
    r.completed = o.total.completed;
    r.dropped = o.total.dropped;
    r.total_runtime = o.total.total_runtime;
    r.mean_wait_s = o.total.mean_wait_s;

    stamp_fingerprint(r);
    r.tel.metrics.set_fingerprint("threads", std::to_string(o.threads_used));
    r.tel.metrics.set_fingerprint("shards", std::to_string(o.shards));
    if (cfg.rebalance) {
      r.tel.metrics.set_fingerprint("rebalance", "on");
      r.tel.metrics.set_fingerprint("rebalance_interval",
                                    obs::json_number(reb_cfg.interval_s));
    }
    // Log headers carry the metrics fingerprint minus the execution shape.
    for (const auto& [key, value] : r.tel.metrics.fingerprint()) {
      if (key == "threads" || key == "shards") continue;
      if (r.tel.decisions.enabled()) r.tel.decisions.set_fingerprint(key, value);
      if (r.tel.spans.enabled()) r.tel.spans.set_fingerprint(key, value);
    }
  }

  /// One writer call per export, timed and sized per store, in the CLI's
  /// order.
  bool write_exports(const ScheduledRun& r) {
    auto write = [&](const char* flag, const std::string& store,
                     const std::function<void(std::ostream&)>& writer) {
      if (!store.empty()) {
        fig_.set("obs." + store + ".write_s", 0.0);
        fig_.set("obs." + store + ".bytes", 0.0);
      }
      if (!args_.has(flag)) return true;
      const std::string path = args_.get(flag);
      const auto t0 = Clock::now();
      {
        std::ofstream f(path);
        if (!f) {
          std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
          return false;
        }
        writer(f);
      }
      if (!store.empty()) {
        fig_.set("obs." + store + ".write_s", seconds_since(t0));
        fig_.set("obs." + store + ".bytes",
                 static_cast<double>(std::filesystem::file_size(path)));
      }
      return true;
    };
    bool ok = true;
    ok &= write("metrics-out", "",
                [&](std::ostream& f) { r.tel.metrics.write_json(f); });
    ok &= write("trace-out", "tracer",
                [&](std::ostream& f) { r.tel.tracer.write_chrome_json(f); });
    ok &= write("series-out", "", [&](std::ostream& f) {
      if (sharded_) f << r.series_text; else r.series->write(f);
    });
    ok &= write("decisions-out", "decisions",
                [&](std::ostream& f) { r.tel.decisions.write(f); });
    ok &= write("spans-out", "spans",
                [&](std::ostream& f) { r.tel.spans.write(f); });
    ok &= write("events-jsonl", "task_events",
                [&](std::ostream& f) { r.trace.write_jsonl(f); });
    return ok;
  }

  /// The CLI's summary lines, for a byte comparison with its stdout.
  void print_summary(const ScheduledRun& r) const {
    if (sharded_) {
      std::printf("%s: %zu machines, %zu shards, %zu threads, "
                  "lambda=%.0f/min, %.1f h, %s mix\n",
                  r.name.c_str(), machines_, r.shards, r.threads, lambda_,
                  duration_s_ / 3600.0, workload::mix_name(mix_).c_str());
    } else {
      std::printf("%s: %zu machines, lambda=%.0f/min, %.1f h, %s mix\n",
                  r.name.c_str(), machines_, lambda_, duration_s_ / 3600.0,
                  workload::mix_name(mix_).c_str());
    }
    const auto base = std::max<std::size_t>(1, fifo_completed_);
    std::printf("  completed %zu (FIFO %zu, normalized %.3f)\n", r.completed,
                fifo_completed_,
                static_cast<double>(r.completed) / static_cast<double>(base));
    std::printf("  dropped %zu   mean runtime %.1f s   mean wait %.1f s\n",
                r.dropped,
                r.total_runtime /
                    static_cast<double>(std::max<std::size_t>(1, r.completed)),
                r.mean_wait_s);
  }

  void print_figures() const {
    std::string out = "{\"phases\": {";
    const char* sep = "";
    for (const std::string& name : ph_.order()) {
      out += sep + std::string("\"") + name + "\": " +
             obs::json_number(ph_.get(name));
      sep = ", ";
    }
    out += "}, \"figures\": {";
    sep = "";
    for (const auto& [k, v] : fig_.values) {
      out += sep + std::string("\"") + k + "\": " + obs::json_number(v);
      sep = ", ";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

  const ArgParser& args_;
  const bool sharded_;
  const bool stores_;
  const std::uint64_t seed_;
  const std::size_t machines_;
  const double lambda_;
  const double duration_s_;
  const workload::MixKind mix_;
  const std::size_t queue_;
  System sys_;
  std::optional<sched::CandidateIndex> cindex_;
  std::size_t fifo_completed_ = 0;
  Phases ph_;
  Figures fig_;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    const auto unknown = args.unknown_flags(
        {"host", "model", "seed", "mix", "machines", "lambda", "hours",
         "queue", "scheduler", "threads", "confidence-weighting",
         "candidate-index", "rebalance", "metrics-out", "series-out",
         "trace-out", "decisions-out", "spans-out", "events-jsonl"});
    if (!unknown.empty() || args.positional() != std::vector<std::string>{"dynamic"}) {
      std::fprintf(stderr,
                   "usage: perfbench_traced dynamic [tracon dynamic flags]\n");
      for (const auto& u : unknown)
        std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
      return 2;
    }
    Harness h(args);
    return h.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_traced: %s\n", e.what());
    return 1;
  }
}
