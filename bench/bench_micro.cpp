// Micro benchmarks (google-benchmark): the scheduling-overhead claims of
// Section 3.2 (MIOS cheapest, MIX costliest, MIBS in between), model
// training/prediction cost, the host-simulator allocation solver, and
// the whole set-up (profile + train) on one worker and on every core.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>

#include "core/tracon.hpp"
#include "model/evaluate.hpp"
#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
#include "sched/mix.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "virt/fairshare.hpp"
#include "workload/benchmarks.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace tracon;

/// One shared system; building it is expensive, so it is lazily
/// constructed once for all benchmarks.
core::Tracon& system_instance() {
  static core::Tracon sys = [] {
    core::Tracon s;
    s.register_applications(workload::paper_benchmarks());
    s.train(model::ModelKind::kNonlinear);
    return s;
  }();
  return sys;
}

std::vector<sched::QueuedTask> make_queue(std::size_t n) {
  Rng rng(5);
  std::vector<sched::QueuedTask> q;
  for (std::size_t i = 0; i < n; ++i)
    q.push_back({workload::sample_benchmark_index(
                     workload::MixKind::kMedium, rng),
                 0.0});
  return q;
}

sched::ClusterCounts make_cluster(std::size_t num_apps) {
  sched::ClusterCounts c(num_apps, 64);
  // Occupy some machines so joins are an option.
  for (std::size_t a = 0; a < num_apps; ++a) c.place(a, std::nullopt);
  return c;
}

void BM_SolveSpeeds(benchmark::State& state) {
  virt::HostConfig cfg = virt::HostConfig::paper_testbed();
  std::vector<virt::VmDemand> demands(2);
  demands[0] = {0.45, 374, 125, 64, 0.95};
  demands[1] = {0.42, 210, 8, 128, 0.90};
  for (auto _ : state) {
    benchmark::DoNotOptimize(virt::solve_speeds(cfg, demands));
  }
}
BENCHMARK(BM_SolveSpeeds);

void BM_PairMeasurement(benchmark::State& state) {
  virt::HostSimulator sim(virt::HostConfig::paper_testbed());
  auto apps = workload::paper_benchmarks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.measure_pair(apps[7], apps[5]));
  }
}
BENCHMARK(BM_PairMeasurement);

/// register_applications + train, as every `tracon` invocation pays it,
/// with set-up on state.range(0) workers.
void BM_Setup(benchmark::State& state) {
  core::TraconConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::Tracon s(cfg);
    s.register_applications(workload::paper_benchmarks());
    s.train(model::ModelKind::kNonlinear);
    benchmark::DoNotOptimize(s.predictor());
  }
}
BENCHMARK(BM_Setup)
    ->Arg(1)
    ->Arg(static_cast<std::int64_t>(hardware_threads()))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TrainNlm(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  for (auto _ : state) {
    auto m = model::train_model(model::ModelKind::kNonlinear,
                                sys.training_set(7),
                                model::Response::kRuntime);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_TrainNlm);

void BM_PredictorLookup(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  const auto& p = sys.predictor();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        p.predict_runtime(i % 8, std::optional<std::size_t>((i + 3) % 8)));
    ++i;
  }
}
BENCHMARK(BM_PredictorLookup);

void BM_ScheduleFifo(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  auto queue = make_queue(8);
  auto cluster = make_cluster(sys.num_apps());
  sched::FifoScheduler s(3);
  sched::ScheduleContext ctx{1e9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.schedule(queue, cluster, ctx));
  }
}
BENCHMARK(BM_ScheduleFifo);

void BM_ScheduleMios(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  auto queue = make_queue(8);
  auto cluster = make_cluster(sys.num_apps());
  sched::MiosScheduler s(sys.predictor(), sched::Objective::kRuntime);
  sched::ScheduleContext ctx{1e9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.schedule(queue, cluster, ctx));
  }
}
BENCHMARK(BM_ScheduleMios);

void BM_ScheduleMibs(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  auto queue = make_queue(8);
  auto cluster = make_cluster(sys.num_apps());
  sched::MibsScheduler s(sys.predictor(), sched::Objective::kRuntime, 8);
  sched::ScheduleContext ctx{1e9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.schedule(queue, cluster, ctx));
  }
}
BENCHMARK(BM_ScheduleMibs);

void BM_ScheduleMix(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  auto queue = make_queue(8);
  auto cluster = make_cluster(sys.num_apps());
  sched::MixScheduler s(sys.predictor(), sched::Objective::kRuntime, 8);
  sched::ScheduleContext ctx{1e9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.schedule(queue, cluster, ctx));
  }
}
BENCHMARK(BM_ScheduleMix);

}  // namespace

BENCHMARK_MAIN();
