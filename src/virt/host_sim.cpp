#include "virt/host_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/scope_timer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tracon::virt {

namespace {

constexpr double kEps = 1e-9;
constexpr double kMinDt = 1e-6;

/// Mutable per-VM simulation state.
struct VmState {
  const AppBehavior* app = nullptr;
  bool recurring = false;
  bool completed = false;     // measured app finished
  double progress = 0.0;      // fraction of solo work done (current run)
  double start_time = 0.0;    // start of the current run (burst phase ref)
  // Integrals over the measured window [start, completion or now].
  double int_cpu = 0.0;
  double int_dom0 = 0.0;
  double int_reads = 0.0;
  double int_writes = 0.0;
  double measured_until = 0.0;
  // Integrals over the current monitor period.
  double tick_cpu = 0.0;
  double tick_dom0 = 0.0;
  double tick_reads = 0.0;
  double tick_writes = 0.0;

  bool active() const { return app != nullptr && !completed; }

  /// I/O demand multiplier for the burst phase at absolute time t.
  double burst_multiplier(double t) const {
    if (app->burstiness <= 0.0) return 1.0;
    double half = app->burst_period_s / 2.0;
    auto phase = static_cast<long long>(std::floor((t - start_time) / half));
    bool on = (phase % 2) == 0;
    return on ? 1.0 + app->burstiness : 1.0 - app->burstiness;
  }

  /// Time until the next burst-phase boundary after absolute time t.
  double time_to_phase_boundary(double t) const {
    if (app->burstiness <= 0.0) return std::numeric_limits<double>::infinity();
    double half = app->burst_period_s / 2.0;
    double local = t - start_time;
    double next = (std::floor(local / half) + 1.0) * half;
    return std::max(next - local, kMinDt);
  }
};

}  // namespace

RunResult HostSimulator::run(const std::vector<std::optional<VmWorkload>>& vms,
                             const RunOptions& opts) const {
  TRACON_REQUIRE(!vms.empty(), "run needs at least one VM slot");
  TRACON_REQUIRE(opts.max_time_s > 0.0, "max_time_s must be positive");
  TRACON_PROF_SCOPE("virt.host_sim.run");

  const std::size_t n = vms.size();
  std::vector<VmState> state(n);
  std::size_t measured_pending = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!vms[v].has_value()) continue;
    TRACON_REQUIRE(vms[v]->app.solo_runtime_s > 0.0,
                   "app solo runtime must be positive");
    TRACON_REQUIRE(vms[v]->app.cpu_util >= 0.0 &&
                       (vms[v]->app.cpu_util > 0.0 || vms[v]->app.does_io()),
                   "app must demand some resource");
    state[v].app = &vms[v]->app;
    state[v].recurring = vms[v]->recurring;
    if (!vms[v]->recurring) ++measured_pending;
  }

  Rng noise(opts.noise_seed);
  RunResult result;
  result.vms.resize(n);

  double now = 0.0;
  double next_tick = cfg_.monitor_period_s;

  // Per-step working set, sized once: the step loop allocates nothing.
  std::vector<VmDemand> demands;
  std::vector<std::size_t> demand_vm;  // demand index -> VM index
  demands.reserve(n);
  demand_vm.reserve(n);
  SolverScratch scratch;
  HostAllocation alloc;
  alloc.vms.reserve(n);

  while (now < opts.max_time_s - kEps) {
    // Assemble instantaneous demands for active VMs.
    demands.clear();
    demand_vm.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (!state[v].active()) continue;
      const AppBehavior& app = *state[v].app;
      double burst = state[v].burst_multiplier(now);
      VmDemand d;
      d.cpu = app.cpu_util;
      d.read_iops = app.read_iops * burst;
      d.write_iops = app.write_iops * burst;
      d.request_kb = app.request_kb;
      d.sequentiality = app.sequentiality;
      demands.push_back(d);
      demand_vm.push_back(v);
    }
    if (demands.empty()) break;  // nothing left to simulate

    solve_speeds(cfg_, demands, scratch, alloc);
    if constexpr (kParanoidChecksEnabled) {
      // Credit conservation at every scheduler decision: guest CPU plus
      // Dom0 I/O handling fits in the host's cores, and the disk is
      // never more than 100% busy.
      double cpu_sum = 0.0;
      for (const VmAllocation& a : alloc.vms) cpu_sum += a.cpu_used;
      TRACON_DCHECK(cpu_sum + alloc.dom0_cpu_total <=
                        static_cast<double>(cfg_.num_cores) + 1e-6,
                    "CPU credits exceed host cores at a scheduling step");
      TRACON_DCHECK(alloc.disk_utilization >= 0.0 &&
                        alloc.disk_utilization <= 1.0,
                    "disk utilization outside [0,1]");
    }

    // Horizon: completion, burst boundary, monitor tick, or max time.
    double dt = opts.max_time_s - now;
    dt = std::min(dt, std::max(next_tick - now, kMinDt));
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const VmState& s = state[demand_vm[i]];
      const AppBehavior& app = *s.app;
      double speed = alloc.vms[i].speed;
      if (speed > kEps) {
        double remain = (1.0 - s.progress) * app.solo_runtime_s / speed;
        dt = std::min(dt, std::max(remain, kMinDt));
      }
      dt = std::min(dt, s.time_to_phase_boundary(now));
    }
    dt = std::max(dt, kMinDt);

    TRACON_DCHECK(dt >= kMinDt, "simulation step collapsed below kMinDt");

    // Advance all active VMs by dt at the solved speeds.
    for (std::size_t i = 0; i < demands.size(); ++i) {
      VmState& s = state[demand_vm[i]];
      const AppBehavior& app = *s.app;
      const VmAllocation& a = alloc.vms[i];
      double read_rate = a.io_speed * demands[i].read_iops;
      double write_rate = a.io_speed * demands[i].write_iops;

      s.progress += a.speed * dt / app.solo_runtime_s;
      s.int_cpu += a.cpu_used * dt;
      s.int_dom0 += a.dom0_cpu * dt;
      s.int_reads += read_rate * dt;
      s.int_writes += write_rate * dt;
      s.tick_cpu += a.cpu_used * dt;
      s.tick_dom0 += a.dom0_cpu * dt;
      s.tick_reads += read_rate * dt;
      s.tick_writes += write_rate * dt;
      TRACON_CHECK_FINITE(s.progress, "VM progress fraction");
      TRACON_DCHECK(s.progress >= 0.0, "VM progress went negative");
      TRACON_DCHECK(s.int_cpu >= 0.0 && s.int_dom0 >= 0.0 &&
                        s.int_reads >= 0.0 && s.int_writes >= 0.0,
                    "negative resource integral");
    }
    const double before = now;
    now += dt;
    TRACON_DCHECK(now > before, "simulated clock failed to advance");
    static_cast<void>(before);

    // Monitor tick: emit one sample per present VM.
    if (now >= next_tick - kEps) {
      if (opts.collect_samples) {
        for (std::size_t v = 0; v < n; ++v) {
          if (state[v].app == nullptr) continue;
          VmState& s = state[v];
          MonitorSample ms;
          ms.time_s = now;
          ms.vm = v;
          double period = cfg_.monitor_period_s;
          ms.reads_per_s =
              s.tick_reads / period * noise.lognormal_noise(cfg_.noise_sigma);
          ms.writes_per_s =
              s.tick_writes / period * noise.lognormal_noise(cfg_.noise_sigma);
          ms.domu_cpu =
              s.tick_cpu / period * noise.lognormal_noise(cfg_.noise_sigma);
          ms.dom0_cpu =
              s.tick_dom0 / period * noise.lognormal_noise(cfg_.noise_sigma);
          TRACON_DCHECK(ms.reads_per_s >= 0.0 && ms.writes_per_s >= 0.0 &&
                            ms.domu_cpu >= 0.0 && ms.dom0_cpu >= 0.0,
                        "negative monitor sample");
          result.samples.push_back(ms);
        }
      }
      for (VmState& s : state) {
        s.tick_cpu = s.tick_dom0 = s.tick_reads = s.tick_writes = 0.0;
      }
      next_tick += cfg_.monitor_period_s;
    }

    // Completions.
    for (std::size_t v = 0; v < n; ++v) {
      VmState& s = state[v];
      if (!s.active() || s.progress < 1.0 - kEps) continue;
      if (s.recurring) {
        s.progress = 0.0;
        s.start_time = now;  // restart background job, new burst phase
      } else {
        s.completed = true;
        s.measured_until = now;
        --measured_pending;
      }
    }
    if (measured_pending == 0) break;
  }

  result.end_time_s = now;

  for (std::size_t v = 0; v < n; ++v) {
    VmState& s = state[v];
    VmRunStats& out = result.vms[v];
    if (s.app == nullptr) continue;
    out.present = true;
    out.completed = s.completed;
    double window = s.completed ? s.measured_until : now;
    if (window <= 0.0) continue;
    out.runtime_s = s.completed
                        ? window * noise.lognormal_noise(cfg_.noise_sigma)
                        : window;
    out.reads_per_s = s.int_reads / window;
    out.writes_per_s = s.int_writes / window;
    out.iops = out.reads_per_s + out.writes_per_s;
    out.avg_domu_cpu = s.int_cpu / window;
    out.avg_dom0_cpu = s.int_dom0 / window;
    TRACON_CHECK_FINITE(out.runtime_s, "measured runtime");
    TRACON_DCHECK(out.runtime_s >= 0.0 && out.iops >= 0.0,
                  "negative measured runtime or IOPS");
  }
  return result;
}

VmRunStats HostSimulator::solo(const AppBehavior& app,
                               std::uint64_t noise_seed) const {
  RunOptions opts;
  opts.noise_seed = noise_seed;
  opts.collect_samples = false;
  RunResult r = run({VmWorkload{app, false}, std::nullopt}, opts);
  return r.vms[0];
}

PairMeasurement HostSimulator::measure_pair(const AppBehavior& foreground,
                                            const AppBehavior& background,
                                            std::uint64_t noise_seed) const {
  RunOptions opts;
  opts.noise_seed = noise_seed;
  opts.collect_samples = false;
  RunResult r = run(
      {VmWorkload{foreground, false}, VmWorkload{background, true}}, opts);
  PairMeasurement pm;
  pm.runtime_s = r.vms[0].runtime_s;
  pm.iops = r.vms[0].iops;
  pm.reads_per_s = r.vms[0].reads_per_s;
  pm.writes_per_s = r.vms[0].writes_per_s;
  return pm;
}

}  // namespace tracon::virt
