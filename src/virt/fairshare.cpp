#include "virt/fairshare.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace tracon::virt {

std::vector<double> waterfill(const std::vector<double>& demands,
                              double capacity) {
  std::vector<double> alloc(demands.size(), 0.0);
  std::vector<std::size_t> order;
  waterfill(demands, capacity, alloc, order);
  return alloc;
}

void waterfill(std::span<const double> demands, double capacity,
               std::span<double> alloc, std::vector<std::size_t>& order) {
  TRACON_REQUIRE(capacity >= 0.0, "waterfill capacity must be non-negative");
  for (double d : demands)
    TRACON_REQUIRE(d >= 0.0, "waterfill demands must be non-negative");
  TRACON_REQUIRE(alloc.size() == demands.size(),
                 "waterfill allocation size must match demands");

  const std::size_t n = demands.size();
  if (n == 0) return;

  // Serve consumers in ascending demand; each round grants the smaller
  // of the consumer's demand and an equal split of what remains.
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return demands[a] < demands[b];
  });

  double remaining = capacity;
  std::size_t left = n;
  for (std::size_t idx : order) {
    double share = remaining / static_cast<double>(left);
    double granted = std::min(demands[idx], share);
    alloc[idx] = granted;
    remaining -= granted;
    --left;
  }

  if constexpr (kParanoidChecksEnabled) {
    // Conservation: grants never exceed capacity, and no consumer is
    // granted more than it asked for.
    double granted_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      TRACON_DCHECK(alloc[i] >= 0.0 && alloc[i] <= demands[i] + 1e-9,
                    "waterfill grant exceeds demand");
      granted_total += alloc[i];
    }
    TRACON_DCHECK(granted_total <= capacity + 1e-9 * std::max(1.0, capacity),
                  "waterfill grants exceed capacity");
  }
}

HostAllocation solve_speeds(const HostConfig& cfg,
                            const std::vector<VmDemand>& demands) {
  SolverScratch scratch;
  HostAllocation result;
  solve_speeds(cfg, demands, scratch, result);
  return result;
}

void solve_speeds(const HostConfig& cfg, std::span<const VmDemand> demands,
                  SolverScratch& scratch, HostAllocation& result) {
  const std::size_t n = demands.size();
  result.vms.assign(n, VmAllocation{});
  result.dom0_cpu_total = 0.0;
  result.disk_utilization = 0.0;
  result.iterations = 0;
  if (n == 0) return;

  for (const VmDemand& d : demands) {
    TRACON_REQUIRE(
        d.cpu >= 0.0 && d.read_iops >= 0.0 && d.write_iops >= 0.0 &&
            d.request_kb > 0.0,
        "invalid VM demand");
    TRACON_REQUIRE(d.sequentiality >= 0.0 && d.sequentiality <= 1.0,
                   "sequentiality outside [0,1]");
  }

  const double cores = static_cast<double>(cfg.num_cores);
  const double kDiskMsPerSec = 1000.0;
  // Dom0 CPU cores consumed per unit I/O rate, at full speed, per VM.
  std::vector<double>& dom0_rate = scratch.dom0_rate;
  dom0_rate.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    double total = demands[v].total_iops();
    if (total <= 0.0) continue;
    double read_share = demands[v].read_iops / total;
    dom0_rate[v] = total * cfg.dom0_cost_per_iops(read_share,
                                                  demands[v].request_kb,
                                                  demands[v].sequentiality);
  }

  // CPU demand from other domains, per VM (constant across iterations):
  // drives the Dom0 scheduling-latency component of the disk cost.
  std::vector<double>& cpu_other = scratch.cpu_other;
  cpu_other.assign(n, 0.0);
  double cpu_total = 0.0;
  for (const VmDemand& d : demands) cpu_total += d.cpu;
  for (std::size_t v = 0; v < n; ++v) cpu_other[v] = cpu_total - demands[v].cpu;

  std::vector<double>& io_speed = scratch.io_speed;
  std::vector<double>& cpu_speed = scratch.cpu_speed;
  std::vector<double>& cost_ms = scratch.cost_ms;
  std::vector<double>& saturation = scratch.saturation;
  io_speed.assign(n, 1.0);
  cpu_speed.assign(n, 1.0);
  cost_ms.assign(n, 0.0);
  saturation.assign(n, 0.0);
  // Per-iteration vectors: sized once here, refilled in the loop.
  std::vector<double>& disk_demand = scratch.disk_demand;
  std::vector<double>& disk_alloc = scratch.disk_alloc;
  std::vector<double>& cap_disk = scratch.cap_disk;
  std::vector<double>& cpu_demand = scratch.cpu_demand;
  std::vector<double>& cpu_alloc = scratch.cpu_alloc;
  std::vector<double>& new_cpu_speed = scratch.new_cpu_speed;
  disk_demand.resize(n);
  disk_alloc.resize(n);
  cap_disk.resize(n);
  cpu_demand.resize(n + 1);
  cpu_alloc.resize(n + 1);
  new_cpu_speed.resize(n);
  double dom0_speed = 1.0;

  // Initialize per-request costs and saturations from solo behaviour.
  for (std::size_t v = 0; v < n; ++v) {
    cost_ms[v] = cfg.disk.per_request_latency_ms +
                 cfg.disk.transfer_ms(demands[v].request_kb) +
                 cfg.disk.positioning_ms * (1.0 - demands[v].sequentiality);
    saturation[v] =
        std::min(1.0, demands[v].total_iops() * cost_ms[v] / kDiskMsPerSec);
  }

  constexpr int kMaxIters = 200;
  constexpr double kTol = 1e-10;
  int iter = 0;
  for (; iter < kMaxIters; ++iter) {
    // --- Disk: per-request cost from the current operating point. ---
    // Interleave pressure on stream v: write-weighted request rates of
    // the other streams, throttled by their CPU grant and discounted by
    // the square of their disk saturation (a competitor that leaves the
    // disk mostly idle rarely breaks this stream's locality — the
    // anticipatory-scheduler effect).
    for (std::size_t v = 0; v < n; ++v) {
      double pressure = 0.0;
      for (std::size_t u = 0; u < n; ++u) {
        if (u == v) continue;
        double weighted = demands[u].read_iops +
                          cfg.disk.write_weight * demands[u].write_iops;
        pressure += weighted * std::min(1.0, cpu_speed[u]) * saturation[u] *
                    saturation[u];
      }
      double own = demands[v].total_iops();
      double interleave =
          own > 1e-9
              ? cfg.disk.collapse_cap * pressure /
                    (pressure + cfg.disk.interleave_theta * own)
              : 0.0;
      double seek_fraction = (1.0 - demands[v].sequentiality) +
                             demands[v].sequentiality * interleave;
      cost_ms[v] = cfg.disk.per_request_latency_ms +
                   cfg.disk.transfer_ms(demands[v].request_kb) +
                   (cfg.disk.positioning_ms +
                    cfg.dom0_sched_latency_ms * cpu_other[v]) *
                       seek_fraction;
      saturation[v] =
          std::min(1.0, own * cost_ms[v] / kDiskMsPerSec);
    }

    // Disk time demanded, throttled by what CPU and Dom0 currently let
    // the stream issue.
    for (std::size_t v = 0; v < n; ++v) {
      double issue = std::min({1.0, cpu_speed[v], dom0_speed});
      disk_demand[v] = demands[v].total_iops() * cost_ms[v] * issue;
    }
    waterfill(disk_demand, kDiskMsPerSec, disk_alloc, scratch.order);
    double disk_leftover = kDiskMsPerSec;
    for (double a : disk_alloc) disk_leftover -= a;

    std::fill(cap_disk.begin(), cap_disk.end(), 1.0);
    for (std::size_t v = 0; v < n; ++v) {
      double full = demands[v].total_iops() * cost_ms[v];
      if (full > 1e-12)
        cap_disk[v] = std::min(1.0, (disk_alloc[v] + disk_leftover) / full);
    }

    // --- CPU: guest vCPUs plus one Dom0 consumer for I/O handling.
    // Guests present their full CPU demand (compute loops do not block
    // on I/O); Dom0 demand follows the achieved I/O rates.
    double dom0_demand = 0.0;
    for (std::size_t v = 0; v < n; ++v)
      dom0_demand += dom0_rate[v] * io_speed[v];
    for (std::size_t v = 0; v < n; ++v) cpu_demand[v] = demands[v].cpu;
    cpu_demand[n] = dom0_demand;
    waterfill(cpu_demand, cores, cpu_alloc, scratch.order);
    double cpu_leftover = cores;
    for (double a : cpu_alloc) cpu_leftover -= a;

    std::fill(new_cpu_speed.begin(), new_cpu_speed.end(), 1.0);
    for (std::size_t v = 0; v < n; ++v) {
      if (demands[v].cpu > 1e-12)
        new_cpu_speed[v] =
            std::min(1.0, (cpu_alloc[v] + cpu_leftover) / demands[v].cpu);
    }
    double new_dom0_speed = 1.0;
    if (dom0_demand > 1e-12)
      new_dom0_speed =
          std::min(1.0, (cpu_alloc[n] + cpu_leftover) / dom0_demand);

    // --- Combine and damp. ---
    double max_delta = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      double target_io = 1.0;
      if (demands[v].total_iops() > 1e-12)
        target_io =
            std::min({cap_disk[v], new_dom0_speed, new_cpu_speed[v]});
      double updated = 0.5 * io_speed[v] + 0.5 * target_io;
      max_delta = std::max(max_delta, std::abs(updated - io_speed[v]));
      io_speed[v] = updated;
      cpu_speed[v] = new_cpu_speed[v];
    }
    dom0_speed = new_dom0_speed;
    if (max_delta < kTol) break;
  }
  result.iterations = iter + 1;

  // Final bookkeeping at the converged operating point. The application
  // progresses at the slower of its compute and I/O streams.
  double disk_busy = 0.0;
  double dom0_total = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    VmAllocation& a = result.vms[v];
    a.io_speed = std::clamp(io_speed[v], 0.0, 1.0);
    a.cpu_speed = std::clamp(cpu_speed[v], 0.0, 1.0);
    double s = 1.0;
    if (demands[v].cpu > 1e-12) s = std::min(s, a.cpu_speed);
    if (demands[v].total_iops() > 1e-12) s = std::min(s, a.io_speed);
    a.speed = s;
    a.iops = a.io_speed * demands[v].total_iops();
    // The guest burns its CPU grant whether or not I/O progresses (the
    // compute loop spins); cap at demand.
    a.cpu_used = a.cpu_speed * demands[v].cpu;
    a.dom0_cpu = dom0_rate[v] * a.io_speed;
    a.disk_ms = a.iops * cost_ms[v];
    disk_busy += a.disk_ms;
    dom0_total += a.dom0_cpu;
  }
  result.dom0_cpu_total = dom0_total;
  result.disk_utilization = std::min(1.0, disk_busy / kDiskMsPerSec);

  if constexpr (kParanoidChecksEnabled) {
    // CPU-credit conservation: guest grants plus the Dom0 I/O handler
    // can never exceed the host's physical cores. The speeds that fed
    // cpu_used/dom0_cpu all came from waterfill shares of `cores`.
    double cpu_granted = 0.0;
    for (const VmAllocation& a : result.vms) {
      TRACON_CHECK_FINITE(a.speed, "VM progress speed");
      TRACON_DCHECK(a.speed >= 0.0 && a.speed <= 1.0,
                    "VM speed outside [0,1]");
      TRACON_DCHECK(a.iops >= 0.0, "negative achieved IOPS");
      TRACON_DCHECK(a.disk_ms >= 0.0, "negative disk time");
      TRACON_DCHECK(a.cpu_used >= 0.0 && a.dom0_cpu >= 0.0,
                    "negative CPU grant");
      cpu_granted += a.cpu_used;
    }
    TRACON_DCHECK(cpu_granted + result.dom0_cpu_total <= cores + 1e-6,
                  "CPU credits exceed physical cores");
  }
}

}  // namespace tracon::virt
