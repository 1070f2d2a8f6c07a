// Fair-share allocation primitives for the host simulator.
//
// Both the Xen credit CPU scheduler and a fair-queuing disk scheduler
// approximate max-min fair, work-conserving division of a capacity among
// competing demands: every active consumer is entitled to an equal
// share, and capacity a consumer does not need is redistributed.
// `waterfill` implements that division; `solve_speeds` couples the CPU
// and disk allocations (through Dom0 I/O handling cost and the
// interleaving-dependent per-request disk cost) via damped fixed-point
// iteration and returns the achievable speed of each VM's application.
// Both have an in-place form over caller-owned scratch, so a caller that
// solves once per simulation step allocates nothing after the first.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "virt/host_config.hpp"

namespace tracon::virt {

/// Max-min fair, work-conserving allocation of `capacity` among
/// `demands` (non-negative). Returns per-consumer allocations with
/// alloc[i] <= demands[i], sum(alloc) <= capacity, and equal shares
/// among unsatisfied consumers.
std::vector<double> waterfill(const std::vector<double>& demands,
                              double capacity);

/// In-place waterfill: writes the allocation into `alloc` (same size as
/// `demands`); `order` is scratch for the service order.
void waterfill(std::span<const double> demands, double capacity,
               std::span<double> alloc, std::vector<std::size_t>& order);

/// Instantaneous resource demand of one VM's application at full speed.
/// CPU demand is presented unconditionally (the paper's load generator
/// runs its arithmetic loop independently of I/O completion), while I/O
/// issue is throttled by both CPU and disk grants.
struct VmDemand {
  double cpu = 0.0;            ///< DomU CPU demand (cores)
  double read_iops = 0.0;      ///< read requests per second at full speed
  double write_iops = 0.0;     ///< write requests per second at full speed
  double request_kb = 64.0;
  double sequentiality = 0.5;  ///< in [0,1]

  double total_iops() const { return read_iops + write_iops; }
};

/// Per-VM outcome of the coupled allocation.
struct VmAllocation {
  double speed = 1.0;        ///< achieved fraction of solo progress rate
  double io_speed = 1.0;     ///< achieved fraction of full I/O rate
  double cpu_speed = 1.0;    ///< achieved fraction of full CPU demand
  double cpu_used = 0.0;     ///< DomU CPU actually consumed (cores)
  double dom0_cpu = 0.0;     ///< Dom0 CPU attributable to this VM (cores)
  double iops = 0.0;         ///< achieved requests per second (read+write)
  double disk_ms = 0.0;      ///< disk time consumed (ms per second)
};

struct HostAllocation {
  std::vector<VmAllocation> vms;
  double dom0_cpu_total = 0.0;   ///< cores consumed by Dom0
  double disk_utilization = 0.0; ///< fraction of disk time busy
  int iterations = 0;            ///< fixed-point iterations used
};

/// Per-VM working vectors of solve_speeds. They only grow, so reusing
/// one across calls makes every solve after the first allocation-free.
struct SolverScratch {
  std::vector<double> dom0_rate, cpu_other, io_speed, cpu_speed, cost_ms,
      saturation, disk_demand, disk_alloc, cap_disk, cpu_demand, cpu_alloc,
      new_cpu_speed;
  std::vector<std::size_t> order;
};

/// Computes achievable speeds for the given concurrent demands on a
/// host. Deterministic. Demands may be empty (returns empty allocation).
HostAllocation solve_speeds(const HostConfig& cfg,
                            const std::vector<VmDemand>& demands);

/// In-place solve_speeds: overwrites `out`, reusing its capacity and
/// the scratch vectors. Bit-identical to the returning form.
void solve_speeds(const HostConfig& cfg, std::span<const VmDemand> demands,
                  SolverScratch& scratch, HostAllocation& out);

}  // namespace tracon::virt
