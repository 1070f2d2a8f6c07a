#include "virt/fairshare.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace tracon::virt {
namespace {

TEST(Waterfill, AllDemandsFitAreGranted) {
  auto alloc = waterfill({1.0, 2.0, 3.0}, 10.0);
  EXPECT_DOUBLE_EQ(alloc[0], 1.0);
  EXPECT_DOUBLE_EQ(alloc[1], 2.0);
  EXPECT_DOUBLE_EQ(alloc[2], 3.0);
}

TEST(Waterfill, EqualSplitWhenAllUnsatisfied) {
  auto alloc = waterfill({5.0, 5.0, 5.0}, 6.0);
  for (double a : alloc) EXPECT_DOUBLE_EQ(a, 2.0);
}

TEST(Waterfill, SmallDemandSatisfiedRestSplit) {
  auto alloc = waterfill({1.0, 10.0, 10.0}, 7.0);
  EXPECT_DOUBLE_EQ(alloc[0], 1.0);
  EXPECT_DOUBLE_EQ(alloc[1], 3.0);
  EXPECT_DOUBLE_EQ(alloc[2], 3.0);
}

TEST(Waterfill, EmptyAndZeroCases) {
  EXPECT_TRUE(waterfill({}, 5.0).empty());
  auto alloc = waterfill({1.0, 2.0}, 0.0);
  EXPECT_DOUBLE_EQ(alloc[0], 0.0);
  EXPECT_DOUBLE_EQ(alloc[1], 0.0);
}

TEST(Waterfill, NegativeInputsThrow) {
  EXPECT_THROW(waterfill({-1.0}, 5.0), std::invalid_argument);
  EXPECT_THROW(waterfill({1.0}, -5.0), std::invalid_argument);
}

// Properties over random demand sets.
class WaterfillProperty : public ::testing::TestWithParam<int> {};

TEST_P(WaterfillProperty, Invariants) {
  // Deterministic pseudo-random demands from the parameter.
  unsigned seed = static_cast<unsigned>(GetParam());
  std::vector<double> demands;
  for (int i = 0; i < 6; ++i) {
    seed = seed * 1664525u + 1013904223u;
    demands.push_back(static_cast<double>(seed % 1000) / 100.0);
  }
  double capacity = 20.0;
  auto alloc = waterfill(demands, capacity);

  double total = std::accumulate(alloc.begin(), alloc.end(), 0.0);
  EXPECT_LE(total, capacity + 1e-9);
  double demand_total = std::accumulate(demands.begin(), demands.end(), 0.0);
  // Work conserving: either everything granted or capacity exhausted.
  if (demand_total <= capacity) {
    EXPECT_NEAR(total, demand_total, 1e-9);
  } else {
    EXPECT_NEAR(total, capacity, 1e-9);
  }
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_LE(alloc[i], demands[i] + 1e-12);
    EXPECT_GE(alloc[i], 0.0);
  }
  // Max-min fairness: an unsatisfied consumer's share is >= any other
  // consumer's allocation (no one gets more while someone starves).
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (alloc[i] < demands[i] - 1e-9) {
      for (std::size_t j = 0; j < demands.size(); ++j)
        EXPECT_GE(alloc[i] + 1e-9, std::min(alloc[j], demands[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDemands, WaterfillProperty,
                         ::testing::Range(1, 25));

// ---- solve_speeds ----------------------------------------------------

VmDemand cpu_app(double cpu) {
  VmDemand d;
  d.cpu = cpu;
  return d;
}

VmDemand io_app(double cpu, double reads, double writes, double kb,
                double sigma) {
  VmDemand d;
  d.cpu = cpu;
  d.read_iops = reads;
  d.write_iops = writes;
  d.request_kb = kb;
  d.sequentiality = sigma;
  return d;
}

TEST(SolveSpeeds, EmptyHost) {
  HostAllocation a = solve_speeds(HostConfig::paper_testbed(), {});
  EXPECT_TRUE(a.vms.empty());
  EXPECT_EQ(a.dom0_cpu_total, 0.0);
}

TEST(SolveSpeeds, SoloFeasibleAppsRunFullSpeed) {
  HostConfig cfg = HostConfig::paper_testbed();
  auto a = solve_speeds(cfg, {io_app(0.15, 400, 0, 64, 0.95)});
  EXPECT_NEAR(a.vms[0].speed, 1.0, 1e-6);
  EXPECT_NEAR(a.vms[0].iops, 400.0, 1e-6);
}

TEST(SolveSpeeds, TwoCpuHogsShareTheCore) {
  HostConfig cfg = HostConfig::paper_testbed();
  auto a = solve_speeds(cfg, {cpu_app(0.95), cpu_app(0.95)});
  EXPECT_NEAR(a.vms[0].speed, 0.5 / 0.95, 1e-6);
  EXPECT_NEAR(a.vms[1].speed, a.vms[0].speed, 1e-9);
}

TEST(SolveSpeeds, SymmetricDemandsGetSymmetricSpeeds) {
  HostConfig cfg = HostConfig::paper_testbed();
  VmDemand d = io_app(0.3, 200, 100, 64, 0.8);
  auto a = solve_speeds(cfg, {d, d});
  EXPECT_NEAR(a.vms[0].speed, a.vms[1].speed, 1e-9);
}

TEST(SolveSpeeds, SequentialStreamsCollapseEachOther) {
  HostConfig cfg = HostConfig::paper_testbed();
  VmDemand seq = io_app(0.15, 800, 0, 64, 0.95);
  auto solo = solve_speeds(cfg, {seq});
  auto pair = solve_speeds(cfg, {seq, seq});
  // Table 1: SeqRead vs SeqRead is an order-of-magnitude slowdown.
  EXPECT_GT(solo.vms[0].speed / pair.vms[0].speed, 5.0);
}

TEST(SolveSpeeds, CpuHogBarelyHurtsIoApp) {
  HostConfig cfg = HostConfig::paper_testbed();
  VmDemand seq = io_app(0.15, 800, 0, 64, 0.95);
  auto pair = solve_speeds(cfg, {seq, cpu_app(0.95)});
  // Table 1: SeqRead vs CPU-high ~ 1.03x.
  EXPECT_GT(pair.vms[0].speed, 0.9);
}

TEST(SolveSpeeds, Dom0CpuAccounted) {
  HostConfig cfg = HostConfig::paper_testbed();
  VmDemand seq = io_app(0.15, 800, 0, 64, 0.95);
  auto a = solve_speeds(cfg, {seq});
  EXPECT_GT(a.dom0_cpu_total, 0.0);
  EXPECT_NEAR(a.vms[0].dom0_cpu, a.dom0_cpu_total, 1e-12);
  // Writes cost more Dom0 CPU than reads.
  auto writes = solve_speeds(cfg, {io_app(0.15, 0, 400, 64, 0.95)});
  auto reads = solve_speeds(cfg, {io_app(0.15, 400, 0, 64, 0.95)});
  EXPECT_GT(writes.dom0_cpu_total, reads.dom0_cpu_total);
}

TEST(SolveSpeeds, AddingCompetitorNeverHelps) {
  HostConfig cfg = HostConfig::paper_testbed();
  VmDemand base = io_app(0.4, 200, 100, 64, 0.8);
  double solo_speed = solve_speeds(cfg, {base}).vms[0].speed;
  for (const VmDemand& other :
       {cpu_app(0.95), io_app(0.15, 800, 0, 64, 0.95),
        io_app(0.5, 100, 300, 32, 0.4)}) {
    double paired = solve_speeds(cfg, {base, other}).vms[0].speed;
    EXPECT_LE(paired, solo_speed + 1e-6);
  }
}

TEST(SolveSpeeds, SpeedsAreClampedAndFinite) {
  HostConfig cfg = HostConfig::paper_testbed();
  auto a = solve_speeds(cfg, {io_app(0.9, 1000, 800, 256, 0.2),
                              io_app(0.9, 1000, 800, 256, 0.2)});
  for (const auto& vm : a.vms) {
    EXPECT_GE(vm.speed, 0.0);
    EXPECT_LE(vm.speed, 1.0);
    EXPECT_TRUE(std::isfinite(vm.iops));
  }
  EXPECT_LE(a.disk_utilization, 1.0);
}

TEST(SolveSpeeds, ReusedScratchMatchesFreshSolve) {
  // One scratch and one output across demand sets that grow and shrink:
  // nothing from an earlier solve may leak into a later one.
  HostConfig cfg = HostConfig::paper_testbed();
  const std::vector<std::vector<VmDemand>> cases = {
      {io_app(0.45, 374, 125, 64, 0.95), io_app(0.42, 210, 8, 128, 0.90)},
      {io_app(0.9, 1000, 800, 256, 0.2), cpu_app(0.95),
       io_app(0.15, 800, 0, 64, 0.95)},
      {cpu_app(0.3)},
      {},
      {io_app(0.4, 200, 100, 64, 0.8), io_app(0.5, 100, 300, 32, 0.4)},
  };
  SolverScratch scratch;
  HostAllocation reused;
  for (const auto& demands : cases) {
    const HostAllocation fresh = solve_speeds(cfg, demands);
    solve_speeds(cfg, demands, scratch, reused);
    ASSERT_EQ(reused.vms.size(), fresh.vms.size());
    EXPECT_EQ(reused.iterations, fresh.iterations);
    EXPECT_EQ(reused.dom0_cpu_total, fresh.dom0_cpu_total);
    EXPECT_EQ(reused.disk_utilization, fresh.disk_utilization);
    for (std::size_t v = 0; v < fresh.vms.size(); ++v) {
      EXPECT_EQ(reused.vms[v].speed, fresh.vms[v].speed);
      EXPECT_EQ(reused.vms[v].io_speed, fresh.vms[v].io_speed);
      EXPECT_EQ(reused.vms[v].cpu_used, fresh.vms[v].cpu_used);
      EXPECT_EQ(reused.vms[v].dom0_cpu, fresh.vms[v].dom0_cpu);
      EXPECT_EQ(reused.vms[v].disk_ms, fresh.vms[v].disk_ms);
    }
  }
}

TEST(Waterfill, InPlaceMatchesReturningForm) {
  const std::vector<double> demands = {3.0, 1.0, 3.0, 0.5, 7.0};
  std::vector<double> alloc(demands.size(), -1.0);
  std::vector<std::size_t> order = {9, 9};  // stale scratch is overwritten
  waterfill(demands, 8.0, alloc, order);
  EXPECT_EQ(alloc, waterfill(demands, 8.0));
  std::vector<double> short_alloc(2);
  EXPECT_THROW(waterfill(demands, 8.0, short_alloc, order),
               std::invalid_argument);
}

TEST(SolveSpeeds, InvalidDemandThrows) {
  HostConfig cfg = HostConfig::paper_testbed();
  VmDemand bad;
  bad.cpu = -0.1;
  EXPECT_THROW(solve_speeds(cfg, {bad}), std::invalid_argument);
  VmDemand bad2;
  bad2.sequentiality = 1.5;
  EXPECT_THROW(solve_speeds(cfg, {bad2}), std::invalid_argument);
}

}  // namespace
}  // namespace tracon::virt
