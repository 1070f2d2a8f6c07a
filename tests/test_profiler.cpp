#include "model/profiler.hpp"

#include <gtest/gtest.h>

#include "workload/benchmarks.hpp"
#include "workload/synthetic.hpp"

namespace tracon::model {
namespace {

Profiler make_profiler() {
  return Profiler(virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
}

TEST(Profiler, SoloProfileMatchesAppCharacter) {
  Profiler prof = make_profiler();
  virt::AppBehavior video = *workload::benchmark_by_name("video");
  monitor::AppProfile p = prof.solo_profile(video);
  EXPECT_NEAR(p.reads_per_s, video.read_iops, 0.15 * video.read_iops);
  EXPECT_NEAR(p.writes_per_s, video.write_iops, 0.2 * video.write_iops);
  EXPECT_NEAR(p.domu_cpu, video.cpu_util, 0.15);
  EXPECT_GT(p.dom0_cpu, 0.0);
}

TEST(Profiler, SoloStatsAreCached) {
  Profiler prof = make_profiler();
  virt::AppBehavior app = *workload::benchmark_by_name("email");
  const virt::VmRunStats& a = prof.solo_stats(app);
  const virt::VmRunStats& b = prof.solo_stats(app);
  EXPECT_EQ(&a, &b);  // same cached object
}

TEST(Profiler, IdleBackgroundHandled) {
  Profiler prof = make_profiler();
  virt::AppBehavior idle;
  idle.name = "idle";
  idle.cpu_util = 0.0;
  monitor::AppProfile p = prof.solo_profile(idle);
  EXPECT_EQ(p.reads_per_s, 0.0);
  virt::AppBehavior email = *workload::benchmark_by_name("email");
  virt::PairMeasurement pm = prof.measure(email, idle);
  EXPECT_NEAR(pm.runtime_s, prof.solo_stats(email).runtime_s, 1e-9);
}

TEST(Profiler, TrainingSetHasOneRowPerBackgroundPlusIdle) {
  Profiler prof = make_profiler();
  workload::SyntheticConfig cfg;
  cfg.levels = 2;  // 8 synthetic workloads for speed
  auto backgrounds = workload::synthetic_workloads(cfg);
  virt::AppBehavior app = *workload::benchmark_by_name("web");
  TrainingSet ts = prof.profile_against(app, backgrounds);
  EXPECT_EQ(ts.size(), backgrounds.size() + 1);
  // The idle row's responses equal the solo measurements.
  const Observation& idle_row = ts.observations()[0];
  EXPECT_NEAR(idle_row.runtime, prof.solo_stats(app).runtime_s, 1e-9);
  // Foreground features constant across rows; background varies.
  const auto& obs = ts.observations();
  for (const auto& o : obs) {
    EXPECT_EQ(o.features[0], obs[0].features[0]);
    EXPECT_EQ(o.features[2], obs[0].features[2]);
  }
}

TEST(Profiler, MeasurementsAreDeterministic) {
  Profiler a = make_profiler();
  Profiler b = make_profiler();
  virt::AppBehavior fg = *workload::benchmark_by_name("dedup");
  virt::AppBehavior bg = *workload::benchmark_by_name("video");
  EXPECT_EQ(a.measure(fg, bg).runtime_s, b.measure(fg, bg).runtime_s);
}

TEST(Profiler, GridMatchesSerialMeasurementsAtAnyWorkerCount) {
  workload::SyntheticConfig cfg;
  cfg.levels = 2;  // includes the idle background synth-c0r0w0
  auto backgrounds = workload::synthetic_workloads(cfg);
  std::vector<virt::AppBehavior> targets = {
      *workload::benchmark_by_name("web"),
      *workload::benchmark_by_name("dedup")};
  Profiler serial(virt::HostSimulator(virt::HostConfig::paper_testbed()), 42,
                  1);
  Profiler pooled(virt::HostSimulator(virt::HostConfig::paper_testbed()), 42,
                  3);
  EXPECT_EQ(pooled.threads(), 3u);
  auto grid = pooled.measure_grid(targets, backgrounds);
  ASSERT_EQ(grid.size(), targets.size() * backgrounds.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (std::size_t b = 0; b < backgrounds.size(); ++b) {
      virt::PairMeasurement pm = serial.measure(targets[t], backgrounds[b]);
      const virt::PairMeasurement& g = grid[t * backgrounds.size() + b];
      EXPECT_EQ(g.runtime_s, pm.runtime_s);
      EXPECT_EQ(g.iops, pm.iops);
      EXPECT_EQ(g.reads_per_s, pm.reads_per_s);
      EXPECT_EQ(g.writes_per_s, pm.writes_per_s);
    }
  }
  auto sets = pooled.profile_against(targets, backgrounds);
  ASSERT_EQ(sets.size(), targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    TrainingSet one = serial.profile_against(targets[t], backgrounds);
    ASSERT_EQ(sets[t].size(), one.size());
    for (std::size_t r = 0; r < one.size(); ++r) {
      EXPECT_EQ(sets[t].observations()[r].features,
                one.observations()[r].features);
      EXPECT_EQ(sets[t].observations()[r].runtime,
                one.observations()[r].runtime);
      EXPECT_EQ(sets[t].observations()[r].iops, one.observations()[r].iops);
    }
  }
}

TEST(Profiler, FirstAppOfANameWinsTheSoloCache) {
  Profiler prof = make_profiler();
  virt::AppBehavior email = *workload::benchmark_by_name("email");
  virt::AppBehavior impostor = *workload::benchmark_by_name("video");
  impostor.name = email.name;
  std::vector<virt::AppBehavior> apps = {email, impostor};
  prof.profile_against(apps, std::span<const virt::AppBehavior>{});
  Profiler fresh = make_profiler();
  EXPECT_EQ(prof.solo_stats(impostor).runtime_s,
            fresh.solo_stats(email).runtime_s);
}

TEST(Profiler, DifferentSeedsDifferentNoise) {
  Profiler a(virt::HostSimulator(virt::HostConfig::paper_testbed()), 1);
  Profiler b(virt::HostSimulator(virt::HostConfig::paper_testbed()), 2);
  virt::AppBehavior fg = *workload::benchmark_by_name("dedup");
  virt::AppBehavior bg = *workload::benchmark_by_name("video");
  EXPECT_NE(a.measure(fg, bg).runtime_s, b.measure(fg, bg).runtime_s);
}

}  // namespace
}  // namespace tracon::model
