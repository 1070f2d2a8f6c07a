#include "model/profiler.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace tracon::model {

Profiler::Profiler(virt::HostSimulator sim, std::uint64_t seed,
                   std::size_t threads)
    : sim_(std::move(sim)),
      seed_(seed),
      threads_(threads > 0 ? threads : hardware_threads()) {
  TRACON_REQUIRE(sim_.config().num_cores > 0,
                 "profiling host must have at least one core");
}

std::uint64_t Profiler::run_seed(const std::string& a,
                                 const std::string& b) const {
  std::uint64_t h = seed_;
  // FNV-style mixing keeps runs deterministic per (seed, fg, bg) triple.
  for (char c : a) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  h = (h ^ 0x7c) * 0x100000001b3ULL;
  for (char c : b) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  return h == 0 ? 1 : h;
}

virt::VmRunStats Profiler::run_solo(const virt::AppBehavior& app) const {
  virt::VmRunStats stats;
  if (app.is_idle()) {
    // An idle "workload" contributes nothing; synthesize empty stats.
    stats.present = true;
    stats.completed = true;
  } else {
    stats = sim_.solo(app, run_seed(app.name, "<solo>"));
    TRACON_ASSERT(stats.completed, "solo run did not complete");
  }
  return stats;
}

void Profiler::cache_solos(std::span<const virt::AppBehavior> apps) {
  std::vector<const virt::AppBehavior*> missing;
  for (const virt::AppBehavior& app : apps) {
    const bool queued =
        std::any_of(missing.begin(), missing.end(),
                    [&](const virt::AppBehavior* m) {
                      return m->name == app.name;
                    });
    if (!queued && !solo_cache_.contains(app.name)) missing.push_back(&app);
  }
  std::vector<virt::VmRunStats> stats(missing.size());
  parallel_for(threads_, missing.size(),
               [&](std::size_t i) { stats[i] = run_solo(*missing[i]); });
  for (std::size_t i = 0; i < missing.size(); ++i)
    solo_cache_.emplace(missing[i]->name, stats[i]);
}

const virt::VmRunStats& Profiler::solo_stats(const virt::AppBehavior& app) {
  auto it = solo_cache_.find(app.name);
  if (it != solo_cache_.end()) return it->second;
  return solo_cache_.emplace(app.name, run_solo(app)).first->second;
}

monitor::AppProfile Profiler::solo_profile(const virt::AppBehavior& app) {
  return monitor::AppProfile::from_run_stats(solo_stats(app));
}

virt::PairMeasurement Profiler::measure_cached(
    const virt::AppBehavior& target,
    const virt::AppBehavior& background) const {
  if (background.is_idle()) {
    const virt::VmRunStats& solo = solo_cache_.at(target.name);
    return {solo.runtime_s, solo.iops, solo.reads_per_s, solo.writes_per_s};
  }
  return sim_.measure_pair(target, background,
                           run_seed(target.name, background.name));
}

virt::PairMeasurement Profiler::measure(const virt::AppBehavior& target,
                                        const virt::AppBehavior& background) {
  if (background.is_idle()) solo_stats(target);
  return measure_cached(target, background);
}

std::vector<virt::PairMeasurement> Profiler::measure_grid(
    std::span<const virt::AppBehavior> targets,
    std::span<const virt::AppBehavior> backgrounds) {
  cache_solos(targets);
  const std::size_t cols = backgrounds.size();
  std::vector<virt::PairMeasurement> grid(targets.size() * cols);
  parallel_for(threads_, grid.size(), [&](std::size_t i) {
    grid[i] = measure_cached(targets[i / cols], backgrounds[i % cols]);
  });
  return grid;
}

TrainingSet Profiler::profile_against(
    const virt::AppBehavior& target,
    std::span<const virt::AppBehavior> backgrounds, bool include_idle) {
  return std::move(
      profile_against(std::span(&target, 1), backgrounds, include_idle)[0]);
}

std::vector<TrainingSet> Profiler::profile_against(
    std::span<const virt::AppBehavior> targets,
    std::span<const virt::AppBehavior> backgrounds, bool include_idle) {
  // Targets before backgrounds, so a target's own solo wins a name
  // clash with a background.
  cache_solos(targets);
  cache_solos(backgrounds);
  const std::vector<virt::PairMeasurement> grid =
      measure_grid(targets, backgrounds);
  std::vector<TrainingSet> sets(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    monitor::AppProfile fg = solo_profile(targets[t]);
    if (include_idle) {
      const virt::VmRunStats& solo = solo_stats(targets[t]);
      sets[t].add(fg, monitor::AppProfile::idle(), solo.runtime_s, solo.iops);
    }
    for (std::size_t b = 0; b < backgrounds.size(); ++b) {
      const virt::PairMeasurement& pm = grid[t * backgrounds.size() + b];
      sets[t].add(fg, solo_profile(backgrounds[b]), pm.runtime_s, pm.iops);
    }
  }
  return sets;
}

}  // namespace tracon::model
