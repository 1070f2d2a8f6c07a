// Application profiling: drives the host simulator to produce solo
// profiles and interference training sets, as the paper does on its Xen
// testbed ("we generate its interference profile by running it on VM1
// while varying the workloads on VM2").
//
// Every host-sim run is seeded by run_seed(target, background), a
// function of the two names only, so the runs do not depend on their
// order. The batch paths (profile_against, measure_grid) therefore run
// them on a worker pool into preallocated slots; the results are
// bit-identical for every worker count.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "model/training.hpp"
#include "monitor/profile.hpp"
#include "virt/host_sim.hpp"

namespace tracon::model {

class Profiler {
 public:
  /// `threads` sizes the worker pool of the batch paths; 0 means
  /// hardware_threads(). It changes wall-clock time only.
  explicit Profiler(virt::HostSimulator sim, std::uint64_t seed = 42,
                    std::size_t threads = 0);

  const virt::HostSimulator& simulator() const { return sim_; }
  std::size_t threads() const { return threads_; }

  /// Solo run statistics for an app; cached by application name.
  const virt::VmRunStats& solo_stats(const virt::AppBehavior& app);

  /// Solo application profile (the model's controlled variables).
  monitor::AppProfile solo_profile(const virt::AppBehavior& app);

  /// Builds the training set for `target`: one co-located measurement
  /// per background (plus the idle baseline when `include_idle`). Rows
  /// carry (target solo profile, background solo profile) as features
  /// and the measured runtime / IOPS under co-location as responses.
  TrainingSet profile_against(
      const virt::AppBehavior& target,
      std::span<const virt::AppBehavior> backgrounds,
      bool include_idle = true);

  /// One training set per target, with the whole (target x background)
  /// grid measured on one pool.
  std::vector<TrainingSet> profile_against(
      std::span<const virt::AppBehavior> targets,
      std::span<const virt::AppBehavior> backgrounds,
      bool include_idle = true);

  /// One co-located measurement (also used for ground-truth tables).
  virt::PairMeasurement measure(const virt::AppBehavior& target,
                                const virt::AppBehavior& background);

  /// Every (target, background) measurement, row-major by target.
  std::vector<virt::PairMeasurement> measure_grid(
      std::span<const virt::AppBehavior> targets,
      std::span<const virt::AppBehavior> backgrounds);

 private:
  std::uint64_t run_seed(const std::string& a, const std::string& b) const;

  /// Caches the solo stats of every app in `apps` not cached yet: the
  /// runs go to the pool, the inserts happen in order, and the first
  /// app of a name wins, as with one solo_stats call per app.
  void cache_solos(std::span<const virt::AppBehavior> apps);
  virt::VmRunStats run_solo(const virt::AppBehavior& app) const;
  /// measure() for a target whose solo stats are cached; safe to call
  /// from pool workers.
  virt::PairMeasurement measure_cached(
      const virt::AppBehavior& target,
      const virt::AppBehavior& background) const;

  virt::HostSimulator sim_;
  std::uint64_t seed_;
  std::size_t threads_;
  std::map<std::string, virt::VmRunStats> solo_cache_;
};

}  // namespace tracon::model
