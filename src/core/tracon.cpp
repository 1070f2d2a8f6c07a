#include "core/tracon.hpp"

#include "obs/scope_timer.hpp"
#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
#include "sched/mix.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace tracon::core {

std::string scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo: return "FIFO";
    case SchedulerKind::kMios: return "MIOS";
    case SchedulerKind::kMibs: return "MIBS";
    case SchedulerKind::kMix: return "MIX";
  }
  return "unknown";
}

Tracon::Tracon(TraconConfig cfg)
    : cfg_(cfg),
      profiler_(virt::HostSimulator(cfg.host), cfg.seed, cfg.threads),
      synthetic_(workload::synthetic_workloads(cfg.synthetic)) {
  TRACON_REQUIRE(cfg.host.num_cores > 0, "host must have at least one core");
}

void Tracon::register_applications(
    const std::vector<virt::AppBehavior>& apps) {
  TRACON_REQUIRE(!apps.empty(), "need at least one application");
  apps_ = apps;
  {
    TRACON_PROF_SCOPE("model.profile");
    training_sets_ = profiler_.profile_against(apps_, synthetic_);
  }
  {
    TRACON_PROF_SCOPE("sim.perf_table");
    perf_table_ = sim::PerfTable::build(profiler_, apps_);
  }
  models_.clear();
  predictor_.reset();
}

std::vector<model::ModelPair> Tracon::fit_models(model::ModelKind kind) const {
  TRACON_REQUIRE(!apps_.empty(), "register applications before training");
  TRACON_PROF_SCOPE("model.train");
  std::vector<model::ModelPair> models(apps_.size());
  parallel_for(profiler_.threads(), models.size(), [&](std::size_t a) {
    models[a] = model::train_model_pair(kind, training_sets_[a]);
  });
  return models;
}

std::vector<monitor::AppProfile> Tracon::app_profiles() const {
  std::vector<monitor::AppProfile> profiles;
  profiles.reserve(apps_.size());
  for (std::size_t a = 0; a < apps_.size(); ++a)
    profiles.push_back(perf_table_->profile(a));
  return profiles;
}

void Tracon::train(model::ModelKind kind) {
  models_ = fit_models(kind);
  kind_ = kind;
  predictor_ = sched::TablePredictor::from_models(models_, app_profiles());
}

sched::TablePredictor Tracon::train_predictor(model::ModelKind kind) const {
  return sched::TablePredictor::from_models(fit_models(kind), app_profiles());
}

const sim::PerfTable& Tracon::perf_table() const {
  TRACON_REQUIRE(perf_table_.has_value(),
                 "register applications before using the perf table");
  return *perf_table_;
}

const sched::TablePredictor& Tracon::predictor() const {
  TRACON_REQUIRE(predictor_.has_value(), "train before using the predictor");
  return *predictor_;
}

const model::TrainingSet& Tracon::training_set(std::size_t app) const {
  TRACON_REQUIRE(app < training_sets_.size(), "app index out of range");
  return training_sets_[app];
}

const model::ModelPair& Tracon::models(std::size_t app) const {
  TRACON_REQUIRE(app < models_.size(), "app index out of range (trained?)");
  return models_[app];
}

std::unique_ptr<sched::Scheduler> Tracon::make_scheduler(
    SchedulerKind kind, sched::Objective objective, std::size_t queue_limit,
    double batch_timeout_s, sched::PlacementPolicy policy,
    const sched::Predictor* predictor_override) const {
  if (kind == SchedulerKind::kFifo)
    return std::make_unique<sched::FifoScheduler>(cfg_.seed + 1);
  const sched::Predictor& pred =
      predictor_override != nullptr ? *predictor_override : predictor();
  switch (kind) {
    case SchedulerKind::kMios: {
      // MIOS dispatches every task immediately to its best VM
      // (Algorithm 1) — it has no admission control, which is why the
      // paper finds it the weakest of the three TRACON schedulers.
      sched::PlacementPolicy mios_policy = policy;
      mios_policy.beneficial_joins_only = false;
      return std::make_unique<sched::MiosScheduler>(pred, objective,
                                                    mios_policy);
    }
    case SchedulerKind::kMibs:
      return std::make_unique<sched::MibsScheduler>(
          pred, objective, queue_limit, batch_timeout_s, policy);
    case SchedulerKind::kMix:
      return std::make_unique<sched::MixScheduler>(
          pred, objective, queue_limit, batch_timeout_s, policy);
    case SchedulerKind::kFifo: break;
  }
  throw std::invalid_argument("unknown scheduler kind");
}

}  // namespace tracon::core
