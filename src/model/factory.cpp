#include "model/factory.hpp"

#include "model/linear.hpp"
#include "model/nonlinear.hpp"
#include "model/wmm.hpp"
#include "obs/metrics.hpp"
#include "obs/scope_timer.hpp"
#include "util/error.hpp"

namespace tracon::model {

namespace {
/// All features except the two Dom0 (global CPU) utilizations —
/// profile order is {domu, dom0, reads, writes} per VM.
const std::vector<std::size_t> kNoDom0Features = {0, 2, 3, 4, 6, 7};
}  // namespace

std::string model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kWmm: return "WMM";
    case ModelKind::kLinear: return "LM";
    case ModelKind::kNonlinear: return "NLM";
    case ModelKind::kNonlinearNoDom0: return "NLM-noDom0";
    case ModelKind::kNonlinearLog: return "NLM-log";
  }
  return "unknown";
}

std::string model_kind_metric_family(ModelKind kind) {
  return obs::metric_path_component(model_kind_name(kind));
}

std::unique_ptr<InterferenceModel> train_model(ModelKind kind,
                                               const TrainingSet& data,
                                               Response response) {
  TRACON_PROF_SCOPE("model.fit");
  switch (kind) {
    case ModelKind::kWmm:
      return std::make_unique<WmmModel>(data, response);
    case ModelKind::kLinear:
      return std::make_unique<LinearModel>(data, response);
    case ModelKind::kNonlinear:
      return std::make_unique<NonlinearModel>(data, response);
    case ModelKind::kNonlinearNoDom0: {
      NonlinearConfig cfg;
      cfg.active_features = kNoDom0Features;
      return std::make_unique<NonlinearModel>(data, response, cfg);
    }
    case ModelKind::kNonlinearLog: {
      NonlinearConfig cfg;
      cfg.log_response = true;
      return std::make_unique<NonlinearModel>(data, response, cfg);
    }
  }
  throw std::invalid_argument("unknown model kind");
}

ModelPair train_model_pair(ModelKind kind, const TrainingSet& data) {
  ModelPair pair;
  pair.runtime = train_model(kind, data, Response::kRuntime);
  pair.iops = train_model(kind, data, Response::kIops);
  return pair;
}

}  // namespace tracon::model
