#include "obs/attribution.hpp"

#include <algorithm>
#include <cmath>

#include "obs/accuracy.hpp"

namespace tracon::obs {

AttributionReport attribute(std::span<const DecisionEvent> events) {
  AttributionReport report;

  // Last decision wins per task id, matching DecisionLog's index.
  std::map<std::uint64_t, std::size_t> decision_by_task;
  std::uint64_t total_candidates = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const DecisionEvent& e = events[i];
    if (e.kind == DecisionEvent::Kind::kDecision) {
      ++report.decisions;
      total_candidates += e.candidates.size();
      decision_by_task[e.task] = i;
    }
  }
  if (report.decisions > 0) {
    report.mean_candidates = static_cast<double>(total_candidates) /
                             static_cast<double>(report.decisions);
  }

  double total_abs_runtime_error = 0.0;
  double total_abs_iops_error = 0.0;
  for (const DecisionEvent& e : events) {
    if (e.kind != DecisionEvent::Kind::kOutcome) continue;
    ++report.outcomes;
    auto it = decision_by_task.find(e.task);
    if (it == decision_by_task.end()) continue;  // e.g. FIFO placements
    const DecisionEvent& d = events[it->second];

    AttributionRow row;
    row.task = e.task;
    row.decided_at_s = d.time_s;
    row.completed_at_s = e.time_s;
    row.app = e.app;
    row.neighbour = e.neighbour;
    row.machine = e.machine;
    row.scheduler = d.scheduler;
    row.candidates = d.candidates.size();
    row.margin = d.margin;
    row.predicted_runtime_s = d.predicted_runtime_s;
    row.runtime_s = e.runtime_s;
    row.runtime_error = relative_error(d.predicted_runtime_s, e.runtime_s);
    row.predicted_iops = d.predicted_iops;
    row.iops = e.iops;
    row.iops_error = relative_error(d.predicted_iops, e.iops);
    row.realized_slowdown =
        e.solo_runtime_s > 0.0 ? e.runtime_s / e.solo_runtime_s : 0.0;

    total_abs_runtime_error += std::abs(row.runtime_error);
    total_abs_iops_error += std::abs(row.iops_error);

    report.pairs[{row.app, row.neighbour}].add(row.realized_slowdown,
                                               std::abs(row.runtime_error));

    ++report.joined;
    report.rows.push_back(std::move(row));
  }
  if (report.joined > 0) {
    total_abs_runtime_error /= static_cast<double>(report.joined);
    total_abs_iops_error /= static_cast<double>(report.joined);
    report.mean_abs_runtime_error = total_abs_runtime_error;
    report.mean_abs_iops_error = total_abs_iops_error;
  }

  report.mispredict_order.resize(report.rows.size());
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    report.mispredict_order[i] = i;
  }
  std::sort(report.mispredict_order.begin(), report.mispredict_order.end(),
            [&report](std::size_t a, std::size_t b) {
              const double ea = std::abs(report.rows[a].runtime_error);
              const double eb = std::abs(report.rows[b].runtime_error);
              if (ea != eb) return ea > eb;
              return report.rows[a].task < report.rows[b].task;
            });

  return report;
}

}  // namespace tracon::obs
