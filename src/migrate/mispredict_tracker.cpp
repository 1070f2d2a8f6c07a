#include "migrate/mispredict_tracker.hpp"

#include <algorithm>
#include <cmath>

#include "obs/accuracy.hpp"

namespace tracon::migrate {

void MispredictTracker::observe(std::uint64_t task, std::size_t app,
                                const std::optional<std::size_t>& neighbour,
                                double predicted_runtime_s, double runtime_s,
                                double solo_runtime_s) {
  // The same expressions obs::attribute evaluates per joined row.
  MispredictRow row;
  row.task = task;
  row.app = app;
  row.neighbour = neighbour;
  row.abs_runtime_error =
      std::abs(obs::relative_error(predicted_runtime_s, runtime_s));
  row.realized_slowdown =
      solo_runtime_s > 0.0 ? runtime_s / solo_runtime_s : 0.0;

  pairs_[{app, neighbour}].add(row.realized_slowdown, row.abs_runtime_error);

  // Keep the top_k in mispredict_order: the new row goes before the
  // first kept row it outranks, and falls off when none is left.
  auto pos = std::find_if(rows_.begin(), rows_.end(),
                          [&row](const MispredictRow& kept) {
                            if (row.abs_runtime_error != kept.abs_runtime_error)
                              return row.abs_runtime_error >
                                     kept.abs_runtime_error;
                            return row.task < kept.task;
                          });
  if (static_cast<std::size_t>(pos - rows_.begin()) >= top_k_) return;
  rows_.insert(pos, row);
  if (rows_.size() > top_k_) rows_.pop_back();
}

}  // namespace tracon::migrate
