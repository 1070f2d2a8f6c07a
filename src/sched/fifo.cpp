#include "sched/fifo.hpp"

namespace tracon::sched {

std::vector<Placement> FifoScheduler::schedule(
    std::span<const QueuedTask> queue, const ClusterCounts& cluster,
    const ScheduleContext& ctx) {
  // Nothing to place: skip the cluster copy. No RNG draw is skipped,
  // since the loop below would not run either.
  if (queue.empty() || !cluster.any_free()) {
    note_round(queue.size(), 0, 0.0, ctx.now_s);
    return {};
  }
  ClusterCounts state = cluster;
  std::vector<Placement> out;
  for (std::size_t pos = 0; pos < queue.size() && state.any_free(); ++pos) {
    // Draw a free VM slot uniformly: an empty machine offers two slots,
    // a half-busy machine one.
    std::size_t total = state.free_slots();
    std::size_t pick = rng_.index(total);
    std::optional<std::size_t> neighbour;
    if (pick < 2 * state.empty_machines()) {
      neighbour = std::nullopt;
    } else {
      pick -= 2 * state.empty_machines();
      for (std::size_t a = 0; a < state.num_apps(); ++a) {
        if (pick < state.half_busy(a)) {
          neighbour = a;
          break;
        }
        pick -= state.half_busy(a);
      }
    }
    state.place(queue[pos].app, neighbour);
    out.push_back({pos, neighbour, std::nullopt});
  }
  // FIFO is interference-oblivious, so its predicted cost is always 0.
  note_round(queue.size(), out.size(), 0.0, ctx.now_s);
  return out;
}

}  // namespace tracon::sched
