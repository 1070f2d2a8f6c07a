// The sharded runner's record-store merge: folds the per-shard task
// events, tracer events, decision records and spans into one stream
// each, in the canonical order DESIGN.md §7 fixes for every store —
// (key, shard, position within the shard), where the key is the
// record's time (a span's start). That is exactly the order of
// concatenating the shards in shard order and stable-sorting on the
// key, so equal times keep shard order and the merged bytes never
// depend on the thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/decision_log.hpp"
#include "obs/event_tracer.hpp"
#include "obs/span_log.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"

namespace tracon::sim {

/// Where one shard's local ids begin in the merged id space: machines
/// after the machines of the shards before it, task ids after their
/// arrivals (task ids are per-shard arrival indices).
struct ShardBase {
  std::size_t machine = 0;
  std::uint64_t task = 0;
};

/// Shift an event's shard-local machine (and task) ids by its shard's
/// base. The "no machine" sentinels stay as they are.
inline void rebase(TaskEvent& e, const ShardBase& base) {
  if (e.machine != TaskEvent::kNoMachine) e.machine += base.machine;
}
inline void rebase(obs::TraceEvent& e, const ShardBase& base) {
  if (e.machine != obs::TraceEvent::kNone) e.machine += base.machine;
}
inline void rebase(obs::DecisionEvent& e, const ShardBase& base) {
  if (e.machine != obs::DecisionEvent::kNoMachine) e.machine += base.machine;
  if (e.from_machine != obs::DecisionEvent::kNoMachine)
    e.from_machine += base.machine;
  e.task += base.task;
}
inline void rebase(obs::SpanEvent& e, const ShardBase& base) {
  if (e.machine != obs::SpanEvent::kNoMachine) e.machine += base.machine;
  e.task += base.task;
}

/// Merges `parts` (one vector per shard, in shard order) into one
/// stream ordered by (key(event), shard, position), rebasing each event
/// by `bases[shard]`. Only 16-byte (key, shard, position) tuples are
/// sorted; every event is moved exactly once into the result, and each
/// shard's vector is released as soon as its last event has moved.
/// The inputs need not be sorted by key (spans are not).
template <typename Event, typename KeyFn>
std::vector<Event> merge_shards(std::vector<std::vector<Event>> parts,
                                const std::vector<ShardBase>& bases,
                                KeyFn key) {
  TRACON_REQUIRE(parts.size() == bases.size(),
                 "merge needs one base per shard");
  struct Slot {
    double key;
    std::uint32_t shard;
    std::uint32_t pos;
  };
  std::size_t total = 0;
  for (const auto& part : parts) {
    TRACON_REQUIRE(part.size() <= std::numeric_limits<std::uint32_t>::max(),
                   "shard store too large to merge");
    total += part.size();
  }
  std::vector<Slot> order;
  order.reserve(total);
  for (std::size_t s = 0; s < parts.size(); ++s)
    for (std::size_t i = 0; i < parts[s].size(); ++i)
      order.push_back({key(parts[s][i]), static_cast<std::uint32_t>(s),
                       static_cast<std::uint32_t>(i)});
  std::sort(order.begin(), order.end(), [](const Slot& a, const Slot& b) {
    if (a.key < b.key) return true;
    if (b.key < a.key) return false;
    return a.shard != b.shard ? a.shard < b.shard : a.pos < b.pos;
  });

  std::vector<std::size_t> left(parts.size());
  for (std::size_t s = 0; s < parts.size(); ++s) left[s] = parts[s].size();
  std::vector<Event> merged;
  merged.reserve(total);
  for (const Slot& slot : order) {
    Event& e = parts[slot.shard][slot.pos];
    rebase(e, bases[slot.shard]);
    merged.push_back(std::move(e));
    if (--left[slot.shard] == 0) std::vector<Event>().swap(parts[slot.shard]);
  }
  return merged;
}

}  // namespace tracon::sim
