#include "obs/scope_timer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace tracon::obs {

ProfRegistry& ProfRegistry::global() {
  // TRACON_ANALYZE_ALLOW(mutable-global): the process-wide profiling
  // registry is the one sanctioned singleton; it never feeds results,
  // only the --prof report, and registration is mutex-guarded.
  static ProfRegistry registry;
  return registry;
}

ScopeStats& ProfRegistry::scope(const std::string& name) {
  TRACON_REQUIRE(valid_metric_name(name),
                 "profiling scope name must be a dotted snake_case path");
  // std::map never invalidates element references, so the returned slot
  // stays valid after later registrations; only the insertion itself
  // needs the lock (call sites register concurrently from shard
  // workers via TRACON_PROF_SCOPE's function-local static).
  std::lock_guard<std::mutex> lock(register_mutex_);
  return scopes_[name];
}

void ProfRegistry::reset() {
  for (auto& [name, stats] : scopes_) {
    stats.calls.store(0, std::memory_order_relaxed);
    stats.total_ns.store(0, std::memory_order_relaxed);
    stats.max_ns.store(0, std::memory_order_relaxed);
  }
}

void ProfRegistry::write_text(std::ostream& os) const {
  std::vector<const std::pair<const std::string, ScopeStats>*> rows;
  rows.reserve(scopes_.size());
  for (const auto& entry : scopes_) rows.push_back(&entry);
  std::stable_sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return a->second.total_ns.load(std::memory_order_relaxed) >
           b->second.total_ns.load(std::memory_order_relaxed);
  });
  char line[160];
  std::snprintf(line, sizeof line, "%-36s %9s %12s %12s %12s\n", "scope",
                "calls", "total_ms", "avg_us", "max_us");
  os << line;
  for (const auto* row : rows) {
    const ScopeStats& s = row->second;
    const std::uint64_t calls = s.calls.load(std::memory_order_relaxed);
    const std::uint64_t total_ns = s.total_ns.load(std::memory_order_relaxed);
    double total_ms = static_cast<double>(total_ns) / 1e6;
    double avg_us = calls > 0 ? static_cast<double>(total_ns) /
                                    static_cast<double>(calls) / 1e3
                              : 0.0;
    double max_us =
        static_cast<double>(s.max_ns.load(std::memory_order_relaxed)) / 1e3;
    std::snprintf(line, sizeof line, "%-36s %9llu %12.3f %12.3f %12.3f\n",
                  row->first.c_str(), static_cast<unsigned long long>(calls),
                  total_ms, avg_us, max_us);
    os << line;
  }
}

std::uint64_t ScopeTimer::now_ns() {
  // The obs-layer wall-clock exemption: see scope_timer.hpp. Timings
  // go to the --prof report only, never into simulation results.
  // TRACON_ANALYZE_ALLOW(determinism-taint): profiling measures real
  // elapsed time by definition; its output is not replay-checked.
  const auto now = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          now.time_since_epoch())
          .count());
}

void ScopeTimer::stop() {
  const std::uint64_t elapsed = now_ns() - start_ns_;
  stats_->calls.fetch_add(1, std::memory_order_relaxed);
  stats_->total_ns.fetch_add(elapsed, std::memory_order_relaxed);
  std::uint64_t seen = stats_->max_ns.load(std::memory_order_relaxed);
  while (elapsed > seen &&
         !stats_->max_ns.compare_exchange_weak(seen, elapsed,
                                               std::memory_order_relaxed)) {
  }
}

}  // namespace tracon::obs
