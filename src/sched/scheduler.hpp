// Scheduler interface shared by FIFO, MIOS, MIBS, and MIX.
//
// A scheduler examines the waiting queue and the cluster occupancy view
// and returns placements. The cluster simulator applies them, keeps
// unplaced tasks queued, and re-invokes the scheduler on arrivals,
// completions, and requested wake-ups (batch timeouts).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "sched/cluster_counts.hpp"

namespace tracon::sched {

class CandidateIndex;

/// The scheduling objective: minimize total runtime (MIBS_RT) or
/// maximize total I/O throughput (MIBS_IO) — Section 3.2.
enum class Objective { kRuntime, kIops };

std::string objective_name(Objective o);

struct QueuedTask {
  std::size_t app = 0;      ///< application class
  double arrival_s = 0.0;   ///< arrival time (for batch timeouts)
  /// Stable task identity (the dynamic scenario uses the arrival
  /// index): joins the decision log's placement records to the task's
  /// eventual completion. Purely observational — no scheduler keys a
  /// decision off it.
  std::uint64_t id = 0;
};

struct ScheduleContext {
  double now_s = 0.0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Online schedulers (FIFO, MIOS) dispatch on every arrival and
  /// completion; batch schedulers (MIBS, MIX) are only invoked at the
  /// manager's periodic scheduling rounds and their own wake-ups.
  virtual bool online() const { return false; }

  /// Returns placements for a subset of queued tasks (each queue
  /// position at most once); implementations must only emit placements
  /// that are feasible when applied in the returned order.
  virtual std::vector<Placement> schedule(std::span<const QueuedTask> queue,
                                          const ClusterCounts& cluster,
                                          const ScheduleContext& ctx) = 0;

  /// Time at which the scheduler wants to be re-invoked even without an
  /// arrival or completion (batch timeout); nullopt = no wake-up needed.
  virtual std::optional<double> next_wakeup(
      std::span<const QueuedTask> queue, const ScheduleContext& ctx) const {
    (void)queue;
    (void)ctx;
    return std::nullopt;
  }

  /// Attaches (or detaches, with nullptr) the telemetry sinks. The
  /// scheduler does not own the bundle; the caller keeps it alive for
  /// the scheduler's lifetime. Re-attaching the same bundle keeps the
  /// cached metric handles; a different one drops them.
  void set_telemetry(obs::Telemetry* telemetry) {
    if (telemetry != telemetry_) handles_ = {};
    telemetry_ = telemetry;
  }
  obs::Telemetry* telemetry() const { return telemetry_; }

  /// Attaches (or detaches, with nullptr) a candidate shortlist index
  /// (sched::CandidateIndex, not owned). The TRACON schedulers route
  /// their slot scans through it when the cluster view carries its
  /// clustering; schedulers without a candidate scan (FIFO) ignore it.
  /// The simulator wires this from DynamicConfig::candidate_index.
  void set_candidate_index(const CandidateIndex* index) {
    candidate_index_ = index;
  }
  const CandidateIndex* candidate_index() const { return candidate_index_; }

 protected:
  /// Records one scheduling round: counters for rounds/decisions/
  /// placements, the queue-length gauge, a placed-per-round histogram,
  /// and a kSchedDecision trace event carrying the predicted cost of
  /// the chosen placements. No-op when telemetry is detached.
  /// The metrics are looked up once per bundle; the placement metrics
  /// only on the first round that places, so a run that never places
  /// exports none of them.
  void note_round(std::size_t queue_len, std::size_t placed,
                  double predicted_cost, double now_s) {
    if (telemetry_ == nullptr) return;
    obs::MetricsRegistry& m = telemetry_->metrics;
    if (handles_.rounds == nullptr) {
      handles_.rounds = &m.counter("sched.rounds");
      handles_.queue_length = &m.gauge("sched.queue_length");
    }
    handles_.rounds->inc();
    handles_.queue_length->set(static_cast<double>(queue_len));
    if (placed > 0) {
      if (handles_.decisions == nullptr) {
        handles_.decisions = &m.counter("sched.decisions");
        handles_.placements = &m.counter("sched.placements");
        handles_.batch_placed = &m.histogram(
            "sched.batch.placed", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
      }
      handles_.decisions->inc();
      handles_.placements->inc(placed);
      handles_.batch_placed->observe(static_cast<double>(placed));
    }
    obs::TraceEvent ev;
    ev.time_s = now_s;
    ev.kind = obs::TraceEventKind::kSchedDecision;
    ev.count = queue_len;
    ev.value = predicted_cost;
    ev.value2 = static_cast<double>(placed);
    telemetry_->tracer.record(ev);
  }

 private:
  /// note_round's metrics in `telemetry_`'s registry; null until used.
  struct RoundHandles {
    obs::Counter* rounds = nullptr;
    obs::Gauge* queue_length = nullptr;
    obs::Counter* decisions = nullptr;
    obs::Counter* placements = nullptr;
    obs::Histogram* batch_placed = nullptr;
  };

  obs::Telemetry* telemetry_ = nullptr;
  RoundHandles handles_;
  const CandidateIndex* candidate_index_ = nullptr;
};

}  // namespace tracon::sched
