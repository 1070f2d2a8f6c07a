#include <gtest/gtest.h>

#include "obs/telemetry.hpp"
#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
#include "sched/mix.hpp"

namespace tracon::sched {
namespace {

/// Three app classes with a crafted interference table:
///   app 0 ("light") barely interferes with anything;
///   apps 1 and 2 ("heavy") destroy each other but tolerate the light.
TablePredictor crafted_predictor() {
  // Columns: neighbour 0, 1, 2, idle.
  stats::Matrix rt = {{55.0, 60.0, 60.0, 50.0},
                      {110.0, 400.0, 420.0, 100.0},
                      {115.0, 430.0, 410.0, 100.0}};
  stats::Matrix io = {{95.0, 90.0, 90.0, 100.0},
                      {180.0, 40.0, 35.0, 200.0},
                      {170.0, 35.0, 45.0, 200.0}};
  return TablePredictor(rt, io);
}

std::vector<QueuedTask> queue_of(std::initializer_list<std::size_t> apps) {
  std::vector<QueuedTask> q;
  for (std::size_t a : apps) q.push_back({a, 0.0});
  return q;
}

PlacementPolicy no_hold() {
  PlacementPolicy p;
  p.beneficial_joins_only = false;
  return p;
}

TEST(Fifo, PlacesEverythingWhileSlotsExist) {
  FifoScheduler fifo(3);
  ClusterCounts c(3, 2);  // 4 slots
  auto q = queue_of({0, 1, 2, 0, 1});
  auto placements = fifo.schedule(q, c, {0.0});
  EXPECT_EQ(placements.size(), 4u);  // fifth task has no slot
  // Placements must be applicable in order.
  ClusterCounts check = c;
  for (const auto& p : placements) check.place(q[p.queue_pos].app, p.neighbour);
  EXPECT_FALSE(check.any_free());
}

TEST(Fifo, DeterministicPerSeed) {
  auto q = queue_of({0, 1, 2});
  ClusterCounts c(3, 3);
  FifoScheduler a(7), b(7), d(8);
  auto pa = a.schedule(q, c, {0.0});
  auto pb = b.schedule(q, c, {0.0});
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i].neighbour, pb[i].neighbour);
  (void)d;
}

TEST(Fifo, CallsThatCannotPlaceDrawNothing) {
  // The same placing calls, with calls on an empty queue and against a
  // full cluster interleaved into one scheduler's stream: its
  // placements stay the same, and every call counts as a round.
  auto q = queue_of({0, 1, 2, 1});
  const std::vector<QueuedTask> empty;
  ClusterCounts open(3, 5);
  ClusterCounts full(3, 1);
  full.place(0, std::nullopt);
  full.place(1, 0);
  ASSERT_FALSE(full.any_free());

  obs::Telemetry tel;
  tel.tracer.set_enabled(true);
  FifoScheduler plain(11), interleaved(11);
  interleaved.set_telemetry(&tel);
  std::uint64_t calls = 0;
  for (int round = 0; round < 6; ++round) {
    ClusterCounts state = open;
    if (round % 2 == 1) state.place(2, std::nullopt);
    EXPECT_TRUE(interleaved.schedule(empty, state, {1.0 * round}).empty());
    EXPECT_TRUE(interleaved.schedule(q, full, {1.0 * round}).empty());
    auto want = plain.schedule(q, state, {1.0 * round});
    auto got = interleaved.schedule(q, state, {1.0 * round});
    calls += 3;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].queue_pos, want[i].queue_pos);
      EXPECT_EQ(got[i].neighbour, want[i].neighbour);
      EXPECT_FALSE(got[i].predicted_runtime_s.has_value());
    }
  }
  EXPECT_EQ(tel.metrics.counters().at("sched.rounds").value(), calls);
  EXPECT_EQ(tel.tracer.events().size(), calls);
}

TEST(NoteRound, TelemetrySwapRedirectsCounts) {
  auto q = queue_of({0, 1});
  ClusterCounts c(3, 4);
  obs::Telemetry a, b;
  FifoScheduler fifo(5);
  fifo.set_telemetry(&a);
  fifo.schedule(q, c, {0.0});
  fifo.set_telemetry(&a);  // re-attaching the same bundle changes nothing
  fifo.schedule(q, c, {1.0});
  fifo.set_telemetry(&b);
  fifo.schedule(q, c, {2.0});
  fifo.set_telemetry(nullptr);
  fifo.schedule(q, c, {3.0});
  fifo.set_telemetry(&b);
  fifo.schedule(q, c, {4.0});
  EXPECT_EQ(a.metrics.counters().at("sched.rounds").value(), 2u);
  EXPECT_EQ(a.metrics.counters().at("sched.placements").value(), 4u);
  EXPECT_EQ(b.metrics.counters().at("sched.rounds").value(), 2u);
  EXPECT_EQ(b.metrics.counters().at("sched.decisions").value(), 2u);
  EXPECT_EQ(b.metrics.histograms().at("sched.batch.placed").count(), 2u);
}

TEST(NoteRound, RunWithoutPlacementsRegistersNoPlacementMetrics) {
  ClusterCounts full(3, 1);
  full.place(0, std::nullopt);
  full.place(1, 0);
  obs::Telemetry tel;
  FifoScheduler fifo(5);
  fifo.set_telemetry(&tel);
  fifo.schedule(queue_of({2}), full, {0.0});
  fifo.schedule({}, ClusterCounts(3, 2), {1.0});
  const auto& counters = tel.metrics.counters();
  EXPECT_EQ(counters.at("sched.rounds").value(), 2u);
  EXPECT_EQ(counters.count("sched.decisions"), 0u);
  EXPECT_EQ(counters.count("sched.placements"), 0u);
  EXPECT_EQ(tel.metrics.histograms().count("sched.batch.placed"), 0u);
}

TEST(Placement, TraconSchedulersCarryTheirPredictedRuntime) {
  TablePredictor pred = crafted_predictor();
  ClusterCounts c(3, 2);
  c.place(0, std::nullopt);
  auto q = queue_of({1, 2});
  MiosScheduler mios(pred, Objective::kIops, no_hold());
  MibsScheduler mibs(pred, Objective::kRuntime, 2, 0.0, no_hold());
  for (Scheduler* s : {static_cast<Scheduler*>(&mios),
                       static_cast<Scheduler*>(&mibs)}) {
    auto placements = s->schedule(q, c, {0.0});
    ASSERT_FALSE(placements.empty()) << s->name();
    for (const Placement& p : placements) {
      ASSERT_TRUE(p.predicted_runtime_s.has_value()) << s->name();
      EXPECT_EQ(*p.predicted_runtime_s,
                pred.predict_runtime(q[p.queue_pos].app, p.neighbour));
    }
  }
}

TEST(MiosBestSlot, PicksPredictedBestClass) {
  TablePredictor pred = crafted_predictor();
  ClusterCounts c(3, 0);
  // Manually craft: one machine half-busy with heavy(1), one with light(0).
  ClusterCounts c2(3, 2);
  c2.place(1, std::nullopt);
  c2.place(0, std::nullopt);
  // Heavy task 2: idle slot gone (both machines half-busy); best is
  // next to light (115) rather than heavy (430).
  auto slot = mios_best_slot(2, c2, pred, Objective::kRuntime, no_hold());
  ASSERT_TRUE(slot.has_value());
  ASSERT_TRUE(slot->has_value());
  EXPECT_EQ(**slot, 0u);
  (void)c;
}

TEST(MiosBestSlot, PrefersEmptyMachine) {
  TablePredictor pred = crafted_predictor();
  ClusterCounts c(3, 1);
  c.place(0, std::nullopt);  // also offer a light neighbour... no empty now
  ClusterCounts c2(3, 2);
  c2.place(0, std::nullopt);
  // One empty machine remains: solo (100) beats next-to-light (110).
  auto slot = mios_best_slot(1, c2, pred, Objective::kRuntime, no_hold());
  ASSERT_TRUE(slot.has_value());
  EXPECT_FALSE(slot->has_value());  // idle neighbour
}

TEST(MiosBestSlot, FullClusterReturnsNothing) {
  TablePredictor pred = crafted_predictor();
  ClusterCounts c(3, 1);
  c.place(0, std::nullopt);
  c.place(1, std::optional<std::size_t>(0));
  EXPECT_FALSE(
      mios_best_slot(2, c, pred, Objective::kRuntime, no_hold()).has_value());
}

TEST(JoinBeneficial, HeavyPairRejectedLightPairAccepted) {
  TablePredictor pred = crafted_predictor();
  // Heavy next to heavy: both collapse 4x — joint progress negative.
  EXPECT_FALSE(join_beneficial(1, 2, pred, Objective::kRuntime, 0.0));
  // Light next to heavy: light runs ~0.9x, heavy barely slows.
  EXPECT_TRUE(join_beneficial(0, 1, pred, Objective::kRuntime, 0.0));
  // IOPS objective: heavy+heavy destroys aggregate IOPS.
  EXPECT_FALSE(join_beneficial(1, 2, pred, Objective::kIops, 0.0));
  EXPECT_TRUE(join_beneficial(0, 1, pred, Objective::kIops, 0.0));
}

TEST(MiosBestSlot, HoldBackRefusesBadJoins) {
  TablePredictor pred = crafted_predictor();
  ClusterCounts c(3, 1);
  c.place(1, std::nullopt);  // only slot: next to heavy 1
  PlacementPolicy hold;      // beneficial joins only
  hold.join_margin = 0.0;
  auto refused = mios_best_slot(2, c, pred, Objective::kRuntime, hold);
  EXPECT_FALSE(refused.has_value());  // heavy+heavy refused, task waits
  auto accepted = mios_best_slot(0, c, pred, Objective::kRuntime, hold);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(**accepted, 1u);
}

TEST(Mios, SchedulesInArrivalOrder) {
  TablePredictor pred = crafted_predictor();
  MiosScheduler mios(pred, Objective::kRuntime, no_hold());
  ClusterCounts c(3, 1);  // two slots only
  auto q = queue_of({1, 2, 0});
  auto placements = mios.schedule(q, c, {0.0});
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_EQ(placements[0].queue_pos, 0u);
  EXPECT_EQ(placements[1].queue_pos, 1u);
}

TEST(Mibs, WaitsForBatchUnlessTriggered) {
  TablePredictor pred = crafted_predictor();
  MibsScheduler mibs(pred, Objective::kRuntime, 4, 60.0, no_hold());
  ClusterCounts c(3, 1);  // fewer empty machines than queued tasks
  auto q = queue_of({1, 2});
  // Queue below limit, head not timed out, 1 empty < 2 queued: wait.
  EXPECT_TRUE(mibs.schedule(q, c, {10.0}).empty());
  // Timeout reached: batch fires.
  EXPECT_FALSE(mibs.schedule(q, c, {61.0}).empty());
  // Queue at limit fires immediately.
  auto q4 = queue_of({1, 2, 0, 0});
  EXPECT_FALSE(mibs.schedule(q4, c, {0.0}).empty());
  // Next wakeup reflects the batch timeout.
  auto wake = mibs.next_wakeup(q, {10.0});
  ASSERT_TRUE(wake.has_value());
  EXPECT_DOUBLE_EQ(*wake, 60.0);
}

TEST(Mibs, DispatchesImmediatelyWhenEmptyMachinesCoverQueue) {
  TablePredictor pred = crafted_predictor();
  MibsScheduler mibs(pred, Objective::kRuntime, 8, 60.0, no_hold());
  ClusterCounts c(3, 5);
  auto q = queue_of({1, 2});
  EXPECT_EQ(mibs.schedule(q, c, {0.0}).size(), 2u);
}

TEST(Mibs, PairsComplementaryTasks) {
  TablePredictor pred = crafted_predictor();
  // One machine: the batch must co-locate two of {heavy1, heavy2, light}.
  ClusterCounts c(3, 1);
  auto q = queue_of({1, 2, 0});
  std::vector<std::size_t> order = {0, 1, 2};
  BatchOutcome out = mibs_batch(q, order, c, pred, Objective::kRuntime,
                                no_hold());
  ASSERT_EQ(out.placements.size(), 2u);
  // Candidate 1 is the head (heavy 1); candidate 2 must be the light
  // task (queue pos 2), NOT the other heavy.
  EXPECT_EQ(out.placements[0].queue_pos, 0u);
  EXPECT_EQ(out.placements[1].queue_pos, 2u);
}

TEST(Mibs, WindowLimitsBatch) {
  TablePredictor pred = crafted_predictor();
  MibsScheduler mibs(pred, Objective::kRuntime, 2, 0.0, no_hold());
  ClusterCounts c(3, 4);
  auto q = queue_of({0, 1, 2, 0, 1, 2});
  auto placements = mibs.schedule(q, c, {0.0});
  EXPECT_LE(placements.size(), 2u);  // only the 2-task window
}

TEST(Mix, PicksBetterHeadThanPlainMibs) {
  TablePredictor pred = crafted_predictor();
  // One free slot next to heavy(1); queue = {heavy2, light0}. MIBS
  // places the head (heavy2 -> disaster); MIX rotates and places light.
  ClusterCounts c(3, 1);
  c.place(1, std::nullopt);
  auto q = queue_of({2, 0});
  MibsScheduler mibs(pred, Objective::kRuntime, 2, 0.0, no_hold());
  auto pb = mibs.schedule(q, c, {1e9});
  ASSERT_EQ(pb.size(), 1u);
  EXPECT_EQ(pb[0].queue_pos, 0u);  // head forced
  MixScheduler mix(pred, Objective::kRuntime, 2, 0.0, no_hold());
  auto px = mix.schedule(q, c, {1e9});
  ASSERT_EQ(px.size(), 1u);
  EXPECT_EQ(px[0].queue_pos, 1u);  // light chosen for the slot
}

TEST(Schedulers, NamesIncludeConfiguration) {
  TablePredictor pred = crafted_predictor();
  EXPECT_EQ(FifoScheduler(1).name(), "FIFO");
  EXPECT_EQ(MiosScheduler(pred, Objective::kRuntime).name(), "MIOS-RT");
  EXPECT_EQ(MibsScheduler(pred, Objective::kIops, 8).name(), "MIBS8-IO");
  EXPECT_EQ(MixScheduler(pred, Objective::kRuntime, 4).name(), "MIX4-RT");
}

TEST(Schedulers, OnlineFlags) {
  TablePredictor pred = crafted_predictor();
  EXPECT_TRUE(FifoScheduler(1).online());
  EXPECT_TRUE(MiosScheduler(pred, Objective::kRuntime).online());
  EXPECT_FALSE(MibsScheduler(pred, Objective::kRuntime).online());
  EXPECT_FALSE(MixScheduler(pred, Objective::kRuntime).online());
}

TEST(Schedulers, ConfigValidation) {
  TablePredictor pred = crafted_predictor();
  EXPECT_THROW(MibsScheduler(pred, Objective::kRuntime, 0),
               std::invalid_argument);
  EXPECT_THROW(MixScheduler(pred, Objective::kRuntime, 8, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace tracon::sched
