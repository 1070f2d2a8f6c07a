// Set-up runs on a worker pool (core::TraconConfig::threads): the
// profiling grid, the perf table and the per-application model fits.
// Every host-sim run is seeded by its (target, background) names and
// every fit reads only its own training set, so the results must be
// bit-identical for every worker count. The tsan CI job runs this
// binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>

#include "core/tracon.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::core {
namespace {

Tracon trained_system(std::size_t threads) {
  TraconConfig cfg;
  cfg.synthetic.levels = 3;  // 27 backgrounds keep the sanitizer run short
  cfg.threads = threads;
  Tracon sys(cfg);
  sys.register_applications(workload::paper_benchmarks());
  sys.train(model::ModelKind::kNonlinear);
  return sys;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_table(const sched::TablePredictor& a,
                       const sched::TablePredictor& b) {
  ASSERT_EQ(a.num_apps(), b.num_apps());
  for (std::size_t t = 0; t < a.num_apps(); ++t) {
    for (std::size_t n = 0; n <= a.num_apps(); ++n) {
      const std::optional<std::size_t> nb =
          n < a.num_apps() ? std::optional<std::size_t>(n) : std::nullopt;
      EXPECT_EQ(bits(a.predict_runtime(t, nb)), bits(b.predict_runtime(t, nb)))
          << "runtime cell " << t << "," << n;
      EXPECT_EQ(bits(a.predict_iops(t, nb)), bits(b.predict_iops(t, nb)))
          << "iops cell " << t << "," << n;
    }
  }
}

TEST(SetupThreads, OneAndFourWorkersAreBitIdentical) {
  const Tracon serial = trained_system(1);
  const Tracon pooled = trained_system(4);
  ASSERT_EQ(serial.num_apps(), pooled.num_apps());

  for (std::size_t a = 0; a < serial.num_apps(); ++a) {
    const auto& rows_1 = serial.training_set(a).observations();
    const auto& rows_4 = pooled.training_set(a).observations();
    ASSERT_EQ(rows_1.size(), rows_4.size()) << "app " << a;
    for (std::size_t r = 0; r < rows_1.size(); ++r) {
      ASSERT_EQ(rows_1[r].features.size(), rows_4[r].features.size());
      for (std::size_t f = 0; f < rows_1[r].features.size(); ++f)
        EXPECT_EQ(bits(rows_1[r].features[f]), bits(rows_4[r].features[f]))
            << "app " << a << " row " << r << " feature " << f;
      EXPECT_EQ(bits(rows_1[r].runtime), bits(rows_4[r].runtime));
      EXPECT_EQ(bits(rows_1[r].iops), bits(rows_4[r].iops));
    }
  }

  std::ostringstream csv_1, csv_4;
  serial.perf_table().save_csv(csv_1);
  pooled.perf_table().save_csv(csv_4);
  EXPECT_EQ(csv_1.str(), csv_4.str());

  expect_same_table(serial.predictor(), pooled.predictor());
  // The confidence ensemble's families train through the same pool.
  for (model::ModelKind kind :
       {model::ModelKind::kWmm, model::ModelKind::kLinear}) {
    expect_same_table(serial.train_predictor(kind),
                      pooled.train_predictor(kind));
  }
}

}  // namespace
}  // namespace tracon::core
