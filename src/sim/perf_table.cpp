#include "sim/perf_table.hpp"

#include <istream>
#include <ostream>
#include <string>

#include "util/error.hpp"

namespace tracon::sim {

PerfTable PerfTable::build(model::Profiler& profiler,
                           const std::vector<virt::AppBehavior>& apps) {
  TRACON_REQUIRE(!apps.empty(), "perf table needs at least one app");
  PerfTable t;
  const std::size_t n = apps.size();
  t.runtime_ = stats::Matrix(n, n + 1);
  t.iops_ = stats::Matrix(n, n + 1);
  t.names_.reserve(n);
  t.profiles_.reserve(n);
  const std::vector<virt::PairMeasurement> grid =
      profiler.measure_grid(apps, apps);
  for (std::size_t a = 0; a < n; ++a) {
    t.names_.push_back(apps[a].name);
    t.profiles_.push_back(profiler.solo_profile(apps[a]));
    const virt::VmRunStats& solo = profiler.solo_stats(apps[a]);
    t.runtime_(a, n) = solo.runtime_s;
    t.iops_(a, n) = solo.iops;
    for (std::size_t b = 0; b < n; ++b) {
      t.runtime_(a, b) = grid[a * n + b].runtime_s;
      t.iops_(a, b) = grid[a * n + b].iops;
    }
  }
  return t;
}

const std::string& PerfTable::app_name(std::size_t a) const {
  TRACON_REQUIRE(a < names_.size(), "app index out of range");
  return names_[a];
}

const monitor::AppProfile& PerfTable::profile(std::size_t a) const {
  TRACON_REQUIRE(a < profiles_.size(), "app index out of range");
  return profiles_[a];
}

double PerfTable::solo_runtime(std::size_t a) const {
  return runtime(a, std::nullopt);
}

double PerfTable::solo_iops(std::size_t a) const {
  return iops(a, std::nullopt);
}

double PerfTable::runtime(std::size_t a,
                          const std::optional<std::size_t>& b) const {
  TRACON_REQUIRE(a < num_apps(), "app index out of range");
  std::size_t col = b.value_or(num_apps());
  TRACON_REQUIRE(col <= num_apps(), "neighbour index out of range");
  return runtime_(a, col);
}

double PerfTable::iops(std::size_t a,
                       const std::optional<std::size_t>& b) const {
  TRACON_REQUIRE(a < num_apps(), "app index out of range");
  std::size_t col = b.value_or(num_apps());
  TRACON_REQUIRE(col <= num_apps(), "neighbour index out of range");
  return iops_(a, col);
}

double PerfTable::speed(std::size_t a,
                        const std::optional<std::size_t>& b) const {
  double paired = runtime(a, b);
  TRACON_ASSERT(paired > 0.0, "non-positive measured runtime");
  return solo_runtime(a) / paired;
}

sched::TablePredictor PerfTable::oracle_predictor() const {
  return sched::TablePredictor(runtime_, iops_);
}


namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

double parse_number(const std::string& s) {
  std::size_t pos = 0;
  double v = std::stod(s, &pos);
  TRACON_REQUIRE(pos == s.size(), "malformed number in perf-table CSV");
  return v;
}

}  // namespace

void PerfTable::save_csv(std::ostream& os) const {
  const std::size_t n = num_apps();
  os << "tracon-perftable,v1," << n << "\n";
  os.precision(17);
  for (std::size_t a = 0; a < n; ++a) {
    const monitor::AppProfile& p = profiles_[a];
    os << "app," << names_[a] << ',' << p.domu_cpu << ',' << p.dom0_cpu
       << ',' << p.reads_per_s << ',' << p.writes_per_s << "\n";
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b <= n; ++b) {
      os << "cell," << a << ',';
      if (b < n) {
        os << b;
      } else {
        os << "solo";
      }
      os << ',' << runtime_(a, b) << ',' << iops_(a, b) << "\n";
    }
  }
}

PerfTable PerfTable::load_csv(std::istream& is) {
  std::string line;
  TRACON_REQUIRE(static_cast<bool>(std::getline(is, line)),
                 "empty perf-table CSV");
  auto header = split_csv_line(line);
  TRACON_REQUIRE(header.size() == 3 && header[0] == "tracon-perftable" &&
                     header[1] == "v1",
                 "not a tracon perf-table CSV");
  auto n = static_cast<std::size_t>(parse_number(header[2]));
  TRACON_REQUIRE(n >= 1, "perf-table CSV with no applications");

  PerfTable t;
  t.runtime_ = stats::Matrix(n, n + 1);
  t.iops_ = stats::Matrix(n, n + 1);
  std::vector<char> cell_seen(n * (n + 1), 0);
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    auto f = split_csv_line(line);
    if (f[0] == "app") {
      TRACON_REQUIRE(f.size() == 6, "malformed app row");
      TRACON_REQUIRE(t.names_.size() < n, "too many app rows");
      t.names_.push_back(f[1]);
      monitor::AppProfile p;
      p.domu_cpu = parse_number(f[2]);
      p.dom0_cpu = parse_number(f[3]);
      p.reads_per_s = parse_number(f[4]);
      p.writes_per_s = parse_number(f[5]);
      t.profiles_.push_back(p);
    } else if (f[0] == "cell") {
      TRACON_REQUIRE(f.size() == 5, "malformed cell row");
      auto a = static_cast<std::size_t>(parse_number(f[1]));
      std::size_t b = f[2] == "solo"
                          ? n
                          : static_cast<std::size_t>(parse_number(f[2]));
      TRACON_REQUIRE(a < n && b <= n, "cell index out of range");
      t.runtime_(a, b) = parse_number(f[3]);
      t.iops_(a, b) = parse_number(f[4]);
      cell_seen[a * (n + 1) + b] = 1;
    } else {
      throw std::invalid_argument("unknown perf-table CSV row type '" +
                                  f[0] + "'");
    }
  }
  TRACON_REQUIRE(t.names_.size() == n, "missing app rows");
  for (char seen : cell_seen)
    TRACON_REQUIRE(seen, "missing cell rows in perf-table CSV");
  return t;
}

}  // namespace tracon::sim
