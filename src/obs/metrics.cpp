#include "obs/metrics.hpp"

#include <cctype>
#include <limits>
#include <ostream>

#include "obs/jsonl.hpp"
#include "util/error.hpp"

namespace tracon::obs {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  bool segment_start = true;
  for (char c : name) {
    if (c == '.') {
      if (segment_start) return false;  // empty segment
      segment_start = true;
      continue;
    }
    if (segment_start) {
      if (c < 'a' || c > 'z') return false;  // segments start with a letter
      segment_start = false;
      continue;
    }
    bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return !segment_start;  // no trailing dot
}

std::string metric_path_component(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    unsigned char u = static_cast<unsigned char>(c);
    char lower = static_cast<char>(std::tolower(u));
    bool ok = (lower >= 'a' && lower <= 'z') ||
              (lower >= '0' && lower <= '9') || lower == '_';
    out += ok ? lower : '_';
  }
  if (out.empty() || !(out.front() >= 'a' && out.front() <= 'z')) {
    out.insert(out.begin(), 'm');
  }
  return out;
}

std::string format_double(double value) {
  std::string out;
  append_g10(out, value);
  return out;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  TRACON_REQUIRE(!bounds_.empty(), "histogram needs at least one bucket");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    TRACON_REQUIRE(bounds_[i - 1] < bounds_[i],
                   "histogram bounds must be strictly ascending");
  }
}

void Histogram::observe(double value) {
  std::size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  ++counts_[i];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
}

double Histogram::upper_bound(std::size_t i) const {
  TRACON_REQUIRE(i < counts_.size(), "histogram bucket index out of range");
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<double>::infinity();
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  TRACON_REQUIRE(i < counts_.size(), "histogram bucket index out of range");
  return counts_[i];
}

void Histogram::merge_from(const Histogram& other) {
  TRACON_REQUIRE(bounds_ == other.bounds_,
                 "histogram merge requires identical bucket bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  TRACON_REQUIRE(valid_metric_name(name), "counter name must be a dotted "
                                          "snake_case path");
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  TRACON_REQUIRE(valid_metric_name(name), "gauge name must be a dotted "
                                          "snake_case path");
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& upper_bounds) {
  TRACON_REQUIRE(valid_metric_name(name), "histogram name must be a dotted "
                                          "snake_case path");
  auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    TRACON_REQUIRE(it->second.num_buckets() == upper_bounds.size() + 1,
                   "histogram re-registered with a different bucket layout");
    return it->second;
  }
  return histograms_.emplace(name, Histogram(upper_bounds)).first->second;
}

void MetricsRegistry::set_fingerprint(const std::string& key,
                                      const std::string& value) {
  TRACON_REQUIRE(valid_metric_name(key),
                 "fingerprint key must be a snake_case identifier");
  fingerprint_[key] = value;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [key, value] : other.fingerprint_)
    fingerprint_[key] = value;
  for (const auto& [name, c] : other.counters_)
    counters_[name].inc(c.value());
  for (const auto& [name, g] : other.gauges_)
    gauges_[name].set(g.value());
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second.merge_from(h);
    }
  }
}

bool MetricsRegistry::empty() const {
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

namespace {

void write_histogram_json(std::ostream& os, const Histogram& h) {
  os << "{\"count\": " << h.count() << ", \"sum\": " << format_double(h.sum())
     << ", \"min\": " << format_double(h.min())
     << ", \"max\": " << format_double(h.max()) << ", \"buckets\": [";
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"le\": ";
    if (i + 1 == h.num_buckets()) {
      os << "\"inf\"";
    } else {
      os << format_double(h.upper_bound(i));
    }
    os << ", \"count\": " << h.bucket_count(i) << "}";
  }
  os << "]}";
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"fingerprint\": {";
  bool first = true;
  for (const auto& [key, value] : fingerprint_) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(key) << "\": \""
       << json_escape(value) << "\"";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"counters\": {";
  first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << c.value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << name
       << "\": " << format_double(g.value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": ";
    write_histogram_json(os, h);
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "kind,name,field,value\n";
  for (const auto& [key, value] : fingerprint_) {
    os << "fingerprint," << key << ",value," << value << "\n";
  }
  for (const auto& [name, c] : counters_) {
    os << "counter," << name << ",value," << c.value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "gauge," << name << ",value," << format_double(g.value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << "histogram," << name << ",count," << h.count() << "\n";
    os << "histogram," << name << ",sum," << format_double(h.sum()) << "\n";
    os << "histogram," << name << ",min," << format_double(h.min()) << "\n";
    os << "histogram," << name << ",max," << format_double(h.max()) << "\n";
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      os << "histogram," << name << ",le_";
      if (i + 1 == h.num_buckets()) {
        os << "inf";
      } else {
        os << format_double(h.upper_bound(i));
      }
      os << "," << h.bucket_count(i) << "\n";
    }
  }
}

}  // namespace tracon::obs
