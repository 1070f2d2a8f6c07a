// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with deterministic CSV/JSON export.
//
// Design constraints (see DESIGN.md "Observability"):
//   - zero overhead when disabled: components hold a nullable
//     obs::Telemetry* and skip every recording call on nullptr;
//   - deterministic output: metrics are stored in name order and doubles
//     are formatted with a fixed printf spec, so two runs with the same
//     seed export byte-identical files;
//   - single-threaded: the simulator is single-threaded, so handles are
//     plain unsynchronized slots. A future sharded simulator swaps the
//     registry behind obs::Telemetry for a sharded implementation with
//     the same name-based lookup API; call sites do not change.
//
// Metric names are dotted snake_case paths ("sched.mios.decisions"),
// validated at registration and enforced on literals by
// tracon_analyze's metric-name rule.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tracon::obs {

/// True when `name` is a dotted snake_case path: segments of
/// [a-z][a-z0-9_]* joined by single dots.
bool valid_metric_name(std::string_view name);

/// Lowercases `raw` and replaces every character outside [a-z0-9_] with
/// '_', so foreign identifiers (model kind names like "NLM-noDom0") can
/// be embedded in metric paths.
std::string metric_path_component(std::string_view raw);

/// Formats a double exactly like the JSON/CSV exporters do ("%.10g"),
/// so callers composing files by hand stay byte-compatible.
std::string format_double(double value);

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value-wins instantaneous reading.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Buckets are upper-bound inclusive
/// (Prometheus "le" semantics): a value lands in the first bucket whose
/// bound is >= value; values above the last bound land in the implicit
/// +inf overflow bucket. Also tracks count/sum/min/max.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  /// Bucket count including the +inf overflow bucket.
  std::size_t num_buckets() const { return counts_.size(); }
  /// Upper bound of bucket `i`; +infinity for the overflow bucket.
  double upper_bound(std::size_t i) const;
  std::uint64_t bucket_count(std::size_t i) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Min/max are 0 until the first observation.
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Folds `other` into this histogram: bucket counts and count/sum
  /// add, min/max widen. Both histograms must share the exact bucket
  /// bounds.
  void merge_from(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name-indexed metric store. Lookups get-or-create; returned references
/// stay valid for the registry's lifetime (node-based storage).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Get-or-create; an existing histogram is returned as-is (its bucket
  /// layout must match `upper_bounds` in size).
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& upper_bounds);

  /// Stamps one config-fingerprint entry (seed, scheduler, machines,
  /// mix, build, ...). The fingerprint is exported as its own block so
  /// every metrics file is self-describing — runstore entries can be
  /// diffed without the command line that produced them. Keys are
  /// snake_case identifiers; values are free-form strings.
  void set_fingerprint(const std::string& key, const std::string& value);
  const std::map<std::string, std::string>& fingerprint() const {
    return fingerprint_;
  }

  bool empty() const;
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Folds `other` into this registry — the reduction step a sharded
  /// scenario uses to combine per-shard registries. Counters and
  /// histograms sum (histograms must agree on bucket bounds when
  /// present on both sides); gauges and fingerprint entries are
  /// last-writer-wins: `other`'s value replaces an existing one.
  void merge(const MetricsRegistry& other);

  /// One JSON object: {"fingerprint": {...}, "counters": {...},
  /// "gauges": {...}, "histograms": {...}}, keys in name order.
  void write_json(std::ostream& os) const;
  /// Rows of `kind,name,field,value` with a header line (fingerprint
  /// entries first, as `fingerprint,<key>,value,<value>`).
  void write_csv(std::ostream& os) const;

 private:
  std::map<std::string, std::string> fingerprint_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace tracon::obs
