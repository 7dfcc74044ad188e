// Deterministic metrics registry: the service-tier counterpart of the
// per-launch profiler (DESIGN.md §14). Counters, gauges, and log2-bucketed
// histograms whose contents are a pure function of the values fed to them
// — no wall clock, no sampling, no decay — so a registry snapshot taken at
// a quiescent point (e.g. after ReductionService::drain()) is bit-identical
// for any worker count and any --sim-threads, the same discipline the
// profiler and racecheck merges follow (§7, §9).
//
// Histograms store *exact* event counts in geometric buckets: values are
// converted once to integer units (llround(value * scale); e.g. scale 1e6
// turns milliseconds into nanoseconds), summed and min/max-tracked as
// integers (commutative, so feed order never shows), and bucketed with 16
// linear sub-buckets per power of two (~6% worst-case resolution; units
// below 16 get exact singleton buckets, so zero-valued samples — an empty
// queue — stay exact). Percentile extraction walks the exact cumulative
// counts and returns the covering bucket's lower bound: a deterministic
// pure function of the recorded multiset, never an interpolation.
//
// Serialization (registry_to_json / histogram JSON) is name-sorted and
// integer-valued, so equal registries dump byte-equal JSON — the form the
// schema-v3 "telemetry" record section and `accred_report metrics`
// consume.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace accred::obs {

class Json;

/// Monotonic event counter (relaxed atomic: totals are commutative, so the
/// value at a quiescent point is deterministic for any feed order).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write / high-water gauge over integer units. set() is only
/// deterministic when the caller serializes writers (the service writes
/// gauges from its deterministic virtual timeline); max_of() is
/// commutative and safe from any thread.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void max_of(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram with exact counts (see the header comment for
/// the bucket layout). Thread-safe; merge order never affects contents.
class Histogram {
 public:
  /// 16 linear sub-buckets per power of two.
  static constexpr std::uint32_t kSubBits = 4;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;
  /// Units < kSubBuckets get exact singleton buckets; majors 4..63 get
  /// kSubBuckets each: 16 + 60*16 = 976 buckets cover the full uint64.
  static constexpr std::uint32_t kBuckets =
      kSubBuckets + (64 - kSubBits) * kSubBuckets;

  /// `scale` converts recorded values to integer units
  /// (units = llround(value * scale)); 1e6 stores milliseconds as
  /// nanoseconds. Negative values clamp to 0.
  explicit Histogram(double scale = 1.0) : scale_(scale) {}

  void record(double value);
  void record_units(std::uint64_t units);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::uint64_t sum_units() const;
  [[nodiscard]] std::uint64_t min_units() const;  ///< 0 when empty
  [[nodiscard]] std::uint64_t max_units() const;  ///< 0 when empty
  [[nodiscard]] double scale() const { return scale_; }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;  ///< 0 when empty

  /// Value (units / scale) of the bucket lower bound covering the
  /// ceil(q * count)-th smallest sample, q clamped to (0, 1]; 0 when
  /// empty. Exact for units < 16, within one sub-bucket (~6%) otherwise,
  /// and bit-deterministic for any feed order.
  [[nodiscard]] double percentile(double q) const;

  /// Exact bucket index / lower bound mapping (tests and reporting).
  [[nodiscard]] static std::uint32_t bucket_index(std::uint64_t units);
  [[nodiscard]] static std::uint64_t bucket_lower_bound(std::uint32_t index);

  /// Nonzero buckets as (index, count), index-ascending.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint64_t>>
  nonzero_buckets() const;

  /// Fold `o` into this histogram (same scale expected).
  void merge(const Histogram& o);

  /// Serialize: {"scale", "count", "sum_units", "min_units", "max_units",
  /// "buckets": [[index, count], ...]} — all integers except scale, so
  /// equal histograms dump byte-equal.
  [[nodiscard]] Json to_json() const;
  /// Parse the to_json() form back (`accred_report metrics` reads it).
  /// Throws std::runtime_error on malformed input.
  [[nodiscard]] static Histogram from_json(const Json& j);

 private:
  double scale_ = 1.0;
  /// Behind unique_ptr so Histogram stays movable (from_json returns by
  /// value); a moved-from histogram must not be used again.
  mutable std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  std::uint64_t count_ = 0;
  std::uint64_t sum_units_ = 0;
  std::uint64_t min_units_ = 0;
  std::uint64_t max_units_ = 0;
  std::vector<std::uint64_t> buckets_;  ///< lazily sized to kBuckets
};

/// Named metrics, interned on first use; references stay valid for the
/// registry's lifetime. Iteration (and JSON) is name-sorted, so two
/// registries fed the same values serialize byte-equal regardless of
/// intern order.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// `scale` applies on first intern only (later calls reuse the metric).
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     double scale = 1.0);

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with every
  /// section name-sorted; sections with no metrics are omitted.
  [[nodiscard]] Json to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace accred::obs
