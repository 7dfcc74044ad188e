#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/json.hpp"

namespace accred::obs {

void Histogram::record(double value) {
  if (!(value > 0)) {  // negatives and NaN clamp to the exact 0 bucket
    record_units(0);
    return;
  }
  const double scaled = value * scale_;
  // Saturate instead of overflowing for absurd inputs; the top bucket is
  // open-ended anyway.
  record_units(scaled >= 9.2e18 ? std::uint64_t{1} << 63
                                : static_cast<std::uint64_t>(
                                      std::llround(scaled)));
}

void Histogram::record_units(std::uint64_t units) {
  std::lock_guard<std::mutex> lk(*mu_);
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  ++buckets_[bucket_index(units)];
  if (count_ == 0) {
    min_units_ = max_units_ = units;
  } else {
    min_units_ = std::min(min_units_, units);
    max_units_ = std::max(max_units_, units);
  }
  ++count_;
  sum_units_ += units;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lk(*mu_);
  return count_;
}

std::uint64_t Histogram::sum_units() const {
  std::lock_guard<std::mutex> lk(*mu_);
  return sum_units_;
}

std::uint64_t Histogram::min_units() const {
  std::lock_guard<std::mutex> lk(*mu_);
  return min_units_;
}

std::uint64_t Histogram::max_units() const {
  std::lock_guard<std::mutex> lk(*mu_);
  return max_units_;
}

double Histogram::sum() const {
  return static_cast<double>(sum_units()) / scale_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lk(*mu_);
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_units_) /
         (static_cast<double>(count_) * scale_);
}

std::uint32_t Histogram::bucket_index(std::uint64_t units) {
  if (units < kSubBuckets) return static_cast<std::uint32_t>(units);
  const auto major = static_cast<std::uint32_t>(std::bit_width(units)) - 1;
  const auto sub = static_cast<std::uint32_t>(
      (units >> (major - kSubBits)) - kSubBuckets);
  return (major - kSubBits + 1) * kSubBuckets + sub;
}

std::uint64_t Histogram::bucket_lower_bound(std::uint32_t index) {
  if (index < kSubBuckets) return index;
  const std::uint32_t major = index / kSubBuckets - 1 + kSubBits;
  const std::uint64_t sub = index % kSubBuckets;
  return (kSubBuckets + sub) << (major - kSubBits);
}

double Histogram::percentile(double q) const {
  std::lock_guard<std::mutex> lk(*mu_);
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  // A saturated rank selects the last order statistic; report the exact
  // observed maximum instead of its bucket's lower bound, which would
  // under-report p100 by up to one bucket width (~6%).
  if (rank >= count_) return static_cast<double>(max_units_) / scale_;
  std::uint64_t cum = 0;
  for (std::uint32_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (cum >= rank) {
      // The covering bucket only gives a lower bound, which can straddle
      // the observed minimum; clamp into [min, max] so no quantile falls
      // outside the recorded range.
      const std::uint64_t lower =
          std::clamp(bucket_lower_bound(i), min_units_, max_units_);
      return static_cast<double>(lower) / scale_;
    }
  }
  return static_cast<double>(max_units_) / scale_;  // unreachable
}

std::vector<std::pair<std::uint32_t, std::uint64_t>>
Histogram::nonzero_buckets() const {
  std::lock_guard<std::mutex> lk(*mu_);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  for (std::uint32_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) out.emplace_back(i, buckets_[i]);
  }
  return out;
}

void Histogram::merge(const Histogram& o) {
  const auto theirs = o.nonzero_buckets();
  std::uint64_t ocount, osum, omin, omax;
  {
    std::lock_guard<std::mutex> lk(*o.mu_);
    ocount = o.count_;
    osum = o.sum_units_;
    omin = o.min_units_;
    omax = o.max_units_;
  }
  if (ocount == 0) return;
  std::lock_guard<std::mutex> lk(*mu_);
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (const auto& [idx, n] : theirs) buckets_[idx] += n;
  if (count_ == 0) {
    min_units_ = omin;
    max_units_ = omax;
  } else {
    min_units_ = std::min(min_units_, omin);
    max_units_ = std::max(max_units_, omax);
  }
  count_ += ocount;
  sum_units_ += osum;
}

Json Histogram::to_json() const {
  std::lock_guard<std::mutex> lk(*mu_);
  Json j = Json::object();
  j.set("scale", scale_);
  j.set("count", count_);
  j.set("sum_units", sum_units_);
  j.set("min_units", min_units_);
  j.set("max_units", max_units_);
  Json buckets = Json::array();
  for (std::uint32_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    Json pair = Json::array();
    pair.push(static_cast<std::int64_t>(i));
    pair.push(buckets_[i]);
    buckets.push(std::move(pair));
  }
  j.set("buckets", std::move(buckets));
  return j;
}

Histogram Histogram::from_json(const Json& j) {
  Histogram h(j.at("scale").as_double());
  if (h.scale_ <= 0) throw std::runtime_error("histogram: bad scale");
  h.buckets_.assign(kBuckets, 0);
  std::uint64_t count = 0;
  for (const Json& pair : j.at("buckets").elements()) {
    if (pair.size() != 2) throw std::runtime_error("histogram: bad bucket");
    const std::int64_t idx = pair.elements()[0].as_int();
    const std::int64_t n = pair.elements()[1].as_int();
    if (idx < 0 || idx >= static_cast<std::int64_t>(kBuckets) || n < 0) {
      throw std::runtime_error("histogram: bucket out of range");
    }
    h.buckets_[static_cast<std::uint32_t>(idx)] +=
        static_cast<std::uint64_t>(n);
    count += static_cast<std::uint64_t>(n);
  }
  h.count_ = static_cast<std::uint64_t>(j.at("count").as_int());
  if (h.count_ != count) {
    throw std::runtime_error("histogram: count does not match buckets");
  }
  h.sum_units_ = static_cast<std::uint64_t>(j.at("sum_units").as_int());
  h.min_units_ = static_cast<std::uint64_t>(j.at("min_units").as_int());
  h.max_units_ = static_cast<std::uint64_t>(j.at("max_units").as_int());
  return h;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, double scale) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(scale))
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

Json MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  Json j = Json::object();
  if (!counters_.empty()) {
    Json c = Json::object();
    for (const auto& [name, counter] : counters_) c.set(name, counter->value());
    j.set("counters", std::move(c));
  }
  if (!gauges_.empty()) {
    Json g = Json::object();
    for (const auto& [name, gauge] : gauges_) g.set(name, gauge->value());
    j.set("gauges", std::move(g));
  }
  if (!histograms_.empty()) {
    Json h = Json::object();
    for (const auto& [name, hist] : histograms_) h.set(name, hist->to_json());
    j.set("histograms", std::move(h));
  }
  return j;
}

}  // namespace accred::obs
