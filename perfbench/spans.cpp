#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "perfbench.hpp"

namespace perfbench {

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::record(const char* name, int parent, Clock::time_point start,
                   Clock::time_point end) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - epoch_).count();
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 end - epoch_).count();
  s.parent = parent;
  s.probe = probe_;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id, Clock::time_point end) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
}

std::vector<double> Tracer::durations_ms(std::string_view name,
                                         bool probe) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.probe == probe && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<double> Tracer::self_ns() const {
  // Children grouped by parent, then per span: duration minus the union of
  // its children's intervals clipped to the span.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

std::map<std::string, double> Tracer::self_ms_by_layer(bool probe) const {
  const std::vector<double> self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].probe != probe) continue;
    const std::string_view name = spans_[i].name;
    out[std::string(name.substr(0, name.find('.')))] += self[i] / 1e6;
  }
  return out;
}

double Tracer::uncovered_frac(std::string_view root_name) const {
  const std::vector<double> self = self_ns();
  double uncovered = 0;
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.probe || s.parent >= 0 || root_name != s.name) continue;
    uncovered += self[i];
    total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total > 0 ? uncovered / total : 0;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, s.probe ? 2 : 1,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
