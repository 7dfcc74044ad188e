#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace accred::obs {

namespace {

struct Event {
  char ph;  // 'B', 'E', 'X', 'C'
  std::string name;
  std::uint32_t tid;
  double ts_us;
  double dur_us;  // X only
  std::vector<std::pair<std::string, double>> args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

struct TraceState {
  std::mutex mu;
  std::string path;
  std::vector<Event> events;
  std::map<std::uint32_t, std::string> thread_names;
  bool atexit_registered = false;
  bool flushed_once = false;
};

std::atomic<bool> g_enabled{false};

TraceState& state() {
  static TraceState s;
  return s;
}

std::chrono::steady_clock::time_point process_start() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

void flush_at_exit() {
  // Safety net for processes that never call Session::finish(). When a
  // flush already wrote the file and nothing arrived since, skip —
  // re-flushing here would overwrite the real trace with an empty one.
  if (!trace_enabled()) return;
  TraceState& s = state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.flushed_once && s.events.empty()) return;
  }
  trace_flush();
}

void push_event(Event ev) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.path.empty()) return;  // disarmed between the check and the lock
  s.events.push_back(std::move(ev));
}

}  // namespace

bool trace_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void trace_configure(std::string path) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.path = std::move(path);
  if (s.path.empty()) {
    s.events.clear();
  } else if (!s.atexit_registered) {
    s.atexit_registered = true;
    std::atexit(flush_at_exit);
  }
  (void)process_start();  // pin the timebase before the first event
  g_enabled.store(!s.path.empty(), std::memory_order_relaxed);
}

std::string trace_path() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.path;
}

double trace_now_us() {
  const auto dt = std::chrono::steady_clock::now() - process_start();
  return std::chrono::duration<double, std::micro>(dt).count();
}

void trace_begin(const char* name, std::uint32_t tid,
                 std::initializer_list<TraceArg> args) {
  if (!trace_enabled()) return;
  Event ev{'B', name, tid, trace_now_us(), 0, {}, {}};
  for (const TraceArg& a : args) ev.args.emplace_back(a.key, a.value);
  push_event(std::move(ev));
}

void trace_end(std::uint32_t tid) {
  if (!trace_enabled()) return;
  push_event(Event{'E', "", tid, trace_now_us(), 0, {}, {}});
}

void trace_complete(const char* name, std::uint32_t tid, double ts_us,
                    double dur_us, std::initializer_list<TraceArg> args) {
  trace_complete(name, tid, ts_us, dur_us, args, {});
}

void trace_complete(const char* name, std::uint32_t tid, double ts_us,
                    double dur_us, std::initializer_list<TraceArg> args,
                    std::initializer_list<TraceStrArg> str_args) {
  if (!trace_enabled()) return;
  Event ev{'X', name, tid, ts_us, dur_us, {}, {}};
  for (const TraceArg& a : args) ev.args.emplace_back(a.key, a.value);
  for (const TraceStrArg& a : str_args) {
    ev.str_args.emplace_back(a.key, a.value);
  }
  push_event(std::move(ev));
}

void trace_set_thread_name(std::uint32_t tid, std::string name) {
  if (!trace_enabled()) return;
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.path.empty()) return;
  s.thread_names[tid] = std::move(name);
}

void trace_counter(const char* name, double value) {
  if (!trace_enabled()) return;
  Event ev{'C', name, 0, trace_now_us(), 0, {}, {}};
  ev.args.emplace_back("value", value);
  push_event(std::move(ev));
}

bool trace_flush() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.path.empty()) return false;
  std::ofstream out(s.path);
  if (!out) return false;
  // Stream the trace rather than building one Json document: a detailed
  // trace can hold one event per simulated block.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // thread_name metadata first (tid-sorted via the map), so viewers label
  // every row before the first span lands on it.
  for (const auto& [tid, name] : s.thread_names) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    write_json_string(out, name);
    out << "}}";
  }
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const Event& ev = s.events[i];
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"" << ev.ph << "\",\"pid\":1,\"tid\":" << ev.tid
        << ",\"ts\":";
    write_json_double(out, ev.ts_us);
    if (ev.ph != 'E') {
      out << ",\"name\":";
      write_json_string(out, ev.name);
    }
    if (ev.ph == 'X') {
      out << ",\"dur\":";
      write_json_double(out, ev.dur_us);
    }
    if (!ev.args.empty() || !ev.str_args.empty()) {
      out << ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : ev.args) {
        if (!first_arg) out << ',';
        first_arg = false;
        write_json_string(out, key);
        out << ':';
        write_json_double(out, value);
      }
      for (const auto& [key, value] : ev.str_args) {
        if (!first_arg) out << ',';
        first_arg = false;
        write_json_string(out, key);
        out << ':';
        write_json_string(out, value);
      }
      out << '}';
    }
    out << '}';
  }
  out << "]}\n";
  out.flush();
  if (!out) return false;
  s.events.clear();
  s.flushed_once = true;
  return true;
}

void trace_reset() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.path.clear();
  s.events.clear();
  s.thread_names.clear();
  s.flushed_once = false;
  g_enabled.store(false, std::memory_order_relaxed);
}

}  // namespace accred::obs
