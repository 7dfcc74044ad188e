// Optional per-launch event trace in chrome://tracing ("Trace Event
// Format") JSON. Process-wide, thread-safe, and disabled by default: every
// emit call is a no-op behind one relaxed atomic load until a bench or
// example enables it with `--trace FILE` (obs/record.hpp's Session wires
// the flag).
//
// The gpusim launch driver emits B/E spans for every kernel launch (named
// by SimOptions::label, so the reduce strategies' partial and finalize
// kernels show up by role), one span per host shard of the worker pool,
// per-block complete events carrying barrier-wave counts, and counter
// events for the modeled device time. Open the file at chrome://tracing
// or https://ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <string>

namespace accred::obs {

/// Numeric event argument ("args" in the trace format).
struct TraceArg {
  const char* key;
  double value;
};

/// String event argument (tenant names, plan outcomes, ...).
struct TraceStrArg {
  const char* key;
  std::string value;
};

/// True once trace_configure() armed a file path. Cheap (one relaxed
/// atomic load) — callers guard instrumentation blocks with it.
[[nodiscard]] bool trace_enabled() noexcept;

/// Arm the tracer to write `path` on flush; an empty path disables and
/// drops any buffered events. Thread-safe; last call wins.
void trace_configure(std::string path);

/// The armed output path ("" when disabled).
[[nodiscard]] std::string trace_path();

/// Microseconds since process start (steady clock) — the trace timebase.
[[nodiscard]] double trace_now_us();

/// Duration-begin / duration-end pair on virtual thread `tid`. Begin/end
/// must balance per tid (the trace test asserts this).
void trace_begin(const char* name, std::uint32_t tid,
                 std::initializer_list<TraceArg> args = {});
void trace_end(std::uint32_t tid);

/// Complete event ("X"): a span with explicit start and duration. The
/// second overload also attaches string args (e.g. tenant names).
void trace_complete(const char* name, std::uint32_t tid, double ts_us,
                    double dur_us, std::initializer_list<TraceArg> args = {});
void trace_complete(const char* name, std::uint32_t tid, double ts_us,
                    double dur_us, std::initializer_list<TraceArg> args,
                    std::initializer_list<TraceStrArg> str_args);

/// Name a virtual thread: flush emits one "M"-phase `thread_name`
/// metadata event per named tid (tid-sorted, ahead of all spans) so
/// chrome://tracing shows "worker-0" instead of a bare number. Last call
/// per tid wins; names survive flushes until trace_reset().
void trace_set_thread_name(std::uint32_t tid, std::string name);

/// Counter event ("C") at the current time.
void trace_counter(const char* name, double value);

/// Write all buffered events to the armed path and clear the buffer.
/// Returns false (keeping the buffer) if the file cannot be written.
/// Also registered via atexit once armed, so a crash-free process never
/// silently drops a requested trace.
bool trace_flush();

/// Drop all buffered events and disarm (tests).
void trace_reset();

/// RAII begin/end span.
class TraceSpan {
public:
  TraceSpan(const char* name, std::uint32_t tid,
            std::initializer_list<TraceArg> args = {})
      : tid_(tid), armed_(trace_enabled()) {
    if (armed_) trace_begin(name, tid, args);
  }
  ~TraceSpan() {
    if (armed_) trace_end(tid_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

private:
  std::uint32_t tid_;
  bool armed_;
};

}  // namespace accred::obs
