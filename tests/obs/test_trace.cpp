// obs/trace.hpp: the exported trace must be valid chrome://tracing JSON
// with balanced B/E spans, and the gpusim launch driver must emit the
// kernel / shard / block events the DESIGN.md §8 contract promises.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "gpusim/launch.hpp"
#include "obs/json.hpp"

namespace accred::obs {
namespace {

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override { trace_reset(); }
  void TearDown() override { trace_reset(); }
};

Json load_trace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

TEST_F(TraceTest, DisabledByDefaultAndEmitsNothing) {
  EXPECT_FALSE(trace_enabled());
  trace_begin("ignored", 0);
  trace_end(0);
  EXPECT_FALSE(trace_flush());  // nothing armed, nothing written
}

TEST_F(TraceTest, ConfigureArmsAndEmptyPathDisarms) {
  trace_configure("/tmp/accred_trace_arm.json");
  EXPECT_TRUE(trace_enabled());
  EXPECT_EQ(trace_path(), "/tmp/accred_trace_arm.json");
  trace_configure("");
  EXPECT_FALSE(trace_enabled());
}

TEST_F(TraceTest, LaunchProducesBalancedWellFormedTrace) {
  const std::string path = ::testing::TempDir() + "accred_trace_test.json";
  std::remove(path.c_str());
  trace_configure(path);

  gpusim::Device dev;
  auto out = dev.alloc<int>(1);
  auto ov = out.view();
  gpusim::SimOptions opts;
  opts.label = "trace_test_kernel";
  opts.sim_threads = 2;
  (void)gpusim::launch(dev, {8}, {64}, 0,
                       [&](gpusim::ThreadCtx& ctx) {
                         ctx.syncthreads();
                         if (ctx.linear_tid() == 0 && ctx.blockIdx.x == 0) {
                           ctx.st(ov, 0, 1);
                         }
                       },
                       opts);
  ASSERT_TRUE(trace_flush());

  const Json doc = load_trace(path);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").elements();
  ASSERT_FALSE(events.empty());

  std::map<std::int64_t, int> open_spans;  // tid -> nesting depth
  int kernel_begins = 0;
  int block_completes = 0;
  int shard_completes = 0;
  int counters = 0;
  for (const Json& ev : events) {
    const std::string& ph = ev.at("ph").as_string();
    const std::int64_t tid = ev.at("tid").as_int();
    EXPECT_EQ(ev.at("pid").as_int(), 1);
    EXPECT_GE(ev.at("ts").as_double(), 0.0);
    if (ph == "B") {
      open_spans[tid] += 1;
      if (ev.at("name").as_string() == "trace_test_kernel") {
        kernel_begins += 1;
        EXPECT_DOUBLE_EQ(ev.at("args").at("blocks").as_double(), 8.0);
        EXPECT_DOUBLE_EQ(ev.at("args").at("threads").as_double(), 64.0);
      }
    } else if (ph == "E") {
      open_spans[tid] -= 1;
      EXPECT_GE(open_spans[tid], 0) << "E without B on tid " << tid;
    } else if (ph == "X") {
      EXPECT_GE(ev.at("dur").as_double(), 0.0);
      const std::string& name = ev.at("name").as_string();
      if (name == "block") block_completes += 1;
      if (name == "shard") shard_completes += 1;
    } else if (ph == "C") {
      counters += 1;
    } else {
      ADD_FAILURE() << "unexpected phase " << ph;
    }
  }
  for (const auto& [tid, depth] : open_spans) {
    EXPECT_EQ(depth, 0) << "unbalanced span on tid " << tid;
  }
  EXPECT_EQ(kernel_begins, 1);
  EXPECT_EQ(block_completes, 8);
  EXPECT_EQ(shard_completes, 2);
  EXPECT_GE(counters, 2);  // modeled_device_ms + barrier_waves

  // flush() drained the buffer: a second flush writes an empty trace.
  ASSERT_TRUE(trace_flush());
  EXPECT_EQ(load_trace(path).at("traceEvents").size(), 0u);
  std::remove(path.c_str());
}

TEST_F(TraceTest, FaultingLaunchStillFlushesBalancedTrace) {
  // The rethrow path in launch(): a device-side fault must close the
  // kernel span before propagating, so the flushed trace stays balanced
  // and parseable even though the launch never returned.
  const std::string path = ::testing::TempDir() + "accred_trace_fault.json";
  std::remove(path.c_str());
  trace_configure(path);

  gpusim::Device dev;
  gpusim::SimOptions opts;
  opts.label = "faulting_kernel";
  opts.strict_barriers = true;
  opts.sim_threads = 2;
  EXPECT_THROW(gpusim::launch(
                   dev, {4}, {64}, 0,
                   [](gpusim::ThreadCtx& ctx) {
                     // Barrier under exit divergence: strict mode faults.
                     if (ctx.threadIdx.x % 2 == 0) return;
                     ctx.syncthreads();
                   },
                   opts),
               std::runtime_error);
  ASSERT_TRUE(trace_flush());

  const Json doc = load_trace(path);
  const auto& events = doc.at("traceEvents").elements();
  ASSERT_FALSE(events.empty());
  std::map<std::int64_t, int> open_spans;
  bool kernel_seen = false;
  for (const Json& ev : events) {
    const std::string& ph = ev.at("ph").as_string();
    const std::int64_t tid = ev.at("tid").as_int();
    if (ph == "B") {
      open_spans[tid] += 1;
      if (ev.at("name").as_string() == "faulting_kernel") kernel_seen = true;
    } else if (ph == "E") {
      open_spans[tid] -= 1;
      EXPECT_GE(open_spans[tid], 0) << "E without B on tid " << tid;
    }
  }
  EXPECT_TRUE(kernel_seen);
  for (const auto& [tid, depth] : open_spans) {
    EXPECT_EQ(depth, 0) << "unbalanced span on tid " << tid;
  }
  std::remove(path.c_str());
}

TEST_F(TraceTest, CounterAndSpanHelpers) {
  const std::string path = ::testing::TempDir() + "accred_trace_span.json";
  std::remove(path.c_str());
  trace_configure(path);
  {
    TraceSpan span("outer", 7, {{"k", 1.0}});
    trace_counter("gauge", 42.0);
  }
  ASSERT_TRUE(trace_flush());
  const Json doc = load_trace(path);
  const auto& events = doc.at("traceEvents").elements();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("ph").as_string(), "B");
  EXPECT_EQ(events[0].at("name").as_string(), "outer");
  EXPECT_EQ(events[1].at("ph").as_string(), "C");
  EXPECT_DOUBLE_EQ(events[1].at("args").at("value").as_double(), 42.0);
  EXPECT_EQ(events[2].at("ph").as_string(), "E");
  EXPECT_EQ(events[2].at("tid").as_int(), 7);
  std::remove(path.c_str());
}

TEST_F(TraceTest, ThreadNamesEmitSortedMetadataAheadOfSpans) {
  const std::string path = ::testing::TempDir() + "accred_trace_names.json";
  std::remove(path.c_str());
  trace_configure(path);
  trace_set_thread_name(1001, "worker-1");
  trace_set_thread_name(900, "dispatcher");
  trace_set_thread_name(1001, "worker-1-renamed");  // last write wins
  trace_complete("execute", 1001, 0.0, 5.0);
  ASSERT_TRUE(trace_flush());

  const Json doc = load_trace(path);
  const auto& events = doc.at("traceEvents").elements();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("name").as_string(), "thread_name");
  EXPECT_EQ(events[0].at("tid").as_int(), 900);
  EXPECT_EQ(events[0].at("args").at("name").as_string(), "dispatcher");
  EXPECT_EQ(events[1].at("ph").as_string(), "M");
  EXPECT_EQ(events[1].at("tid").as_int(), 1001);
  EXPECT_EQ(events[1].at("args").at("name").as_string(), "worker-1-renamed");
  EXPECT_EQ(events[2].at("ph").as_string(), "X");
  std::remove(path.c_str());
}

TEST_F(TraceTest, CompleteEventCarriesStringArgs) {
  const std::string path = ::testing::TempDir() + "accred_trace_sargs.json";
  std::remove(path.c_str());
  trace_configure(path);
  trace_complete("submit", 900, 1.0, 2.0, {{"job", 3.0}},
                 {{"tenant", "analytics"}, {"plan", "hit"}});
  ASSERT_TRUE(trace_flush());

  const Json doc = load_trace(path);
  const auto& events = doc.at("traceEvents").elements();
  ASSERT_EQ(events.size(), 1u);
  const Json& args = events[0].at("args");
  EXPECT_DOUBLE_EQ(args.at("job").as_double(), 3.0);
  EXPECT_EQ(args.at("tenant").as_string(), "analytics");
  EXPECT_EQ(args.at("plan").as_string(), "hit");
  std::remove(path.c_str());
}

TEST_F(TraceTest, ThreadNamesIgnoredWhenDisarmed) {
  trace_set_thread_name(5, "ghost");
  const std::string path = ::testing::TempDir() + "accred_trace_ghost.json";
  std::remove(path.c_str());
  trace_configure(path);
  trace_counter("tick", 1.0);
  ASSERT_TRUE(trace_flush());
  const Json doc = load_trace(path);
  const auto& events = doc.at("traceEvents").elements();
  ASSERT_EQ(events.size(), 1u);  // no M event for the pre-arm name
  EXPECT_EQ(events[0].at("ph").as_string(), "C");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace accred::obs
