// Substrate probes: short timings of the simulator's building blocks
// through public gpusim calls, each the median of several repetitions; and
// the host-speed calibration task (perfbench.hpp).
#include <thread>

#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fiber.hpp"
#include "gpusim/launch.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace accred;

constexpr int kReps = 7;

/// Median over kReps of `per_rep() -> ns per unit`, recorded as one span.
template <typename F>
double median_probe(const char* span, int root, F per_rep) {
  std::vector<double> v;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) v.push_back(per_rep());
  tracer().record(span, root, t0, Clock::now());
  return percentile(v, 0.5);
}

double ns_per(Clock::time_point t0, double units) {
  return ms_between(t0, Clock::now()) * 1e6 / units;
}

}  // namespace

SubstrateProbe probe_substrate() {
  SubstrateProbe p;
  const int root = tracer().open("driver.substrate_probe", -1, Clock::now());

  {
    // One resume() is two switches: into the fiber and back out.
    gpusim::Fiber f(16 * 1024);
    f.reset(+[](void*) {
      for (;;) gpusim::Fiber::yield();
    }, nullptr);
    for (int i = 0; i < 1000; ++i) f.resume();
    constexpr int kResumes = 100000;
    p.fiber_switch_ns = median_probe("gpusim.fiber_switch", root, [&] {
      const auto t0 = Clock::now();
      for (int i = 0; i < kResumes; ++i) f.resume();
      return ns_per(t0, 2.0 * kResumes);
    });
    f.abandon();
  }

  {
    // A converged warp's epoch: 32 lanes x 64 coalesced 4-byte loads.
    // end_epoch() is out of line and reads what the accesses booked, so
    // none of the loop can be optimized away.
    const gpusim::CostParams params;
    gpusim::WarpLog log;
    constexpr int kEpochs = 300;
    p.warplog_ns_per_access = median_probe("gpusim.warplog", root, [&] {
      const auto t0 = Clock::now();
      for (int e = 0; e < kEpochs; ++e) {
        log.reset(params);
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
          for (std::uint32_t k = 0; k < 64; ++k) {
            log.global_access(lane, 0x10000 + k * 128 + lane * 4, 4);
          }
        }
        (void)log.end_epoch();
      }
      return ns_per(t0, kEpochs * 32.0 * 64.0);
    });
  }

  gpusim::Device dev;
  gpusim::SimOptions serial;
  serial.sim_threads = 1;

  {
    // A kernel that only synchronizes: 256 lanes x 16 syncthreads.
    constexpr int kLaunches = 20;
    p.barrier_ns_per_lane = median_probe("gpusim.barrier", root, [&] {
      const auto t0 = Clock::now();
      for (int i = 0; i < kLaunches; ++i) {
        (void)gpusim::launch(
            dev, {1}, {256}, 0,
            [](gpusim::ThreadCtx& ctx) {
              for (int b = 0; b < 16; ++b) ctx.syncthreads();
            },
            serial);
      }
      return ns_per(t0, kLaunches * 256.0 * 16.0);
    });
  }

  {
    // An empty kernel at heat_iter's geometry: per-launch fixed cost.
    constexpr int kLaunches = 10;
    p.launch_fixed_us = median_probe("gpusim.launch_fixed", root, [&] {
      const auto t0 = Clock::now();
      for (int i = 0; i < kLaunches; ++i) {
        (void)gpusim::launch(dev, {192}, {128}, 0,
                             [](gpusim::ThreadCtx&) {}, serial);
      }
      return ns_per(t0, kLaunches) / 1e3;
    });
  }

  tracer().close(root, Clock::now());
  return p;
}

namespace {

std::uint64_t calibration_task(std::vector<std::uint64_t>& table) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 300000; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    std::uint64_t& v = table[(x * 0x2545F4914F6CDD1DULL) >> 43];
    v += x;
    acc += v;
  }
  return acc;
}

}  // namespace

double calibration_sample(unsigned threads) {
  static std::vector<std::vector<std::uint64_t>> tables;
  while (tables.size() < threads) {
    tables.emplace_back(std::size_t{1} << 21);
  }
  const auto t0 = Clock::now();
  std::vector<std::thread> helpers;
  for (unsigned t = 1; t < threads; ++t) {
    helpers.emplace_back([&table = tables[t]] {
      table[0] += calibration_task(table);
    });
  }
  tables[0][0] += calibration_task(tables[0]);
  for (std::thread& h : helpers) h.join();
  return ms_between(t0, Clock::now());
}

double time_scale(const std::vector<double>& cal_ms) {
  return cal_ms.empty() ? 1.0 : kCalibrationRefMs / percentile(cal_ms, 0.5);
}

}  // namespace perfbench
