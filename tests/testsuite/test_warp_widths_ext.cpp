// The warp-width contract (DESIGN.md §12, test_warp_widths.cpp) over the
// extended kinds and the warp kernels no runner cell reaches. Each runs
// clean (width 32) and under racecheck (width 1), and both must agree bit
// for bit on every LaunchStats counter, alu_units, modeled device time and
// result: every ext_grid() cell (argmin/argmax, segmented, fused cascade)
// for every compiler at the paper's block shape and a smaller one, then
// the ordered worker-vector ablation, the mixed-type clause under both
// slab policies, the two-pass finalize over a grid, a payload fold of
// moment pairs, and matmul's sequential-k baseline (against the lane-form
// kernel it replaced, since it takes no options).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "apps/matmul.hpp"
#include "gpusim/launch.hpp"
#include "reduce/finalize.hpp"
#include "reduce/multivar.hpp"
#include "reduce/payload_reduce.hpp"
#include "reduce/rmp_reduce.hpp"
#include "testsuite/cases.hpp"
#include "testsuite/warp_widths.hpp"

namespace accred::testsuite {
namespace {

/// Every ext_grid() cell for every compiler at both widths; with
/// `rotate_segmented`, each segmented cell for one compiler in turn.
void expect_ext_widths_agree(const acc::LaunchConfig& config,
                             bool rotate_segmented) {
  RunnerOptions clean;
  clean.reduction_extent = 256;
  clean.config = config;
  RunnerOptions raced = clean;
  raced.racecheck = true;
  Runner wide(clean);
  Runner narrow(raced);
  const std::vector<ExtSpec> cells = ext_grid();
  for (const acc::CompilerId id : kCompilers) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const ExtSpec& spec = cells[c];
      if (rotate_segmented && spec.kind == ExtKind::kSegmented &&
          kCompilers[c % 3] != id) {
        continue;
      }
      SCOPED_TRACE(std::string(acc::to_string(id)) + " " +
                   std::string(to_string(spec.kind)) + " " +
                   std::string(acc::to_string(spec.type)));
      expect_same_outcome(wide.run_ext(id, spec), narrow.run_ext(id, spec));
    }
  }
}

TEST(WarpWidths, ExtGridAtThePaperShape) {
  // Under racecheck a segmented cell at this shape parks every lane of 192
  // 1,024-lane blocks at each of its 64 per-element trees' barriers (4-5 s
  // a cell on a 4-core x86_64 host), so the sweep rotates the compiler over
  // its three types; BENCH_table2.json's ext/segmented entries hold this
  // shape too.
  expect_ext_widths_agree({192, 8, 128}, /*rotate_segmented=*/true);
}

TEST(WarpWidths, ExtGridAtASmallerShape) {
  expect_ext_widths_agree({24, 4, 64}, /*rotate_segmented=*/false);
}

// ---- Warp kernels no runner cell reaches -----------------------------------

/// Stats and outputs of one kernel run.
using KernelRun = std::pair<gpusim::LaunchStats, std::vector<double>>;

/// Run `run(sim)` clean (width 32) and under racecheck (width 1) and
/// require the same stats and outputs, and no race.
template <typename F>
void expect_kernel_widths_agree(F&& run) {
  gpusim::SimOptions raced;
  raced.racecheck = true;
  const KernelRun wide = run(gpusim::SimOptions{});
  const KernelRun narrow = run(raced);
  EXPECT_EQ(narrow.first.races, 0u);
  EXPECT_EQ(counters(wide.first), counters(narrow.first));
  EXPECT_EQ(wide.second, narrow.second);
}

/// Input element i of the direct cases.
double input_value(std::size_t i) {
  return static_cast<double>((i * 37) % 101) * 0.25 - 7.0;
}

TEST(WarpWidths, OrderedWorkerVectorAblation) {
  // Ragged extents leave prefix masks in every loop and the j padding.
  const reduce::Nest3 n{5, 11, 150};
  const acc::LaunchConfig cfg{4, 4, 64};
  for (const bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "spilled accumulator" : "");
    expect_kernel_widths_agree([&](const gpusim::SimOptions& sim) {
      gpusim::Device dev;
      const auto volume = static_cast<std::size_t>(n.nk * n.nj * n.ni);
      auto in = dev.alloc<double>(volume);
      for (std::size_t i = 0; i < volume; ++i) {
        in.host_span()[i] = input_value(i);
      }
      auto copy = dev.alloc<double>(volume);
      auto out = dev.alloc<double>(static_cast<std::size_t>(n.nk));
      const auto iv = in.view();
      const auto cv = copy.view();
      const auto ov = out.view();
      const auto at = [n](std::int64_t k, std::int64_t j, std::int64_t i) {
        return static_cast<std::size_t>((k * n.nj + j) * n.ni + i);
      };
      reduce::Bindings<double> b;
      b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                       std::int64_t j, std::int64_t i) {
        return ctx.ld(iv, at(k, j, i));
      });
      b.parallel_work = reduce::per_lane([=](gpusim::ThreadCtx& ctx,
                                             std::int64_t k, std::int64_t j,
                                             std::int64_t i) {
        ctx.st(cv, at(k, j, i), ctx.ld(iv, at(k, j, i)));
      });
      b.instance_init = [](std::int64_t k, std::int64_t) {
        return static_cast<double>(k);
      };
      b.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                    std::int64_t, double r) {
        ctx.st(ov, static_cast<std::size_t>(k), r);
      });
      reduce::StrategyConfig sc;
      sc.sim = sim;
      sc.spill_private = spill;
      const auto res = reduce::run_worker_vector_reduction_ordered<double>(
          dev, n, cfg, acc::ReductionOp::kSum, b, sc);
      std::vector<double> got(out.host_span().begin(), out.host_span().end());
      got.insert(got.end(), copy.host_span().begin(), copy.host_span().end());
      return KernelRun{res.stats, got};
    });
  }
}

TEST(WarpWidths, MultiVarUnderBothSlabPolicies) {
  const reduce::Nest3 n{6, 9, 100};
  const acc::LaunchConfig cfg{4, 2, 64};
  for (const reduce::SlabPolicy policy :
       {reduce::SlabPolicy::kSharedMaxSlab,
        reduce::SlabPolicy::kPerVarSections}) {
    SCOPED_TRACE(policy == reduce::SlabPolicy::kSharedMaxSlab ? "max slab"
                                                              : "sections");
    expect_kernel_widths_agree([&](const gpusim::SimOptions& sim) {
      gpusim::Device dev;
      const auto volume = static_cast<std::size_t>(n.nk * n.nj * n.ni);
      auto in = dev.alloc<double>(volume);
      for (std::size_t i = 0; i < volume; ++i) {
        in.host_span()[i] = input_value(i);
      }
      const auto iv = in.view();
      const auto at = [n](std::int64_t k, std::int64_t j, std::int64_t i) {
        return static_cast<std::size_t>((k * n.nj + j) * n.ni + i);
      };
      std::vector<reduce::MultiVarSpec> vars(3);
      vars[0].type = acc::DataType::kInt32;
      vars[0].contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k,
                            std::int64_t j,
                            std::int64_t i) -> reduce::ScalarValue {
        return static_cast<std::int32_t>(ctx.ld(iv, at(k, j, i)));
      };
      vars[1].op = acc::ReductionOp::kMax;
      vars[1].type = acc::DataType::kDouble;
      vars[1].contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k,
                            std::int64_t j,
                            std::int64_t i) -> reduce::ScalarValue {
        ctx.alu(1);
        return ctx.ld(iv, at(k, j, i));
      };
      vars[2].type = acc::DataType::kFloat;
      vars[2].contrib = [](gpusim::ThreadCtx&, std::int64_t k, std::int64_t j,
                           std::int64_t i) -> reduce::ScalarValue {
        return static_cast<float>(k + j + i) * 0.5F;
      };
      reduce::StrategyConfig sc;
      sc.sim = sim;
      const auto res = reduce::run_multi_worker_vector_reduction(
          dev, n, cfg, vars, policy, sc);
      std::vector<double> got;
      for (const auto& per_k : res.values) {
        for (const reduce::ScalarValue& v : per_k) {
          got.push_back(std::visit(
              [](auto x) { return static_cast<double>(x); }, v));
        }
      }
      return KernelRun{res.stats, got};
    });
  }
}

TEST(WarpWidths, TwoPassFinalizeOverManyPartials) {
  // Above 8 x 256 partials the first pass runs a grid of blocks.
  constexpr std::size_t kCount = 20'000;
  for (const reduce::Staging staging :
       {reduce::Staging::kShared, reduce::Staging::kGlobal}) {
    SCOPED_TRACE(staging == reduce::Staging::kShared ? "shared" : "global");
    expect_kernel_widths_agree([&](const gpusim::SimOptions& sim) {
      gpusim::Device dev;
      auto in = dev.alloc<double>(kCount);
      for (std::size_t i = 0; i < kCount; ++i) {
        in.host_span()[i] = input_value(i);
      }
      auto out = dev.alloc<double>(1);
      reduce::StrategyConfig sc;
      sc.sim = sim;
      sc.staging = staging;
      const gpusim::LaunchStats stats = reduce::launch_finalize_two_pass(
          dev, in.view(), kCount, out.view(), acc::ReductionOp::kSum, sc);
      EXPECT_GT(stats.blocks, 9u);  // a grid, then one block
      return KernelRun{stats, {out.host_span()[0]}};
    });
  }
}

/// (sum, sum of squares): a payload pair that is not a loc pair.
struct Moments {
  double sum = 0;
  double sumsq = 0;
};
struct MomentsOp {
  [[nodiscard]] static constexpr Moments identity() { return {}; }
  [[nodiscard]] constexpr Moments apply(Moments a, Moments b) const {
    return {a.sum + b.sum, a.sumsq + b.sumsq};
  }
};

TEST(WarpWidths, PayloadMoments) {
  constexpr std::int64_t kExtent = 5'000;
  for (const bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "spilled accumulator" : "");
    expect_kernel_widths_agree([&](const gpusim::SimOptions& sim) {
      gpusim::Device dev;
      auto in = dev.alloc<double>(kExtent);
      for (std::size_t i = 0; i < static_cast<std::size_t>(kExtent); ++i) {
        in.host_span()[i] = input_value(i);
      }
      const auto iv = in.view();
      reduce::StrategyConfig sc;
      sc.sim = sim;
      sc.spill_private = spill;
      const auto res = reduce::run_payload_reduction<Moments>(
          dev, kExtent, acc::LaunchConfig{6, 2, 64}, MomentsOp{},
          [=](gpusim::ThreadCtx& ctx, std::int64_t idx) {
            const double x = ctx.ld(iv, static_cast<std::size_t>(idx));
            ctx.alu(1);
            return Moments{x, x * x};
          },
          sc);
      return KernelRun{res.stats, {res.value.sum, res.value.sumsq}};
    });
  }
}

TEST(WarpWidths, MatmulSequentialKBooksLikeItsLaneKernel) {
  // run_matmul_sequential_k takes no SimOptions, so its warp kernel is
  // held to the lane-form kernel it replaced: same buffers in the same
  // order (so the same addresses), the same per-lane events.
  apps::MatmulOptions o;
  o.n = 150;  // two j steps, the second a prefix of warp 0
  o.config = acc::LaunchConfig{6, 2, 64};
  const apps::MatmulResult warp = apps::run_matmul_sequential_k(o);

  const std::int64_t n = o.n;
  gpusim::Device dev;
  const auto count = static_cast<std::size_t>(n * n);
  auto a = dev.alloc<float>(count);
  auto b = dev.alloc<float>(count);
  auto c = dev.alloc<float>(count);
  const auto av = a.view();
  const auto bv = b.view();
  const auto cv = c.view();
  const gpusim::LaunchStats lane = gpusim::launch(
      dev, {o.config.num_gangs}, {o.config.vector_length, o.config.num_workers},
      0, [=](gpusim::ThreadCtx& ctx) {
        const std::int64_t threads = ctx.blockDim.count();
        const std::int64_t tid = ctx.linear_tid();
        for (std::int64_t i = ctx.blockIdx.x; i < n; i += ctx.gridDim.x) {
          for (std::int64_t j = tid; j < n; j += threads) {
            float acc = 0.0F;
            for (std::int64_t k = 0; k < n; ++k) {
              const float x = ctx.ld(av, static_cast<std::size_t>(i * n + k));
              const float y = ctx.ld(bv, static_cast<std::size_t>(k * n + j));
              acc += x * y;
              ctx.alu(3);
            }
            ctx.st(cv, static_cast<std::size_t>(i * n + j), acc);
          }
        }
      });
  EXPECT_EQ(counters(warp.stats), counters(lane));
  const std::vector<float> ref = apps::matmul_reference(o);
  ASSERT_EQ(warp.c.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(warp.c[i], ref[i], 1e-3 + 1e-4 * std::fabs(ref[i]))
        << "element " << i;
  }
}

}  // namespace
}  // namespace accred::testsuite
