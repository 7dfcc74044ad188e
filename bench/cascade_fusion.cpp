// Cascade-fusion ablation: the fused chain kernel (reduce/fused_cascade.hpp
// via the planner's kFusedCascade) against the same chain run as one launch
// per stage. Two workloads:
//
//   fig4_chain3       the paper's Fig. 4 shape — i_sum (vector) -> j_sum
//                     (worker) -> sum (gang). Unfused: 3 stage launches +
//                     finalize, with each intermediate level round-tripping
//                     through global memory. Fused: ONE kernel + finalize,
//                     intermediates staying in the shared slab. The scalar
//                     must be bit-identical (same fold orders by design).
//   sum_mean_variance the classic two-pass statistics chain — sum(x) then
//                     sum(x^2), mean/variance on the host. Unfused: two
//                     full passes over x (2 same-loop reductions, 4
//                     kernels). Fused: one pass folding a (sum, sumsq)
//                     payload pair (2 kernels), halving the data traffic.
//
// The bench FAILS (exit 1) unless the fused sum_mean_variance run models
// at least 20% less device time than the unfused one — the fusion pass's
// reason to exist, enforced in CI with a gated JSON baseline.
//
// Flags: --r N (reduction extent, default 2^14; x64 volume)
//        --json FILE / --trace FILE, --sim-threads N
#include <cmath>
#include <iostream>

#include "acc/executor.hpp"
#include "reduce/fused_cascade.hpp"
#include "reduce/payload_reduce.hpp"
#include "reduce/rmp_reduce.hpp"
#include "testsuite/values.hpp"
#include "util/main_guard.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

struct Ablation {
  double unfused_ms = 0;
  double fused_ms = 0;
  int unfused_kernels = 0;
  int fused_kernels = 0;
  gpusim::LaunchStats unfused_stats;
  gpusim::LaunchStats fused_stats;
  bool identical = false;  ///< fused result matched the unfused one
};

/// Fig. 4: vector -> worker -> gang sum chain over dims {r, 2, 32}.
Ablation run_fig4_chain(std::int64_t r) {
  const reduce::Nest3 dims{r, 2, 32};
  const acc::LaunchConfig cfg;
  const reduce::StrategyConfig sc;
  const auto volume =
      static_cast<std::size_t>(dims.nk * dims.nj * dims.ni);

  gpusim::Device dev;
  auto input = dev.alloc<double>(volume, "input");
  {
    auto host = input.host_span();
    for (std::size_t i = 0; i < volume; ++i) {
      host[i] = testsuite::testsuite_value<double>(acc::ReductionOp::kSum, i);
    }
  }
  auto in_view = input.view();
  const auto [nk, nj, ni] = dims;

  Ablation ab;

  // ---- unfused: one launch per stage, intermediates in global memory --
  {
    auto vec_out = dev.alloc<double>(static_cast<std::size_t>(nk * nj));
    auto wrk_out = dev.alloc<double>(static_cast<std::size_t>(nk));
    auto vec_view = vec_out.view();
    auto wrk_view = wrk_out.view();

    const auto load = [=](gpusim::ThreadCtx& ctx, std::int64_t k,
                          std::int64_t j, std::int64_t i) {
      return ctx.ld(in_view, static_cast<std::size_t>((k * nj + j) * ni + i));
    };
    reduce::Bindings<double> vb;
    vb.contrib = reduce::per_lane(load);
    vb.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                   std::int64_t j, double res) {
      ctx.st(vec_view, static_cast<std::size_t>(k * nj + j), res);
    });
    auto s1 = reduce::run_vector_reduction<double>(
        dev, dims, cfg, acc::ReductionOp::kSum, vb, sc);

    reduce::Bindings<double> wb;
    wb.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                      std::int64_t j, std::int64_t) {
      return ctx.ld(vec_view, static_cast<std::size_t>(k * nj + j));
    });
    wb.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                   std::int64_t, double res) {
      ctx.st(wrk_view, static_cast<std::size_t>(k), res);
    });
    auto s2 = reduce::run_worker_reduction<double>(
        dev, dims, cfg, acc::ReductionOp::kSum, wb, sc);

    reduce::Bindings<double> gb;
    gb.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                      std::int64_t, std::int64_t) {
      return ctx.ld(wrk_view, static_cast<std::size_t>(k));
    });
    auto s3 = reduce::run_gang_reduction<double>(
        dev, dims, cfg, acc::ReductionOp::kSum, gb, sc);

    ab.unfused_stats = s1.stats;
    ab.unfused_stats += s2.stats;
    ab.unfused_stats += s3.stats;
    ab.unfused_kernels = s1.kernels + s2.kernels + s3.kernels;
    ab.unfused_ms = ab.unfused_stats.device_time_ns / 1e6;

    // ---- fused: one kernel + finalize ------------------------------
    std::vector<acc::FusedStage> chain = {
        {acc::ReductionOp::kSum, acc::Par::kVector, "i_sum"},
        {acc::ReductionOp::kSum, acc::Par::kWorker, "j_sum"},
        {acc::ReductionOp::kSum, acc::Par::kGang, "sum"},
    };
    reduce::FusedChainBindings<double> fb;
    fb.contrib = reduce::per_lane(load);
    auto fused = reduce::run_fused_chain<double>(dev, chain, dims, cfg, fb,
                                                 sc);
    ab.fused_stats = fused.stats;
    ab.fused_kernels = fused.kernels;
    ab.fused_ms = ab.fused_stats.device_time_ns / 1e6;
    // Same fold orders stage for stage: the scalars must agree bit for bit.
    ab.identical = fused.scalar.has_value() && s3.scalar.has_value() &&
                   *fused.scalar == *s3.scalar;
  }
  return ab;
}

/// (sum, sum of squares) payload pair for the one-pass moments fold.
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

/// mean/variance chain: two same-loop passes vs one fused payload pass.
Ablation run_sum_mean_variance(std::int64_t r) {
  const std::int64_t n = r * 64;
  const acc::LaunchConfig cfg;
  const reduce::StrategyConfig sc;

  gpusim::Device dev;
  auto input = dev.alloc<double>(static_cast<std::size_t>(n), "x");
  {
    auto host = input.host_span();
    for (std::int64_t i = 0; i < n; ++i) {
      host[static_cast<std::size_t>(i)] =
          testsuite::testsuite_value<double>(acc::ReductionOp::kSum,
                                             static_cast<std::size_t>(i));
    }
  }
  auto in_view = input.view();

  Ablation ab;
  double mean_unfused = 0;
  double var_unfused = 0;

  // ---- unfused: two full passes over x ------------------------------
  {
    reduce::Bindings<double> sum_b;
    sum_b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx,
                                         std::int64_t idx, std::int64_t,
                                         std::int64_t) {
      return ctx.ld(in_view, static_cast<std::size_t>(idx));
    });
    auto s1 = reduce::run_same_loop_reduction<double>(
        dev, n, cfg, acc::ReductionOp::kSum, sum_b, sc);

    reduce::Bindings<double> sq_b;
    sq_b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx,
                                        std::int64_t idx, std::int64_t,
                                        std::int64_t) {
      const double x = ctx.ld(in_view, static_cast<std::size_t>(idx));
      ctx.alu(1);
      return x * x;
    });
    auto s2 = reduce::run_same_loop_reduction<double>(
        dev, n, cfg, acc::ReductionOp::kSum, sq_b, sc);

    ab.unfused_stats = s1.stats;
    ab.unfused_stats += s2.stats;
    ab.unfused_kernels = s1.kernels + s2.kernels;
    ab.unfused_ms = ab.unfused_stats.device_time_ns / 1e6;
    mean_unfused = *s1.scalar / static_cast<double>(n);
    var_unfused =
        *s2.scalar / static_cast<double>(n) - mean_unfused * mean_unfused;
  }

  // ---- fused: one pass folding the (sum, sumsq) pair ----------------
  {
    auto res = reduce::run_payload_reduction<Moments>(
        dev, n, cfg, MomentsOp{},
        [=](gpusim::ThreadCtx& ctx, std::int64_t idx) {
          const double x = ctx.ld(in_view, static_cast<std::size_t>(idx));
          ctx.alu(1);
          return Moments{x, x * x};
        },
        sc);
    ab.fused_stats = res.stats;
    ab.fused_kernels = res.kernels;
    ab.fused_ms = ab.fused_stats.device_time_ns / 1e6;
    const double mean = res.value.sum / static_cast<double>(n);
    const double var =
        res.value.sumsq / static_cast<double>(n) - mean * mean;
    // Different tree shapes (per-thread vs per-block partials), so compare
    // within rounding rather than bit for bit.
    const double tol = 1e-9 * (std::abs(var_unfused) + 1.0);
    ab.identical = std::abs(mean - mean_unfused) <=
                       1e-9 * (std::abs(mean_unfused) + 1.0) &&
                   std::abs(var - var_unfused) <= tol;
  }
  return ab;
}

void report(obs::RunRecord& record, util::TextTable& t,
            const std::string& name, const Ablation& ab) {
  const double cut = 100.0 * (1.0 - ab.fused_ms / ab.unfused_ms);
  t.row({name, util::TextTable::num(ab.unfused_ms, 3),
         util::TextTable::num(ab.fused_ms, 3),
         std::to_string(ab.unfused_kernels) + " -> " +
             std::to_string(ab.fused_kernels),
         util::TextTable::num(cut, 1) + "%", ab.identical ? "yes" : "NO"});
  record.entry(name + "/unfused")
      .metric("device_ms", ab.unfused_ms)
      .metric("kernels", ab.unfused_kernels)
      .stats(ab.unfused_stats);
  record.entry(name + "/fused")
      .metric("device_ms", ab.fused_ms)
      .metric("kernels", ab.fused_kernels)
      .metric("device_time_cut_pct", cut)
      .attr("results_match", ab.identical ? "yes" : "NO")
      .stats(ab.fused_stats);
}

int run(const util::Cli& cli, obs::RunRecord& record) {
  const std::int64_t r = cli.get_int("r", 1 << 14);

  std::cout << "== Cascade-fusion ablation (fused chain kernel vs one "
               "launch per stage) ==\n\n";
  util::TextTable t;
  t.header({"workload", "unfused ms", "fused ms", "kernels", "cut",
            "results match"});

  const Ablation fig4 = run_fig4_chain(r);
  report(record, t, "fig4_chain3", fig4);
  const Ablation smv = run_sum_mean_variance(r);
  report(record, t, "sum_mean_variance", smv);
  t.print(std::cout);

  bool ok = true;
  if (!fig4.identical) {
    std::cout << "\nFAIL: fused fig4 chain result is not bit-identical to "
                 "the unfused sequence\n";
    ok = false;
  }
  if (!smv.identical) {
    std::cout << "\nFAIL: fused moments diverged from the two-pass values\n";
    ok = false;
  }
  if (smv.fused_ms > 0.8 * smv.unfused_ms) {
    std::cout << "\nFAIL: fused sum_mean_variance models only "
              << 100.0 * (1.0 - smv.fused_ms / smv.unfused_ms)
              << "% device-time cut (gate: >= 20%)\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "cascade_fusion", {}, {"r"}, run);
}
