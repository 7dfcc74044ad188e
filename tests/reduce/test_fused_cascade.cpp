// Fused cascade kernel (reduce/fused_cascade.hpp): the bit-identity
// contract — a fused producer→consumer chain must reproduce the unfused
// one-launch-per-stage sequence's per-level results BIT FOR BIT, for every
// execution knob that reorders host work (sim_threads 1, 4) — plus
// racecheck coverage and barrier-deletion mutants for the new payload
// (argmin/argmax) and segmented kernels.
#include "reduce/fused_cascade.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "reduce/argminmax.hpp"
#include "reduce/gang_reduce.hpp"
#include "reduce/segmented_reduce.hpp"
#include "reduce/vector_reduce.hpp"
#include "reduce/worker_reduce.hpp"
#include "test_support.hpp"

namespace accred::reduce {
namespace {

acc::LaunchConfig small_cfg() {
  acc::LaunchConfig cfg;
  cfg.num_gangs = 4;
  cfg.num_workers = 4;
  cfg.vector_length = 32;
  return cfg;
}

/// Per-level outputs of one full chain run (fused or unfused).
template <typename T>
struct ChainLevels {
  std::vector<T> vector_results;  ///< nk * nj per-(k, j) values
  std::vector<T> worker_results;  ///< nk per-k values
  T scalar{};
  int kernels = 0;
};

std::vector<acc::FusedStage> sum_chain3() {
  return {{acc::ReductionOp::kSum, acc::Par::kVector, "i_sum"},
          {acc::ReductionOp::kSum, acc::Par::kWorker, "j_sum"},
          {acc::ReductionOp::kSum, acc::Par::kGang, "sum"}};
}

/// The unfused reference: one launch per stage, intermediates in global
/// memory — exactly what the planner emits without the fusion pass.
template <typename T>
ChainLevels<T> run_unfused(const Nest3& n, std::span<const T> host,
                           const StrategyConfig& sc) {
  gpusim::Device dev;
  const auto volume = static_cast<std::size_t>(n.nk * n.nj * n.ni);
  auto input = dev.alloc<T>(volume);
  input.copy_from_host(host);
  auto iv = input.view();
  auto vec_out = dev.alloc<T>(static_cast<std::size_t>(n.nk * n.nj));
  auto wrk_out = dev.alloc<T>(static_cast<std::size_t>(n.nk));
  auto vec_view = vec_out.view();
  auto wrk_view = wrk_out.view();
  const auto [nk, nj, ni] = n;

  Bindings<T> vb;
  vb.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                            std::int64_t j, std::int64_t i) {
    return ctx.ld(iv, static_cast<std::size_t>((k * nj + j) * ni + i));
  });
  vb.sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                         T r) {
    ctx.st(vec_view, static_cast<std::size_t>(k * nj + j), r);
  });
  auto s1 = run_vector_reduction<T>(dev, n, small_cfg(),
                                    acc::ReductionOp::kSum, vb, sc);

  Bindings<T> wb;
  wb.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                            std::int64_t j, std::int64_t) {
    return ctx.ld(vec_view, static_cast<std::size_t>(k * nj + j));
  });
  wb.sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t,
                         T r) {
    ctx.st(wrk_view, static_cast<std::size_t>(k), r);
  });
  auto s2 = run_worker_reduction<T>(dev, n, small_cfg(),
                                    acc::ReductionOp::kSum, wb, sc);

  Bindings<T> gb;
  gb.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                            std::int64_t, std::int64_t) {
    return ctx.ld(wrk_view, static_cast<std::size_t>(k));
  });
  auto s3 = run_gang_reduction<T>(dev, n, small_cfg(),
                                  acc::ReductionOp::kSum, gb, sc);

  ChainLevels<T> out;
  const auto vs = vec_out.host_span();
  const auto ws = wrk_out.host_span();
  out.vector_results.assign(vs.begin(), vs.end());
  out.worker_results.assign(ws.begin(), ws.end());
  out.scalar = *s3.scalar;
  out.kernels = s1.kernels + s2.kernels + s3.kernels;
  return out;
}

/// The fused run, capturing every level through the sinks.
template <typename T>
ChainLevels<T> run_fused(const Nest3& n, std::span<const T> host,
                         const StrategyConfig& sc) {
  gpusim::Device dev;
  const auto volume = static_cast<std::size_t>(n.nk * n.nj * n.ni);
  auto input = dev.alloc<T>(volume);
  input.copy_from_host(host);
  auto iv = input.view();
  auto vec_out = dev.alloc<T>(static_cast<std::size_t>(n.nk * n.nj));
  auto wrk_out = dev.alloc<T>(static_cast<std::size_t>(n.nk));
  auto vec_view = vec_out.view();
  auto wrk_view = wrk_out.view();
  const auto [nk, nj, ni] = n;

  FusedChainBindings<T> fb;
  fb.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                            std::int64_t j, std::int64_t i) {
    return ctx.ld(iv, static_cast<std::size_t>((k * nj + j) * ni + i));
  });
  fb.vector_sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                std::int64_t j, T r) {
    ctx.st(vec_view, static_cast<std::size_t>(k * nj + j), r);
  });
  fb.worker_sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                std::int64_t, T r) {
    ctx.st(wrk_view, static_cast<std::size_t>(k), r);
  });
  auto res = run_fused_chain<T>(dev, sum_chain3(), n, small_cfg(), fb, sc);

  ChainLevels<T> out;
  const auto vs = vec_out.host_span();
  const auto ws = wrk_out.host_span();
  out.vector_results.assign(vs.begin(), vs.end());
  out.worker_results.assign(ws.begin(), ws.end());
  out.scalar = *res.scalar;
  out.kernels = res.kernels;
  return out;
}

TEST(FusedCascade, PerLevelBitIdenticalToUnfusedAcrossExecutionKnobs) {
  // Floating sums are fold-order sensitive, so == on doubles IS the
  // bit-identity check: any window/staging/tree divergence between the
  // fused kernel and the stage kernels shows up here.
  const Nest3 n{7, 9, 100};
  const auto host = test::make_input<double>(
      acc::ReductionOp::kSum, static_cast<std::size_t>(n.nk * n.nj * n.ni));
  for (const std::uint32_t threads : {1u, 4u}) {
    StrategyConfig sc;
    sc.sim.sim_threads = threads;
    const ChainLevels<double> unfused = run_unfused<double>(n, host, sc);
    const ChainLevels<double> fused = run_fused<double>(n, host, sc);
    const std::string what = "sim_threads=" + std::to_string(threads);
    EXPECT_EQ(unfused.kernels, 4) << what;
    EXPECT_EQ(fused.kernels, 2) << what << ": one chain kernel + finalize";
    ASSERT_EQ(fused.vector_results.size(), unfused.vector_results.size());
    for (std::size_t s = 0; s < fused.vector_results.size(); ++s) {
      ASSERT_EQ(fused.vector_results[s], unfused.vector_results[s])
          << what << ": vector level diverged at instance " << s;
    }
    for (std::size_t s = 0; s < fused.worker_results.size(); ++s) {
      ASSERT_EQ(fused.worker_results[s], unfused.worker_results[s])
          << what << ": worker level diverged at k " << s;
    }
    EXPECT_EQ(fused.scalar, unfused.scalar) << what;
  }
}

TEST(FusedCascade, TwoStageChainsAndMixedOperators) {
  const Nest3 n{6, 5, 77};
  gpusim::Device dev;
  const auto volume = static_cast<std::size_t>(n.nk * n.nj * n.ni);
  const auto host = test::make_input<std::int64_t>(acc::ReductionOp::kSum,
                                                   volume);
  auto input = dev.alloc<std::int64_t>(volume);
  input.copy_from_host(host);
  auto iv = input.view();
  const auto [nk, nj, ni] = n;
  const auto contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k,
                           std::int64_t j, std::int64_t i) {
    return ctx.ld(iv, static_cast<std::size_t>((k * nj + j) * ni + i));
  };

  // [vector, worker]: per-k results leave through the worker sink.
  {
    auto out = dev.alloc<std::int64_t>(static_cast<std::size_t>(nk));
    auto ov = out.view();
    FusedChainBindings<std::int64_t> fb;
    fb.contrib = per_lane(contrib);
    fb.worker_sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                  std::int64_t, std::int64_t r) {
      ctx.st(ov, static_cast<std::size_t>(k), r);
    });
    const std::vector<acc::FusedStage> chain = {
        {acc::ReductionOp::kMin, acc::Par::kVector, "i_min"},
        {acc::ReductionOp::kMax, acc::Par::kWorker, "j_max"}};
    auto res =
        run_fused_chain<std::int64_t>(dev, chain, n, small_cfg(), fb, {});
    EXPECT_FALSE(res.scalar.has_value());
    EXPECT_EQ(res.kernels, 1);
    for (std::int64_t k = 0; k < nk; ++k) {
      std::int64_t expect = std::numeric_limits<std::int64_t>::lowest();
      for (std::int64_t j = 0; j < nj; ++j) {
        std::int64_t row = std::numeric_limits<std::int64_t>::max();
        for (std::int64_t i = 0; i < ni; ++i) {
          row = std::min(
              row,
              host[static_cast<std::size_t>((k * nj + j) * ni + i)]);
        }
        expect = std::max(expect, row);
      }
      EXPECT_EQ(out.host_span()[static_cast<std::size_t>(k)], expect)
          << "k=" << k;
    }
  }

  // [worker, gang]: no vector stage; contrib sees i = -1.
  {
    FusedChainBindings<std::int64_t> fb;
    fb.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                              std::int64_t j, std::int64_t) {
      return ctx.ld(iv, static_cast<std::size_t>(k * nj + j));
    });
    const std::vector<acc::FusedStage> chain = {
        {acc::ReductionOp::kSum, acc::Par::kWorker, "j_sum"},
        {acc::ReductionOp::kMax, acc::Par::kGang, "best"}};
    auto res =
        run_fused_chain<std::int64_t>(dev, chain, n, small_cfg(), fb, {});
    ASSERT_TRUE(res.scalar.has_value());
    EXPECT_EQ(res.kernels, 2) << "gang-terminated: kernel + finalize";
    std::int64_t expect = std::numeric_limits<std::int64_t>::lowest();
    for (std::int64_t k = 0; k < nk; ++k) {
      std::int64_t row = 0;
      for (std::int64_t j = 0; j < nj; ++j) {
        row += host[static_cast<std::size_t>(k * nj + j)];
      }
      expect = std::max(expect, row);
    }
    EXPECT_EQ(*res.scalar, expect);
  }
}

TEST(FusedCascade, RejectsUnsupportedChains) {
  gpusim::Device dev;
  FusedChainBindings<int> fb;
  fb.contrib = per_lane([](gpusim::ThreadCtx&, std::int64_t, std::int64_t,
                           std::int64_t) { return 1; });
  const Nest3 n{2, 2, 4};
  const std::vector<std::vector<acc::FusedStage>> bad_chains = {
      {},
      {{acc::ReductionOp::kSum, acc::Par::kVector, "v"}},
      {{acc::ReductionOp::kSum, acc::Par::kVector, "v"},
       {acc::ReductionOp::kSum, acc::Par::kGang, "g"}},
      {{acc::ReductionOp::kSum, acc::Par::kGang, "g"},
       {acc::ReductionOp::kSum, acc::Par::kWorker, "w"}}};
  for (const std::vector<acc::FusedStage>& bad : bad_chains) {
    EXPECT_THROW(
        (void)run_fused_chain<int>(dev, bad, n, small_cfg(), fb, {}),
        std::invalid_argument)
        << bad.size() << " stages";
  }
}

// ---- racecheck: the new kernels are race-free as shipped --------------

gpusim::SimOptions rc_opts() {
  gpusim::SimOptions o;
  o.racecheck = true;
  o.sim_threads = 1;
  return o;
}

TEST(FusedCascade, FusedChainKernelIsRaceFree) {
  const Nest3 n{5, 6, 64};
  gpusim::Device dev;
  const auto volume = static_cast<std::size_t>(n.nk * n.nj * n.ni);
  auto input = dev.alloc<double>(volume);
  input.fill(1.0);
  auto iv = input.view();
  const auto [nk, nj, ni] = n;
  FusedChainBindings<double> fb;
  fb.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                            std::int64_t j, std::int64_t i) {
    return ctx.ld(iv, static_cast<std::size_t>((k * nj + j) * ni + i));
  });
  StrategyConfig sc;
  sc.sim = rc_opts();
  auto res = run_fused_chain<double>(dev, sum_chain3(), n, small_cfg(), fb,
                                     sc);
  EXPECT_EQ(res.stats.races, 0u);
  EXPECT_EQ(*res.scalar, static_cast<double>(volume));
}

TEST(FusedCascade, ArgAndSegmentedKernelsAreRaceFree) {
  gpusim::Device dev;
  constexpr std::int64_t kN = 4096;
  auto input = dev.alloc<double>(kN);
  {
    auto host = input.host_span();
    for (std::int64_t i = 0; i < kN; ++i) {
      host[static_cast<std::size_t>(i)] =
          static_cast<double>((i * 37) % 1001);
    }
  }
  auto iv = input.view();
  StrategyConfig sc;
  sc.sim = rc_opts();

  auto arg = run_arg_reduction<double>(
      dev, kN, small_cfg(), /*want_min=*/false,
      [=](gpusim::ThreadCtx& ctx, std::int64_t i) {
        return ctx.ld(iv, static_cast<std::size_t>(i));
      },
      sc);
  EXPECT_EQ(arg.stats.races, 0u);

  auto seg = run_segmented_reduction<double>(
      dev, kN, 16, small_cfg(), acc::ReductionOp::kSum,
      [](std::int64_t i) { return static_cast<std::size_t>(i % 16); },
      [=](gpusim::ThreadCtx& ctx, std::int64_t i) {
        return ctx.ld(iv, static_cast<std::size_t>(i));
      },
      sc);
  EXPECT_EQ(seg.stats.races, 0u);
}

// ---- barrier-deletion mutants for the new kernel shapes ---------------
//
// Test-local kernels mirror the payload (argmax) staging + tree and the
// segmented per-block fold with exactly one barrier deleted: the race
// detector must catch each deletion, evidence the shipped barriers are
// load-bearing (same methodology as test_racecheck_mutations.cpp).

gpusim::LaunchStats run_argmax_mirror(bool leading_sync) {
  gpusim::Device dev;
  constexpr std::uint32_t kThreads = 64;
  auto out = dev.alloc<acc::ValueIndex<float>>(1);
  auto ov = out.view();
  gpusim::SharedLayout layout;
  auto sbuf = layout.add<acc::ValueIndex<float>>(kThreads);
  const acc::ArgMaxOp<float> op;
  return gpusim::launch(
      dev, {1}, {kThreads}, layout.bytes(),
      [&](gpusim::ThreadCtx& ctx) {
        const std::uint32_t i = ctx.threadIdx.x;
        ctx.sts(sbuf, i,
                acc::ValueIndex<float>{static_cast<float>((i * 13) % 29),
                                       static_cast<std::int64_t>(i)});
        if (leading_sync) ctx.syncthreads();
        // Sequential-addressing tree over the staged payload pairs; the
        // payload slots span multiple words, so a missing barrier races
        // on the struct stores.
        for (std::uint32_t stride = kThreads / 2; stride >= 1;
             stride /= 2) {
          if (i < stride) {
            const auto a = ctx.lds(sbuf, i);
            const auto b = ctx.lds(sbuf, i + stride);
            ctx.sts(sbuf, i, op.apply(a, b));
          }
          ctx.syncthreads();
        }
        if (i == 0) ctx.st(ov, 0, ctx.lds(sbuf, 0));
      },
      rc_opts());
}

TEST(FusedCascadeMutations, ArgMaxStagingMissingSyncIsCaught) {
  const gpusim::LaunchStats clean = run_argmax_mirror(true);
  EXPECT_EQ(clean.races, 0u);
  const gpusim::LaunchStats racy = run_argmax_mirror(false);
  EXPECT_GT(racy.races, 0u);
}

gpusim::LaunchStats run_segmented_mirror(bool publish_sync) {
  gpusim::Device dev;
  constexpr std::uint32_t kThreads = 64;
  constexpr std::uint32_t kSegments = 8;
  auto out = dev.alloc<float>(kSegments);
  auto ov = out.view();
  gpusim::SharedLayout layout;
  auto bins = layout.add<float>(kThreads * kSegments);
  return gpusim::launch(
      dev, {1}, {kThreads}, layout.bytes(),
      [&](gpusim::ThreadCtx& ctx) {
        const std::uint32_t i = ctx.threadIdx.x;
        // Per-thread private bins (the array-reduction layout), then a
        // cross-thread consolidation that reads every thread's rows.
        for (std::uint32_t s = 0; s < kSegments; ++s) {
          ctx.sts(bins, i * kSegments + s,
                  static_cast<float>((i + s) % 5));
        }
        if (publish_sync) ctx.syncthreads();
        if (i < kSegments) {
          float total = 0;
          for (std::uint32_t t = 0; t < kThreads; ++t) {
            total += ctx.lds(bins, t * kSegments + i);
          }
          ctx.st(ov, i, total);
        }
      },
      rc_opts());
}

TEST(FusedCascadeMutations, SegmentedBinsMissingSyncIsCaught) {
  const gpusim::LaunchStats clean = run_segmented_mirror(true);
  EXPECT_EQ(clean.races, 0u);
  const gpusim::LaunchStats racy = run_segmented_mirror(false);
  EXPECT_GT(racy.races, 0u);
}

}  // namespace
}  // namespace accred::reduce
