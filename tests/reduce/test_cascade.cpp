// Tests for cascaded reductions (§3.2 / Fig. 4 read as one program):
// different variables reduced at different levels, each feeding the next,
// run as the [vector, worker, gang] chain of reduce/fused_cascade.hpp and
// checked against a host fold of the whole chain.
#include <gtest/gtest.h>

#include "reduce/fused_cascade.hpp"
#include "test_support.hpp"

namespace accred::reduce {
namespace {

/// One operator per level of the Fig. 4 chain.
struct CascadeOps {
  acc::ReductionOp vector_op = acc::ReductionOp::kSum;
  acc::ReductionOp worker_op = acc::ReductionOp::kSum;
  acc::ReductionOp gang_op = acc::ReductionOp::kSum;
};

/// The [vector, worker, gang] chain, innermost first.
std::vector<acc::FusedStage> chain_of(const CascadeOps& ops) {
  return {{ops.vector_op, acc::Par::kVector, "i_sum"},
          {ops.worker_op, acc::Par::kWorker, "j_sum"},
          {ops.gang_op, acc::Par::kGang, "sum"}};
}

acc::LaunchConfig small_cfg() {
  acc::LaunchConfig cfg;
  cfg.num_gangs = 4;
  cfg.num_workers = 4;
  cfg.vector_length = 32;
  return cfg;
}

/// CPU reference of the full chain.
template <typename T>
T reference(const Nest3& n, std::span<const T> host, const CascadeOps& ops,
            bool with_inits, T gang_init) {
  const acc::RuntimeOp<T> vop{ops.vector_op};
  const acc::RuntimeOp<T> wop{ops.worker_op};
  const acc::RuntimeOp<T> gop{ops.gang_op};
  T total = gang_init;
  for (std::int64_t k = 0; k < n.nk; ++k) {
    T j_sum = with_inits ? static_cast<T>(k) : wop.identity();
    for (std::int64_t j = 0; j < n.nj; ++j) {
      T i_sum = with_inits ? static_cast<T>(j) : vop.identity();
      for (std::int64_t i = 0; i < n.ni; ++i) {
        i_sum = vop.apply(
            i_sum, host[static_cast<std::size_t>((k * n.nj + j) * n.ni + i)]);
      }
      j_sum = wop.apply(j_sum, i_sum);
    }
    total = gop.apply(total, j_sum);
  }
  return total;
}

template <typename T>
void run_case(const Nest3& n, const CascadeOps& ops, bool with_inits) {
  gpusim::Device dev;
  const auto volume = static_cast<std::size_t>(n.nk * n.nj * n.ni);
  auto host = test::make_input<T>(ops.vector_op, volume);
  auto input = dev.alloc<T>(volume);
  input.copy_from_host(host);
  auto iv = input.view();

  FusedChainBindings<T> b;
  b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                           std::int64_t j, std::int64_t i) {
    return ctx.ld(iv, static_cast<std::size_t>((k * n.nj + j) * n.ni + i));
  });
  if (with_inits) {
    b.vector_init = [](std::int64_t, std::int64_t j) {
      return static_cast<T>(j);
    };
    b.worker_init = [](std::int64_t k, std::int64_t) {
      return static_cast<T>(k);
    };
  }
  b.host_init = static_cast<T>(5);
  b.host_init_set = true;

  auto res = run_fused_chain<T>(dev, chain_of(ops), n, small_cfg(), b);
  ASSERT_TRUE(res.scalar.has_value());
  EXPECT_EQ(res.kernels, 2);
  const T expect = reference<T>(n, host, ops, with_inits, static_cast<T>(5));
  EXPECT_TRUE(testsuite::reduction_result_matches(
      expect, *res.scalar, static_cast<std::uint64_t>(volume)))
      << "expect " << expect << " actual " << *res.scalar;
}

TEST(Cascade, Fig4ChainSumSumSum) {
  run_case<std::int64_t>(Nest3{7, 9, 100},
                         CascadeOps{acc::ReductionOp::kSum,
                                    acc::ReductionOp::kSum,
                                    acc::ReductionOp::kSum},
                         /*with_inits=*/false);
}

TEST(Cascade, Fig4InitialValuesPerInstance) {
  // i_sum = j and j_sum = k, exactly the listings of Fig. 4.
  run_case<std::int64_t>(Nest3{5, 6, 64},
                         CascadeOps{acc::ReductionOp::kSum,
                                    acc::ReductionOp::kSum,
                                    acc::ReductionOp::kSum},
                         /*with_inits=*/true);
}

TEST(Cascade, MixedOperatorsAcrossLevels) {
  // max of per-k sums of per-row sums: different operators per level.
  run_case<std::int64_t>(Nest3{6, 5, 77},
                         CascadeOps{acc::ReductionOp::kSum,
                                    acc::ReductionOp::kSum,
                                    acc::ReductionOp::kMax},
                         false);
  // sum over k of per-k max of row minima.
  run_case<std::int64_t>(Nest3{6, 5, 77},
                         CascadeOps{acc::ReductionOp::kMin,
                                    acc::ReductionOp::kMax,
                                    acc::ReductionOp::kSum},
                         false);
}

TEST(Cascade, FloatChainWithinTolerance) {
  run_case<double>(Nest3{4, 8, 200},
                   CascadeOps{acc::ReductionOp::kSum, acc::ReductionOp::kMax,
                              acc::ReductionOp::kSum},
                   false);
}

TEST(Cascade, SinksObserveIntermediateResults) {
  gpusim::Device dev;
  const Nest3 n{3, 4, 16};
  auto input = dev.alloc<int>(static_cast<std::size_t>(n.nk * n.nj * n.ni));
  input.fill(1);
  auto temps = dev.alloc<int>(static_cast<std::size_t>(n.nk * n.nj));
  auto ktemps = dev.alloc<int>(static_cast<std::size_t>(n.nk));
  auto iv = input.view();
  auto tv = temps.view();
  auto kv = ktemps.view();

  FusedChainBindings<int> b;
  b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                           std::int64_t j, std::int64_t i) {
    return ctx.ld(iv, static_cast<std::size_t>((k * n.nj + j) * n.ni + i));
  });
  b.vector_sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                               std::int64_t j, int r) {
    ctx.st(tv, static_cast<std::size_t>(k * n.nj + j), r);
  });
  b.worker_sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                               std::int64_t, int r) {
    ctx.st(kv, static_cast<std::size_t>(k), r);
  });
  auto res = run_fused_chain<int>(dev, chain_of({}), n, small_cfg(), b);
  // temp[k][j] = ni; ktemp[k] = nj*ni; scalar = nk*nj*ni.
  for (int t : temps.host_span()) EXPECT_EQ(t, n.ni);
  for (int t : ktemps.host_span()) EXPECT_EQ(t, n.nj * n.ni);
  EXPECT_EQ(res.scalar.value_or(0), n.nk * n.nj * n.ni);
}

TEST(Cascade, EdgeExtents) {
  for (const Nest3 n : {Nest3{1, 1, 1}, Nest3{1, 9, 33}, Nest3{13, 1, 50},
                        Nest3{2, 17, 1}}) {
    run_case<std::int64_t>(n,
                           CascadeOps{acc::ReductionOp::kSum,
                                      acc::ReductionOp::kSum,
                                      acc::ReductionOp::kSum},
                           true);
  }
}

}  // namespace
}  // namespace accred::reduce
