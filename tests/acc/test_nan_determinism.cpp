// NaN determinism for min/max reductions: ops.hpp's NaN-propagating
// apply makes the fold's result independent of fold order, so every
// strategy (all seven Table 2 positions) and every host-thread count must
// produce bit-identical results on inputs laced with quiet NaNs and
// +/-infinities. Drives acc::execute directly —
// execute_guarded's numeric guard rejects non-finite scalars by design,
// so the guarded path can never see these inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "acc/executor.hpp"
#include "testsuite/runner.hpp"

namespace accred::acc {
namespace {

/// Where the reduction accumulates and where its value is next used, per
/// position — mirrors the runner's internal semantics table (runner.cpp).
struct Span {
  int accum;
  int use;
};

Span span_of(Position pos) {
  switch (pos) {
    case Position::kGang: return {0, VarInfo::kHostUse};
    case Position::kWorker: return {1, 0};
    case Position::kVector: return {2, 1};
    case Position::kGangWorker: return {1, VarInfo::kHostUse};
    case Position::kWorkerVector: return {2, 0};
    case Position::kGangWorkerVector: return {2, VarInfo::kHostUse};
    case Position::kSameLineGangWorkerVector: return {0, VarInfo::kHostUse};
  }
  return {0, VarInfo::kHostUse};
}

/// Finite values with quiet NaNs and +/-infinities sprinkled at prime
/// periods, so multi-slot positions get both NaN-carrying and NaN-free
/// slots. No negative zero: min(-0.0, 0.0) is order-dependent at the bit
/// level and would fail the bitwise comparison for a reason unrelated to
/// NaN handling.
template <typename T>
std::vector<T> laced_input(std::size_t n) {
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 97 == 13) {
      v[i] = std::numeric_limits<T>::quiet_NaN();
    } else if (i % 89 == 31) {
      v[i] = std::numeric_limits<T>::infinity();
    } else if (i % 83 == 47) {
      v[i] = -std::numeric_limits<T>::infinity();
    } else {
      v[i] = static_cast<T>(static_cast<double>(i % 19) - 9.0);
    }
  }
  return v;
}

template <typename T>
auto bits_of(T v) {
  if constexpr (sizeof(T) == 4) {
    return std::bit_cast<std::uint32_t>(v);
  } else {
    return std::bit_cast<std::uint64_t>(v);
  }
}

template <typename T>
void run_cell(Position pos, ReductionOp op, std::uint32_t sim_threads) {
  const testsuite::CaseSpec spec{pos, op, data_type_of<T>()};
  testsuite::RunnerOptions opts;
  opts.reduction_extent = 64;
  ExecutionPlan plan =
      testsuite::plan_for_case(CompilerId::kOpenUH, spec, opts);
  plan.strategy.sim.sim_threads = sim_threads;

  gpusim::Device dev;
  const std::int64_t nk = plan.dims.nk;
  const std::int64_t nj = plan.dims.nj;
  const std::int64_t ni = plan.dims.ni;
  const Span sp = span_of(pos);
  const std::size_t volume =
      pos == Position::kSameLineGangWorkerVector
          ? static_cast<std::size_t>(plan.same_loop_extent)
          : static_cast<std::size_t>(sp.accum == 0   ? nk
                                     : sp.accum == 1 ? nk * nj
                                                     : nk * nj * ni);
  const std::size_t slots = static_cast<std::size_t>(
      sp.use == -1 ? 1 : (sp.use == 0 ? nk : nk * nj));

  const std::vector<T> host = laced_input<T>(volume);
  auto input = dev.alloc<T>(volume);
  input.copy_from_host(host);
  auto in_view = input.view();
  auto out = dev.alloc<T>(slots);
  auto out_view = out.view();

  const int accum = sp.accum;
  const int use = sp.use;
  reduce::Bindings<T> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                   std::int64_t j, std::int64_t i) {
    std::size_t idx = static_cast<std::size_t>(k);
    if (accum >= 1) {
      idx = static_cast<std::size_t>(k * nj + std::max<std::int64_t>(j, 0));
    }
    if (accum >= 2) {
      idx = static_cast<std::size_t>(
          (k * nj + std::max<std::int64_t>(j, 0)) * ni +
          std::max<std::int64_t>(i, 0));
    }
    return ctx.ld(in_view, idx);
  });
  b.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                std::int64_t j, T r) {
    std::size_t s = 0;
    if (use == 0) s = static_cast<std::size_t>(k);
    if (use == 1) s = static_cast<std::size_t>(k * nj + j);
    ctx.st(out_view, s, r);
  });

  const auto res = execute<T>(dev, plan, b);

  const RuntimeOp<T> rop{op};
  const std::size_t per_slot = volume / slots;
  for (std::size_t s = 0; s < slots; ++s) {
    T expect = rop.identity();
    for (std::size_t i = 0; i < per_slot; ++i) {
      expect = rop.apply(expect, host[s * per_slot + i]);
    }
    const T actual = use == -1 ? res.scalar.value_or(rop.identity())
                               : out.host_span()[s];
    EXPECT_EQ(bits_of(expect), bits_of(actual))
        << "pos " << to_string(pos) << " op " << to_string(op) << " type "
        << to_string(spec.type) << " plan " << to_string(plan.kind)
        << " sim_threads " << sim_threads
        << " slot " << s << " expect " << expect << " actual " << actual;
  }
}

class NanDeterminism : public ::testing::TestWithParam<Position> {};

TEST_P(NanDeterminism, MinMaxBitIdenticalAcrossStrategyAndSimKnobs) {
  for (ReductionOp op : {ReductionOp::kMin, ReductionOp::kMax}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      run_cell<float>(GetParam(), op, threads);
      run_cell<double>(GetParam(), op, threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPositions, NanDeterminism,
                         ::testing::ValuesIn(testsuite::all_positions()),
                         [](const auto& info) {
                           std::string name(to_string(info.param));
                           for (char& c : name) {
                             if (c == ' ' || c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace accred::acc
