// Deterministic property fuzz: random loop nests (extents, spans,
// operators, types, launch shapes, compiler profiles) are planned,
// executed, and verified against the CPU fold. Any scheduling, planning,
// tree, or cost-model regression that corrupts results is caught here by
// sheer case diversity.
#include <gtest/gtest.h>

#include <tuple>

#include "acc/executor.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace accred::acc {
namespace {

struct FuzzCase {
  NestIR nest;
  ReductionOp op;
  DataType type;
  CompilerId compiler;
};

/// Build a random but *valid* nest: the triple gang/worker/vector shape
/// with random extents, a random reduction span, and random launch shape.
FuzzCase make_case(util::SplitMix64& rng) {
  FuzzCase fc;
  const ReductionOp ops[] = {
      ReductionOp::kSum,    ReductionOp::kProd,   ReductionOp::kMax,
      ReductionOp::kMin,    ReductionOp::kBitAnd, ReductionOp::kBitOr,
      ReductionOp::kBitXor, ReductionOp::kLogAnd, ReductionOp::kLogOr};
  const DataType types[] = {DataType::kInt32, DataType::kUInt32,
                            DataType::kInt64, DataType::kFloat,
                            DataType::kDouble};
  for (;;) {
    fc.op = ops[rng.next_below(std::size(ops))];
    fc.type = types[rng.next_below(std::size(types))];
    const bool bitwise = fc.op == ReductionOp::kBitAnd ||
                         fc.op == ReductionOp::kBitOr ||
                         fc.op == ReductionOp::kBitXor;
    if (!bitwise || is_integral(fc.type)) break;
  }
  const CompilerId ids[] = {CompilerId::kOpenUH, CompilerId::kCapsLike,
                            CompilerId::kPgiLike};
  fc.compiler = ids[rng.next_below(3)];

  auto extent = [&] {
    return static_cast<std::int64_t>(1 + rng.next_below(40));
  };
  fc.nest.loops = {LoopSpec{mask_of(Par::kGang), extent(), {}},
                   LoopSpec{mask_of(Par::kWorker), extent(), {}},
                   LoopSpec{mask_of(Par::kVector), extent(), {}}};
  fc.nest.config.num_gangs = 1 + static_cast<std::uint32_t>(rng.next_below(8));
  fc.nest.config.num_workers =
      1 + static_cast<std::uint32_t>(rng.next_below(8));
  fc.nest.config.vector_length =
      32 * (1 + static_cast<std::uint32_t>(rng.next_below(4)));

  // Random span: pick accumulation level and use level < it.
  const int accum = static_cast<int>(rng.next_below(3));
  const int use =
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(accum) + 1)) -
      1;  // in [-1, accum-1]
  fc.nest.vars = {{"r", fc.type, accum, use}};
  const ReductionClause clause{fc.op, "r", 0};
  if (acc::profile(fc.compiler).discipline ==
      ClauseDiscipline::kExplicitAllLevels) {
    for (int l = use + 1; l <= accum; ++l) {
      fc.nest.loops[static_cast<std::size_t>(l)].reductions = {clause};
    }
  } else {
    fc.nest.loops[static_cast<std::size_t>(use + 1)].reductions = {clause};
  }
  return fc;
}

template <typename T>
void run_and_verify(const FuzzCase& fc, std::uint64_t seed) {
  gpusim::Device dev;
  const auto [nk, nj, ni] = std::tuple{fc.nest.loops[0].extent,
                                       fc.nest.loops[1].extent,
                                       fc.nest.loops[2].extent};
  const ExecutionPlan plan = plan_single(fc.nest, profile(fc.compiler));

  // Contributions depend on the span: the accumulation level's loop
  // carries the innermost contributing index.
  const int accum = fc.nest.vars[0].accum_level;
  const std::size_t volume = static_cast<std::size_t>(
      accum == 0 ? nk : (accum == 1 ? nk * nj : nk * nj * ni));
  auto host = test::make_input<T>(fc.op, volume);
  auto input = dev.alloc<T>(volume);
  input.copy_from_host(host);
  auto in_view = input.view();

  // Per-instance sinks: one slot per outer instance above the span.
  const int use = fc.nest.vars[0].use_level;
  const std::size_t slots = static_cast<std::size_t>(
      use == -1 ? 1 : (use == 0 ? nk : nk * nj));
  auto out = dev.alloc<T>(slots);
  auto out_view = out.view();

  reduce::Bindings<T> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                   std::int64_t j, std::int64_t i) {
    std::size_t idx = static_cast<std::size_t>(k);
    if (accum >= 1) idx = static_cast<std::size_t>(k * nj + std::max<std::int64_t>(j, 0));
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

  auto res = execute<T>(dev, plan, b);

  // Host verification per sink slot.
  const RuntimeOp<T> rop{fc.op};
  const std::size_t per_slot = volume / slots;
  for (std::size_t s = 0; s < slots; ++s) {
    T expect = rop.identity();
    for (std::size_t i = 0; i < per_slot; ++i) {
      expect = rop.apply(expect, host[s * per_slot + i]);
    }
    const T actual = use == -1 ? res.scalar.value_or(rop.identity())
                               : out.host_span()[s];
    EXPECT_TRUE(testsuite::reduction_result_matches(expect, actual,
                                                    per_slot))
        << "seed " << seed << " slot " << s << " op "
        << to_string(fc.op) << " type " << to_string(fc.type) << " plan "
        << to_string(plan.kind) << " compiler " << to_string(fc.compiler)
        << " dims " << nk << "x" << nj << "x" << ni << " expect " << expect
        << " actual " << actual;
  }
}

class FuzzNests : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzNests, RandomNestVerifies) {
  util::SplitMix64 rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    const FuzzCase fc = make_case(rng);
    dispatch_type(fc.type, [&](auto tag) {
      using T = typename decltype(tag)::type;
      run_and_verify<T>(fc, GetParam());
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzNests,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34),
                         [](const auto& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace accred::acc
