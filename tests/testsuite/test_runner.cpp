// Tests for the Table-2 testsuite engine at a small reduction extent:
// every position verifies against the CPU on the OpenUH profile, the
// modeled F/CE cells surface as statuses, and the report renders.
#include "testsuite/runner.hpp"

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <sstream>
#include <string>

#include "testsuite/report.hpp"

namespace accred::testsuite {
namespace {

RunnerOptions fast_options() {
  RunnerOptions o;
  o.reduction_extent = 1 << 9;
  // Paper launch shape scaled down so tests stay quick but keep
  // worker/vector structure.
  o.config.num_gangs = 8;
  o.config.num_workers = 4;
  o.config.vector_length = 32;
  return o;
}

class AllPositions : public ::testing::TestWithParam<acc::Position> {};

TEST_P(AllPositions, OpenUHVerifiesSumAndProd) {
  Runner runner(fast_options());
  for (acc::ReductionOp op :
       {acc::ReductionOp::kSum, acc::ReductionOp::kProd}) {
    for (acc::DataType t : {acc::DataType::kInt32, acc::DataType::kFloat,
                            acc::DataType::kDouble}) {
      const CaseOutcome o =
          runner.run(acc::CompilerId::kOpenUH, {GetParam(), op, t});
      EXPECT_EQ(o.status, acc::Robustness::kOk);
      EXPECT_TRUE(o.verified) << to_string(GetParam()) << " "
                              << to_string(op) << " " << to_string(t) << ": "
                              << o.detail;
      EXPECT_GT(o.device_ms, 0.0);
    }
  }
}

TEST_P(AllPositions, OpenUHVerifiesFullOperatorGrid) {
  Runner runner(fast_options());
  for (const CaseSpec& spec : full_grid()) {
    if (spec.pos != GetParam()) continue;
    const CaseOutcome o = runner.run(acc::CompilerId::kOpenUH, spec);
    EXPECT_TRUE(o.verified)
        << to_string(spec.pos) << " " << to_string(spec.op) << " "
        << to_string(spec.type) << ": " << o.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllPositions, ::testing::ValuesIn(all_positions()),
    [](const ::testing::TestParamInfo<acc::Position>& info) {
      std::string name(to_string(info.param));
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

TEST(Runner, CapsAndPgiVerifyWhereTheyWork) {
  Runner runner(fast_options());
  for (acc::CompilerId id :
       {acc::CompilerId::kCapsLike, acc::CompilerId::kPgiLike}) {
    for (const CaseSpec& spec : table2_grid()) {
      const CaseOutcome o = runner.run(id, spec);
      if (o.status == acc::Robustness::kOk) {
        EXPECT_TRUE(o.verified)
            << to_string(id) << " " << to_string(spec.pos) << " "
            << to_string(spec.op) << " " << to_string(spec.type) << ": "
            << o.detail;
      }
    }
  }
}

TEST(Runner, ModeledFailuresMatchTable2) {
  Runner runner(fast_options());
  // PGI fails the worker '+' cells and cannot compile gwv '+'.
  auto o = runner.run(acc::CompilerId::kPgiLike,
                      {acc::Position::kWorker, acc::ReductionOp::kSum,
                       acc::DataType::kFloat});
  EXPECT_EQ(o.status, acc::Robustness::kRuntimeFailure);
  EXPECT_EQ(o.device_ms, 0.0);
  o = runner.run(acc::CompilerId::kPgiLike,
                 {acc::Position::kGangWorkerVector, acc::ReductionOp::kSum,
                  acc::DataType::kInt32});
  EXPECT_EQ(o.status, acc::Robustness::kCompileError);
  // CAPS fails the RMP '+' cells.
  o = runner.run(acc::CompilerId::kCapsLike,
                 {acc::Position::kWorkerVector, acc::ReductionOp::kSum,
                  acc::DataType::kDouble});
  EXPECT_EQ(o.status, acc::Robustness::kRuntimeFailure);
}

TEST(Runner, GeometryMovesSameVolumeEverywhere) {
  const std::int64_t r = 1 << 10;
  for (acc::Position pos : all_positions()) {
    const CaseGeometry g = case_geometry(pos, r);
    EXPECT_EQ(g.dims.nk * g.dims.nj * g.dims.ni, 64 * r) << to_string(pos);
    EXPECT_EQ(g.volume, static_cast<std::size_t>(64 * r)) << to_string(pos);
  }
}

TEST(Runner, PositionTableStatesThePaperNests) {
  // Each Table 2 position at r = 4, written out by hand from its loop
  // extents and its accumulation and use levels (0 = gang, 1 = worker,
  // 2 = vector, -1 = after the region).
  struct Row {
    acc::Position pos;
    std::array<std::int64_t, 3> dims;
    int accum, use;
    std::array<std::int64_t, 3> load, sink;
    std::int64_t contribs;
    std::size_t slots;
  };
  using P = acc::Position;
  const Row rows[] = {
      {P::kGang, {4, 2, 32}, 0, -1, {64, 0, 0}, {0, 0, 0}, 4, 1},
      {P::kWorker, {2, 4, 32}, 1, 0, {128, 32, 0}, {1, 0, 0}, 4, 2},
      {P::kVector, {2, 32, 4}, 2, 1, {128, 4, 1}, {32, 1, 0}, 4, 64},
      {P::kGangWorker, {4, 2, 32}, 1, -1, {64, 32, 0}, {0, 0, 0}, 8, 1},
      {P::kWorkerVector, {32, 2, 4}, 2, 0, {8, 4, 1}, {1, 0, 0}, 8, 32},
      {P::kGangWorkerVector, {4, 2, 32}, 2, -1, {64, 32, 1}, {0, 0, 0}, 256,
       1},
      {P::kSameLineGangWorkerVector, {256, 1, 1}, 0, -1, {1, 0, 0},
       {0, 0, 0}, 256, 1},
  };
  ASSERT_EQ(std::size(rows), all_positions().size());
  for (const Row& want : rows) {
    SCOPED_TRACE(std::string(to_string(want.pos)));
    const CaseGeometry g = case_geometry(want.pos, 4);
    EXPECT_EQ((std::array{g.dims.nk, g.dims.nj, g.dims.ni}), want.dims);
    EXPECT_EQ(g.accum_level, want.accum);
    EXPECT_EQ(g.use_level, want.use);
    EXPECT_EQ(g.load_stride, want.load);
    EXPECT_EQ(g.sink_stride, want.sink);
    EXPECT_EQ(g.contrib_count, want.contribs);
    EXPECT_EQ(g.out_slots, want.slots);
  }
  // The gang kernel loads at (k, -1, -1) and the zero strides ignore the
  // -1s, so it reads Fig. 4's temp[k][0][0]: elements 0, 64, 128 and 192.
  const auto [sk, sj, si] = case_geometry(P::kGang, 4).load_stride;
  const std::int64_t gang_reads[] = {0, 64, 128, 192};
  for (std::int64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(k * sk - sj - si, gang_reads[k]);
  }
}

TEST(Runner, GeometryHasOneResultSlotPerInstance) {
  // (k, j) instances for the vector case, k for the worker-level ones.
  const auto slots = [](acc::Position pos) {
    return case_geometry(pos, 1 << 10).out_slots;
  };
  EXPECT_EQ(slots(acc::Position::kVector), 2u * 32u);
  EXPECT_EQ(slots(acc::Position::kWorker), 2u);
  EXPECT_EQ(slots(acc::Position::kWorkerVector), 32u);
  EXPECT_EQ(slots(acc::Position::kGang), 1u);
  EXPECT_EQ(slots(acc::Position::kGangWorkerVector), 1u);
  EXPECT_EQ(slots(acc::Position::kSameLineGangWorkerVector), 1u);
}

TEST(Runner, SingleLevelCasesAreSlowerThanRmpCases) {
  // The headline occupancy shape of Table 2: the single-level vector /
  // worker cases under-populate the device (2 gangs), the gang case
  // under-populates its blocks (64 active threads of 1024), while the
  // multi-level cases use every thread.
  RunnerOptions o;
  // Large enough that per-case work dominates the fixed launch + finalize
  // costs (the paper runs 2^20; costs are linear in the extent).
  o.reduction_extent = 1 << 15;
  o.config = {};  // full paper launch: 192 gangs, 8 workers, vector 128
  Runner runner(o);
  auto ms = [&](acc::Position pos) {
    const CaseOutcome c = runner.run(
        acc::CompilerId::kOpenUH,
        {pos, acc::ReductionOp::kSum, acc::DataType::kFloat});
    EXPECT_TRUE(c.verified) << to_string(pos) << ": " << c.detail;
    return c.device_ms;
  };
  const double t_vector = ms(acc::Position::kVector);
  const double t_worker = ms(acc::Position::kWorker);
  const double t_gang = ms(acc::Position::kGang);
  const double t_wv = ms(acc::Position::kWorkerVector);
  const double t_gwv = ms(acc::Position::kGangWorkerVector);
  const double t_sgwv = ms(acc::Position::kSameLineGangWorkerVector);
  // Ratios compress at this reduced extent (the finalize kernel is a fixed
  // cost); the full-scale ratios are reported by bench/table2_testsuite.
  EXPECT_GT(t_vector, 2 * t_gwv);
  EXPECT_GT(t_worker, 4 * t_gwv);
  EXPECT_GT(t_worker, t_vector);  // Table 2: worker is the slowest position
  EXPECT_GT(t_gang, 2 * t_gwv);
  EXPECT_GT(t_vector, 4 * t_sgwv);
  EXPECT_LT(t_wv, t_vector);  // multi-level beats single-level
}

TEST(Report, RendersTableAndSeries) {
  Runner runner(fast_options());
  Report report;
  const std::vector<acc::DataType> types = {acc::DataType::kInt32};
  const std::vector<acc::CompilerId> compilers = {
      acc::CompilerId::kOpenUH, acc::CompilerId::kPgiLike,
      acc::CompilerId::kCapsLike};
  for (acc::Position pos :
       {acc::Position::kGang, acc::Position::kWorkerVector}) {
    for (acc::CompilerId id : compilers) {
      const CaseSpec spec{pos, acc::ReductionOp::kSum, types[0]};
      report.add({pos, spec.op, types[0], id}, runner.run(id, spec));
    }
  }
  std::ostringstream table;
  report.print_table2(table, types, compilers);
  EXPECT_NE(table.str().find("gang"), std::string::npos);
  EXPECT_NE(table.str().find("worker vector"), std::string::npos);
  EXPECT_NE(table.str().find("F"), std::string::npos);  // CAPS wv '+' cell

  std::ostringstream fig;
  report.print_fig11(fig, types, compilers);
  EXPECT_NE(fig.str().find("# fig11 series: gang [+]"), std::string::npos);

  std::ostringstream verif;
  report.print_verification(verif);
  EXPECT_NE(verif.str().find("openuh"), std::string::npos);
}


class LaunchConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LaunchConfigSweep, AllPositionsVerifyUnderAnyLaunchShape) {
  const auto [g, w, v] = GetParam();
  RunnerOptions o;
  o.reduction_extent = 1 << 8;
  o.config.num_gangs = static_cast<std::uint32_t>(g);
  o.config.num_workers = static_cast<std::uint32_t>(w);
  o.config.vector_length = static_cast<std::uint32_t>(v);
  Runner runner(o);
  for (acc::Position pos : all_positions()) {
    const CaseOutcome c = runner.run(
        acc::CompilerId::kOpenUH,
        {pos, acc::ReductionOp::kSum, acc::DataType::kInt64});
    EXPECT_TRUE(c.verified)
        << to_string(pos) << " under " << g << "x" << w << "x" << v << ": "
        << c.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LaunchConfigSweep,
    ::testing::Values(std::tuple{1, 1, 32},    // minimal
                      std::tuple{2, 8, 128},   // few gangs, full blocks
                      std::tuple{3, 7, 96},    // odd worker count, non-pow2
                      std::tuple{16, 2, 64},   // many small blocks
                      std::tuple{5, 3, 32}),   // everything odd
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "g_" +
             std::to_string(std::get<1>(info.param)) + "w_" +
             std::to_string(std::get<2>(info.param)) + "v";
    });

}  // namespace
}  // namespace accred::testsuite
