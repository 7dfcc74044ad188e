// The warp-width contract over the Table 2 cells (DESIGN.md §12). A clean
// run executes the strategies' warp kernels on one fiber per warp (width
// 32); the same cell under racecheck runs them one lane per context
// (width 1, lane order). Both must agree bit for bit on every LaunchStats
// counter, alu_units, modeled device time and result hash: at the paper's
// block shape, at a smaller one, and with blocking iteration assignment.
// At a vector length that is not a multiple of 32 a warp spans two rows,
// its lanes diverge by more than a prefix, and the width rule keeps the
// clean run at width 1; that sweep pins the rule. test_warp_widths_ext.cpp
// holds the extended kinds and the kernels no runner cell reaches.
#include <gtest/gtest.h>

#include <string>

#include "testsuite/cases.hpp"
#include "testsuite/warp_widths.hpp"

namespace accred::testsuite {
namespace {

/// Run every cell of `cells` at both widths and compare: for every
/// compiler, or with `rotate` for one compiler per cell in turn.
void expect_widths_agree(const acc::LaunchConfig& config,
                         const std::vector<CaseSpec>& cells, bool blocking,
                         bool rotate = false) {
  RunnerOptions clean;
  clean.reduction_extent = 256;
  clean.config = config;
  RunnerOptions raced = clean;
  raced.racecheck = true;  // forces width 1; stats are unaffected by it
  Runner wide(clean);
  Runner narrow(raced);
  for (const acc::CompilerId id : kCompilers) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (rotate && kCompilers[c % 3] != id) continue;
      const CaseSpec& spec = cells[c];
      SCOPED_TRACE(std::string(acc::to_string(id)) + " " +
                   std::string(to_string(spec.pos)) + " " +
                   std::string(acc::to_string(spec.op)) + " " +
                   std::string(acc::to_string(spec.type)));
      CaseOutcome a;
      CaseOutcome b;
      if (blocking) {
        acc::ExecutionPlan plan = plan_for_case(id, spec, clean);
        plan.strategy.assignment = reduce::Assignment::kBlocking;
        a = wide.run_planned(id, spec, plan);
        b = narrow.run_planned(id, spec, plan);
      } else {
        a = wide.run(id, spec);
        b = narrow.run(id, spec);
      }
      expect_same_outcome(a, b);
    }
  }
}

TEST(WarpWidths, Table2GridAtThePaperShape) {
  expect_widths_agree({192, 8, 128}, table2_grid(), /*blocking=*/false);
}

TEST(WarpWidths, Table2GridAtASmallerShape) {
  expect_widths_agree({24, 4, 64}, table2_grid(), /*blocking=*/false);
}

TEST(WarpWidths, FullGridWithRowsStraddlingWarps) {
  expect_widths_agree({8, 2, 48}, full_grid(), /*blocking=*/false,
                      /*rotate=*/true);
}

TEST(WarpWidths, FullGridWithBlockingAssignment) {
  expect_widths_agree({8, 2, 64}, full_grid(), /*blocking=*/true,
                      /*rotate=*/true);
}

}  // namespace
}  // namespace accred::testsuite
