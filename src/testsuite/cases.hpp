// The reduction testsuite's case registry (§4, Table 2): seven reduction
// positions, the published operator/type grid, and the loop geometry of
// each case. "When one loop level needs to do reduction, that loop
// iteration size is up to 1M and the other two loops are 2 and 32"; every
// case moves the same total volume (64 x the reduction extent), as in the
// paper, so times are comparable across rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "acc/profiles.hpp"
#include "reduce/strategy.hpp"

namespace accred::testsuite {

struct CaseSpec {
  acc::Position pos = acc::Position::kGang;
  acc::ReductionOp op = acc::ReductionOp::kSum;
  acc::DataType type = acc::DataType::kInt32;
};

/// Loop extents for a case, parameterized by the reduction extent `r`
/// (the paper's "up to 1M"; our benches default to 2^17 and offer --full).
/// `volume` and `out_slots` size the runner's buffers, and the service's
/// admission estimate reads the same two numbers.
struct CaseGeometry {
  reduce::Nest3 dims;                ///< (gang, worker, vector) extents
  std::int64_t same_loop_extent = 0; ///< for the same-line case
  std::int64_t contrib_count = 0;    ///< contributions folded per result
  std::size_t volume = 0;            ///< input elements (nk*nj*ni or same-line)
  std::size_t out_slots = 1;         ///< per-instance results (vector/worker)
};

[[nodiscard]] CaseGeometry case_geometry(acc::Position pos, std::int64_t r);

/// All seven positions, in Table 2 row order.
[[nodiscard]] const std::vector<acc::Position>& all_positions();

/// The published Table 2 grid: positions x {+, *} x {int, float, double}.
[[nodiscard]] std::vector<CaseSpec> table2_grid();

/// The full coverage grid: positions x all operators x all types (valid
/// combinations only) — the "testsuite to validate all possible cases".
[[nodiscard]] std::vector<CaseSpec> full_grid();

/// Extended reduction kinds beyond the Table 2 scalar grid: the RAJA-style
/// loc-reductions, segmented (per-bucket) reductions over the array
/// machinery, and the fused Fig. 4 producer→consumer cascade. These run
/// through the same verification / racecheck / fault-campaign harness as
/// the scalar cells but live in their own grid — the published Table 2
/// position set must not grow (committed baselines key on it).
enum class ExtKind : std::uint8_t {
  kArgMin,        ///< (value, index) pair, reduce/argminmax.hpp
  kArgMax,
  kSegmented,     ///< one result per bucket, reduce/segmented_reduce.hpp
  kFusedCascade,  ///< Fig. 4 chain in one kernel, reduce/fused_cascade.hpp
};

[[nodiscard]] std::string_view to_string(ExtKind k);

struct ExtSpec {
  ExtKind kind = ExtKind::kArgMin;
  acc::DataType type = acc::DataType::kInt32;
};

/// The extended-kind grid: every ExtKind x {int, float, double}.
[[nodiscard]] std::vector<ExtSpec> ext_grid();

}  // namespace accred::testsuite
