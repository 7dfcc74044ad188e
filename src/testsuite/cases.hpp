// The reduction testsuite's case registry (§4, Table 2): seven reduction
// positions, the published operator/type grid, and the loop geometry of
// each case. "When one loop level needs to do reduction, that loop
// iteration size is up to 1M and the other two loops are 2 and 32"; every
// case moves the same total volume (64 x the reduction extent), as in the
// paper, so times are comparable across rows.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "acc/ir.hpp"
#include "acc/profiles.hpp"
#include "reduce/strategy.hpp"

namespace accred::testsuite {

struct CaseSpec {
  acc::Position pos = acc::Position::kGang;
  acc::ReductionOp op = acc::ReductionOp::kSum;
  acc::DataType type = acc::DataType::kInt32;
};

/// A position as the paper pins a reduction (§3.2): the loop extents at
/// reduction extent `r` (the paper's "up to 1M"; our benches default to
/// 2^17 and offer --full), the level whose body accumulates the variable,
/// and the level where it is next used. Levels are 0 = gang, 1 = worker,
/// 2 = vector; a use level of acc::VarInfo::kHostUse (-1) means after the
/// region. The same-line case is one loop of extent 64r carrying all three
/// levels, stored as (64r, 1, 1). Every other field follows from those
/// three by one formula, and the runner's nest, loads, sinks, buffers and
/// host reference, and the service's admission estimate, read them here.
struct CaseGeometry {
  reduce::Nest3 dims;  ///< (gang, worker, vector) extents
  int accum_level = 0;
  int use_level = acc::VarInfo::kHostUse;
  /// Iteration (k, j, i) at the accumulation site reads input element
  /// k*load_stride[0] + j*load_stride[1] + i*load_stride[2]: the nest's
  /// row-major strides, 0 for every level deeper than accum_level (Fig. 4's
  /// temp[k][0][0]). The zero strides ignore the -1 a kernel passes for a
  /// level it does not iterate there.
  std::array<std::int64_t, 3> load_stride{};
  /// Instance (k, j) writes result slot k*sink_stride[0] + j*sink_stride[1]:
  /// row-major over the levels up to use_level, 0 deeper; all 0 for a
  /// value used after the region, which has no sink.
  std::array<std::int64_t, 3> sink_stride{};
  /// Contributions folded per result: the extents of levels use+1..accum.
  std::int64_t contrib_count = 0;
  std::size_t volume = 0;     ///< input elements, nk*nj*ni
  std::size_t out_slots = 1;  ///< results: the extents of levels <= use
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
