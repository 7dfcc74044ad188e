#include "testsuite/cases.hpp"

namespace accred::testsuite {

CaseGeometry case_geometry(acc::Position pos, std::int64_t r) {
  using acc::Position;
  constexpr int kAfter = acc::VarInfo::kHostUse;
  CaseGeometry g;
  // The table: extents (k, j, i), accumulation level, use level.
  const auto row = [&g](reduce::Nest3 dims, int accum, int use) {
    g.dims = dims;
    g.accum_level = accum;
    g.use_level = use;
  };
  switch (pos) {
    case Position::kGang: row({r, 2, 32}, 0, kAfter); break;
    case Position::kWorker: row({2, r, 32}, 1, 0); break;
    case Position::kVector: row({2, 32, r}, 2, 1); break;
    case Position::kGangWorker: row({r, 2, 32}, 1, kAfter); break;
    case Position::kWorkerVector: row({32, 2, r}, 2, 0); break;
    case Position::kGangWorkerVector: row({r, 2, 32}, 2, kAfter); break;
    case Position::kSameLineGangWorkerVector:
      row({64 * r, 1, 1}, 0, kAfter);
      break;
  }

  // Everything else, one formula each, over the product of the extents of
  // levels first..last (1 when the range is empty).
  const std::int64_t extent[3] = {g.dims.nk, g.dims.nj, g.dims.ni};
  const auto extents = [&extent](int first, int last) {
    std::int64_t n = 1;
    for (int l = first; l <= last; ++l) n *= extent[l];
    return n;
  };
  for (int l = 0; l < 3; ++l) {
    if (l <= g.accum_level) g.load_stride[l] = extents(l + 1, 2);
    if (l <= g.use_level) g.sink_stride[l] = extents(l + 1, g.use_level);
  }
  g.contrib_count = extents(g.use_level + 1, g.accum_level);
  g.volume = static_cast<std::size_t>(extents(0, 2));
  g.out_slots = static_cast<std::size_t>(extents(0, g.use_level));
  return g;
}

const std::vector<acc::Position>& all_positions() {
  static const std::vector<acc::Position> kPositions = {
      acc::Position::kGang,
      acc::Position::kWorker,
      acc::Position::kVector,
      acc::Position::kGangWorker,
      acc::Position::kWorkerVector,
      acc::Position::kGangWorkerVector,
      acc::Position::kSameLineGangWorkerVector,
  };
  return kPositions;
}

std::vector<CaseSpec> table2_grid() {
  std::vector<CaseSpec> out;
  for (acc::Position pos : all_positions()) {
    for (acc::ReductionOp op :
         {acc::ReductionOp::kSum, acc::ReductionOp::kProd}) {
      for (acc::DataType type :
           {acc::DataType::kInt32, acc::DataType::kFloat,
            acc::DataType::kDouble}) {
        out.push_back({pos, op, type});
      }
    }
  }
  return out;
}

std::vector<CaseSpec> full_grid() {
  const acc::ReductionOp ops[] = {
      acc::ReductionOp::kSum,    acc::ReductionOp::kProd,
      acc::ReductionOp::kMax,    acc::ReductionOp::kMin,
      acc::ReductionOp::kBitAnd, acc::ReductionOp::kBitOr,
      acc::ReductionOp::kBitXor, acc::ReductionOp::kLogAnd,
      acc::ReductionOp::kLogOr};
  const acc::DataType types[] = {
      acc::DataType::kInt32, acc::DataType::kUInt32, acc::DataType::kInt64,
      acc::DataType::kFloat, acc::DataType::kDouble};
  std::vector<CaseSpec> out;
  for (acc::Position pos : all_positions()) {
    for (acc::ReductionOp op : ops) {
      const bool bitwise = op == acc::ReductionOp::kBitAnd ||
                           op == acc::ReductionOp::kBitOr ||
                           op == acc::ReductionOp::kBitXor;
      for (acc::DataType type : types) {
        if (bitwise && !is_integral(type)) continue;
        out.push_back({pos, op, type});
      }
    }
  }
  return out;
}

std::string_view to_string(ExtKind k) {
  switch (k) {
    case ExtKind::kArgMin: return "argmin";
    case ExtKind::kArgMax: return "argmax";
    case ExtKind::kSegmented: return "segmented";
    case ExtKind::kFusedCascade: return "fused-cascade";
  }
  return "?";
}

std::vector<ExtSpec> ext_grid() {
  std::vector<ExtSpec> out;
  for (ExtKind kind : {ExtKind::kArgMin, ExtKind::kArgMax,
                       ExtKind::kSegmented, ExtKind::kFusedCascade}) {
    for (acc::DataType type :
         {acc::DataType::kInt32, acc::DataType::kFloat,
          acc::DataType::kDouble}) {
      out.push_back({kind, type});
    }
  }
  return out;
}

}  // namespace accred::testsuite
