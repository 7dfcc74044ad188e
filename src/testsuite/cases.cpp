#include "testsuite/cases.hpp"

namespace accred::testsuite {

CaseGeometry case_geometry(acc::Position pos, std::int64_t r) {
  using acc::Position;
  CaseGeometry g;
  switch (pos) {
    case Position::kGang:
      g.dims = {r, 2, 32};
      g.contrib_count = r;
      break;
    case Position::kWorker:
      g.dims = {2, r, 32};
      g.contrib_count = r;
      break;
    case Position::kVector:
      g.dims = {2, 32, r};
      g.contrib_count = r;
      break;
    case Position::kGangWorker:
      g.dims = {r, 2, 32};
      g.contrib_count = r * 2;
      break;
    case Position::kWorkerVector:
      g.dims = {32, 2, r};
      g.contrib_count = 2 * r;
      break;
    case Position::kGangWorkerVector:
      g.dims = {r, 2, 32};
      g.contrib_count = r * 2 * 32;
      break;
    case Position::kSameLineGangWorkerVector:
      g.dims = {1, 1, 1};
      g.same_loop_extent = r * 64;
      g.contrib_count = r * 64;
      break;
  }
  g.volume = static_cast<std::size_t>(
      pos == Position::kSameLineGangWorkerVector
          ? g.same_loop_extent
          : g.dims.nk * g.dims.nj * g.dims.ni);
  // One result slot per instance: (k, j) for the vector case, k for the
  // worker-level ones.
  if (pos == Position::kVector) {
    g.out_slots = static_cast<std::size_t>(g.dims.nk * g.dims.nj);
  } else if (pos == Position::kWorker || pos == Position::kWorkerVector) {
    g.out_slots = static_cast<std::size_t>(g.dims.nk);
  }
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
