// Segmented reductions: one consolidated value per segment of a
// partitioned iteration space (CSR row sums, per-bin statistics). Builds
// on the array-reduction machinery — each segment is one element of the
// reduction array, so per-thread private copies, the shared-slab
// per-element trees, and the vectorized finalize all apply unchanged.
#pragma once

#include "reduce/array_reduce.hpp"

namespace accred::reduce {

/// Reduce `extent` iterations into `num_segments` buckets.
/// `segment_of(idx)` maps an iteration to its segment (must be
/// < num_segments); `value_of(ctx, idx)` produces its contribution.
template <typename T, typename SegFn, typename ValFn>
ArrayReduceResult<T> run_segmented_reduction(
    gpusim::Device& dev, std::int64_t extent, std::size_t num_segments,
    const acc::LaunchConfig& cfg, acc::ReductionOp op, SegFn&& segment_of,
    ValFn&& value_of, const StrategyConfig& sc = {}) {
  return run_array_reduction<T>(
      dev, extent, num_segments, cfg, op,
      [&](gpusim::ThreadCtx& ctx, std::int64_t idx, ArrayAccum<T>& accum) {
        accum.add(segment_of(idx), value_of(ctx, idx));
      },
      sc);
}

}  // namespace accred::reduce
