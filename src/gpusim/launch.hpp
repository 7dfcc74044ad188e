// Kernel launch driver: validates geometry, simulates all blocks of the
// grid — sharded across the host worker pool (pool.hpp) — and produces
// LaunchStats with the modeled device time.
#pragma once

#include <cstddef>

#include "gpusim/device.hpp"
#include "gpusim/scheduler.hpp"

namespace accred::gpusim {

/// Launch `kernel` over `grid` x `block` with `shared_bytes` of shared
/// memory per block on `dev`. Blocks are independent (the CUDA contract),
/// so they execute in parallel across opts.sim_threads host workers; the
/// returned stats and modeled Kepler time are bit-identical for every
/// thread count (determinism contract: DESIGN.md §7). Kernels must not
/// share mutable host state across blocks.
LaunchStats launch(Device& dev, Dim3 grid, Dim3 block,
                   std::size_t shared_bytes, const KernelFn& kernel,
                   const SimOptions& opts = {});

/// Launch a warp kernel (warp_ctx.hpp). Same contract and the same stats
/// as a ThreadCtx kernel giving each lane the same events. It runs one
/// fiber per warp when block.x is a multiple of 32, unless opts.profile,
/// opts.racecheck or a non-empty fault plan asks for lane order; otherwise
/// it runs one lane per context.
LaunchStats launch(Device& dev, Dim3 grid, Dim3 block,
                   std::size_t shared_bytes, const WarpKernelFn& kernel,
                   const SimOptions& opts = {});

}  // namespace accred::gpusim
