// Multiple reduction variables of mixed data types in one clause (§3.3).
//
// When one reduction clause carries several variables of different types
// (e.g. an int and a double), the staging slab can be laid out two ways:
//   * kPerVarSections — one section per variable ("create a large shared
//     memory space and reserve different sections for different data
//     types"), which "may face the shared memory size issue";
//   * kSharedMaxSlab — OpenUH: one slab sized for the largest type, reused
//     sequentially by every variable (the int tree and the double tree
//     time-share the same bytes).
//
// Implemented for the worker&vector span (shared staging is exactly where
// the layout question matters): every (gang) instance produces one result
// per variable.
#pragma once

#include <array>
#include <variant>
#include <vector>

#include "reduce/strategy.hpp"

namespace accred::reduce {

enum class SlabPolicy : std::uint8_t {
  kSharedMaxSlab,    ///< OpenUH §3.3: one slab, max element size
  kPerVarSections,   ///< baseline: a section per variable
};

using ScalarValue =
    std::variant<std::int32_t, std::uint32_t, std::int64_t, float, double>;

struct MultiVarSpec {
  acc::ReductionOp op = acc::ReductionOp::kSum;
  acc::DataType type = acc::DataType::kInt32;
  std::string name;
  /// Contribution of iteration (k, j, i), as the variable's own type. It
  /// runs on each active lane's view (WarpCtx::lane), lowest lane first,
  /// and must not synchronize.
  std::function<ScalarValue(gpusim::ThreadCtx&, std::int64_t k,
                            std::int64_t j, std::int64_t i)>
      contrib;
};

struct MultiReduceResult {
  /// values[var][k]: per-gang-instance result of each variable.
  std::vector<std::vector<ScalarValue>> values;
  gpusim::LaunchStats stats;
  std::size_t shared_bytes = 0;  ///< staging slab actually requested
};

/// Shared-memory bytes the staging of `vars` needs under `policy` for a
/// block of `threads` threads (planning/validation helper).
[[nodiscard]] inline std::size_t multi_staging_bytes(
    std::span<const MultiVarSpec> vars, std::uint32_t threads,
    SlabPolicy policy) {
  std::size_t bytes = 0;
  std::size_t max_elem = 0;
  for (const MultiVarSpec& v : vars) {
    const std::size_t e = size_of(v.type);
    max_elem = std::max(max_elem, e);
    bytes += e * threads;
  }
  return policy == SlabPolicy::kSharedMaxSlab ? max_elem * threads : bytes;
}

template <typename T>
T scalar_as(const ScalarValue& v) {
  return std::get<T>(v);
}

/// Run a worker&vector-span reduction of every variable in `vars` over an
/// (nk x nj x ni) nest. Throws (via launch validation) if the staging
/// layout exceeds the device's shared-memory limit — the §3.3 failure mode
/// kSharedMaxSlab exists to avoid.
inline MultiReduceResult run_multi_worker_vector_reduction(
    gpusim::Device& dev, Nest3 n, const acc::LaunchConfig& cfg,
    std::span<const MultiVarSpec> vars, SlabPolicy policy,
    const StrategyConfig& sc = {}) {
  constexpr std::size_t kMaxVars = 8;
  if (vars.empty() || vars.size() > kMaxVars) {
    throw std::invalid_argument("multi-var reduction supports 1..8 variables");
  }
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;
  const std::uint32_t nthreads = w * v;

  // Staging layout per policy.
  gpusim::SharedLayout layout;
  std::array<std::uint32_t, kMaxVars> var_offset{};
  if (policy == SlabPolicy::kSharedMaxSlab) {
    std::size_t max_elem = 0;
    for (const MultiVarSpec& mv : vars) {
      max_elem = std::max(max_elem, size_of(mv.type));
    }
    const std::uint32_t off = layout.add_raw(max_elem * nthreads, max_elem);
    var_offset.fill(off);
  } else {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      var_offset[i] =
          layout.add_raw(size_of(vars[i].type) * nthreads, size_of(vars[i].type));
    }
  }

  // One output slot per (var, gang instance).
  auto out = dev.alloc<double>(vars.size() * static_cast<std::size_t>(n.nk));
  auto raw_out = dev.alloc<std::int64_t>(vars.size() *
                                         static_cast<std::size_t>(n.nk));
  auto ov = out.view();
  auto rov = raw_out.view();

  auto kernel = [&, ov, rov](gpusim::WarpCtx& wc) {
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;
    const gpusim::LaneMask lead = gpusim::lanes_where(
        all, [&](std::uint32_t l) { return c.tid[l] == 0; });

    device_loop(sc.assignment, n.nk, bid, g, [&](std::int64_t k) {
      // One pass over the data accumulates every variable's private.
      std::array<gpusim::Lanes<ScalarValue>, kMaxVars> priv;
      for (std::size_t m = 0; m < vars.size(); ++m) {
        dispatch_type(vars[m].type, [&](auto tag) {
          using T = typename decltype(tag)::type;
          priv[m].fill(acc::RuntimeOp<T>{vars[m].op}.identity());
        });
      }
      warp_device_loop(
          sc.assignment, n.nj, c.y, w, all,
          [&](gpusim::LaneMask mj, const LaneIndex& j) {
            warp_device_loop(
                sc.assignment, n.ni, c.x, v, mj,
                [&](gpusim::LaneMask mi, const LaneIndex& i) {
                  wc.alu(mi, 2);
                  for (std::size_t m = 0; m < vars.size(); ++m) {
                    dispatch_type(vars[m].type, [&](auto tag) {
                      using T = typename decltype(tag)::type;
                      const acc::RuntimeOp<T> rop{vars[m].op};
                      gpusim::for_each_lane(mi, [&](std::uint32_t l) {
                        const ScalarValue x =
                            vars[m].contrib(wc.lane(l), k, j[l], i[l]);
                        priv[m][l] = rop.apply(std::get<T>(priv[m][l]),
                                               std::get<T>(x));
                      });
                    });
                    wc.alu(mi, 1);
                  }
                });
          });
      // Sequential staging + tree per variable; under the max-slab policy
      // every variable reuses the same bytes.
      for (std::size_t m = 0; m < vars.size(); ++m) {
        dispatch_type(vars[m].type, [&](auto tag) {
          using T = typename decltype(tag)::type;
          const auto sbuf =
              gpusim::SharedLayout::view_at<T>(var_offset[m], nthreads);
          gpusim::Lanes<T> val{};
          for (std::uint32_t l = 0; l < wc.width(); ++l) {
            val[l] = std::get<T>(priv[m][l]);
          }
          wc.sts(all, sbuf, c.tid, val);
          block_tree_reduce(wc, sbuf, {}, nthreads, 1, c.tid,
                            acc::RuntimeOp<T>{vars[m].op}, sc.tree);
          wc.lds(lead, sbuf, gpusim::Lanes<std::uint32_t>{}, val);
          const LaneIndex at =
              detail::splat(static_cast<std::int64_t>(m) * n.nk + k);
          if constexpr (std::floating_point<T>) {
            gpusim::Lanes<double> r{};
            gpusim::for_each_lane(lead, [&](std::uint32_t l) {
              r[l] = static_cast<double>(val[l]);
            });
            wc.st(lead, ov, at, r);
          } else {
            gpusim::Lanes<std::int64_t> r{};
            gpusim::for_each_lane(lead, [&](std::uint32_t l) {
              r[l] = static_cast<std::int64_t>(val[l]);
            });
            wc.st(lead, rov, at, r);
          }
        });
        wc.syncthreads();  // slab is reused by the next variable
      }
    });
  };

  MultiReduceResult res;
  res.shared_bytes = layout.bytes();
  res.stats = gpusim::launch(dev, {g}, {v, w}, layout.bytes(), kernel,
                             labeled_sim(sc.sim, "multivar_reduce"));

  res.values.resize(vars.size());
  for (std::size_t m = 0; m < vars.size(); ++m) {
    res.values[m].resize(static_cast<std::size_t>(n.nk));
    for (std::int64_t k = 0; k < n.nk; ++k) {
      const std::size_t slot =
          m * static_cast<std::size_t>(n.nk) + static_cast<std::size_t>(k);
      dispatch_type(vars[m].type, [&](auto tag) {
        using T = typename decltype(tag)::type;
        if constexpr (std::floating_point<T>) {
          res.values[m][static_cast<std::size_t>(k)] =
              static_cast<T>(out.host_span()[slot]);
        } else {
          res.values[m][static_cast<std::size_t>(k)] =
              static_cast<T>(raw_out.host_span()[slot]);
        }
      });
    }
  }
  return res;
}

}  // namespace accred::reduce
