#include "testsuite/runner.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "acc/executor.hpp"
#include "gpusim/error.hpp"
#include "reduce/argminmax.hpp"
#include "reduce/segmented_reduce.hpp"
#include "testsuite/values.hpp"

namespace accred::testsuite {

namespace {

using acc::Position;

/// Build the nest the way a user of this discipline writes it: the case's
/// loops, its variable at the geometry's two levels, and the clause on
/// every level the reduction spans (CAPS) or only on the loop closest to
/// the next use (OpenUH).
acc::NestIR build_nest(Position pos, acc::ReductionOp op, acc::DataType type,
                       const CaseGeometry& geo, const acc::LaunchConfig& cfg,
                       acc::ClauseDiscipline discipline) {
  acc::NestIR nest;
  nest.config = cfg;
  if (pos == Position::kSameLineGangWorkerVector) {
    nest.loops = {acc::LoopSpec{
        acc::Par::kGang | acc::Par::kWorker | acc::Par::kVector,
        geo.dims.nk,
        {}}};
  } else {
    nest.loops = {
        acc::LoopSpec{acc::mask_of(acc::Par::kGang), geo.dims.nk, {}},
        acc::LoopSpec{acc::mask_of(acc::Par::kWorker), geo.dims.nj, {}},
        acc::LoopSpec{acc::mask_of(acc::Par::kVector), geo.dims.ni, {}},
    };
  }
  const acc::ReductionClause clause{op, "red"};
  const int first = geo.use_level + 1;
  const int last = discipline == acc::ClauseDiscipline::kExplicitAllLevels
                       ? geo.accum_level
                       : first;
  for (int l = first; l <= last; ++l) {
    nest.loops[static_cast<std::size_t>(l)].reductions = {clause};
  }
  nest.vars = {{"red", type, geo.accum_level, geo.use_level}};
  return nest;
}

/// What a mismatch names: "scalar" for a value used after the region, else
/// the levels one instance folds ("worker-vector instance").
std::string instance_label(const CaseGeometry& geo) {
  if (geo.use_level == acc::VarInfo::kHostUse) return "scalar";
  static constexpr const char* kLevelName[] = {"gang", "worker", "vector"};
  std::string label;
  for (int l = geo.use_level + 1; l <= geo.accum_level; ++l) {
    if (!label.empty()) label += '-';
    label += kLevelName[l];
  }
  return label + " instance";
}

/// FNV-1a fold over raw bytes (result fingerprinting).
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// The runner's simulation knobs, applied to every kind's strategy config.
void apply_sim_options(reduce::StrategyConfig& sc, const RunnerOptions& opts) {
  sc.sim.sim_threads = opts.sim_threads;
  sc.sim.racecheck = opts.racecheck;
  sc.sim.error_on_race = opts.error_on_race;
  sc.sim.max_steps = opts.max_steps;
  sc.sim.faults = opts.faults;
  sc.sim.cancel_token = opts.cancel;
}

/// The buffers a cell allocates: the input every kind folds, filled with
/// testsuite_value<T>(fill_op, i), plus the Table 2 cells' parallel-copy
/// target and per-instance result slots.
struct CellShape {
  std::size_t volume = 0;
  acc::ReductionOp fill_op = acc::ReductionOp::kSum;
  bool copy_work = false;     ///< allocate `temp` (volume elements)
  std::size_t out_slots = 0;  ///< elements of `result`; 0 = none
};

template <typename T>
struct CellBuffers {
  gpusim::DeviceBuffer<T> input;
  gpusim::DeviceBuffer<T> temp;
  gpusim::DeviceBuffer<T> result;

  /// Allocate, in this order, the buffers no earlier attempt got (an
  /// injected alloc_fail stops the sequence at any of them), and fill the
  /// input once it exists. A cell's input is never empty.
  void allocate_missing(gpusim::Device& dev, const CellShape& shape) {
    if (input.size() == 0) {
      input = dev.alloc<T>(shape.volume, "input");
      const auto host = input.host_span();
      for (std::size_t i = 0; i < shape.volume; ++i) {
        host[i] = testsuite_value<T>(shape.fill_op, i);
      }
    }
    if (shape.copy_work && temp.size() == 0) {
      temp = dev.alloc<T>(shape.volume, "temp");
    }
    if (shape.out_slots > 0 && result.size() == 0) {
      result = dev.alloc<T>(shape.out_slots, "result");
    }
  }
};

/// One cell, any kind, on the one guarded ladder (acc::execute_guarded),
/// starting from `config` and `sc`. Each attempt first allocates the
/// cell's buffers no earlier attempt got, so an injected alloc_fail on them
/// is a failed attempt like any other, then runs `launch(dev, bufs, cfg,
/// sc)` at the ladder's current geometry and strategy config. `check(bufs,
/// result, why)` is the host reference the ladder verifies every result
/// against, and `hash(bufs, result)` fingerprints the verified one.
template <typename T, typename Launch, typename Check, typename Hash>
CaseOutcome run_cell(const RunnerOptions& opts, const CellShape& shape,
                     const acc::LaunchConfig& config,
                     const reduce::StrategyConfig& sc, Launch&& launch,
                     Check&& check, Hash&& hash) {
  using Clock = std::chrono::steady_clock;
  gpusim::Device dev;
  CellBuffers<T> bufs;
  // Allocation and fill stay out of wall_ms; an attempt whose allocation
  // failed is charged in full.
  Clock::duration setup{};

  const auto t0 = Clock::now();
  auto run = acc::execute_guarded(
      dev, config, sc,
      [&](const acc::LaunchConfig& cfg, const reduce::StrategyConfig& s) {
        const auto a0 = Clock::now();
        bufs.allocate_missing(dev, shape);
        setup += Clock::now() - a0;
        return launch(dev, bufs, cfg, s);
      },
      opts.guard,
      [&](const auto& res, std::string& why) { return check(bufs, res, why); });
  const auto t1 = Clock::now();

  CaseOutcome out;
  out.attempts = run.attempts;
  out.recovered = run.recovered;
  out.degraded = run.degraded;
  for (const acc::DegradeEvent& ev : run.events) {
    out.events.push_back("attempt " + std::to_string(ev.attempt) + " (rung " +
                         std::to_string(ev.rung) + ", failure " +
                         std::to_string(ev.failure_on_rung) +
                         ") failed: " + ev.reason + " -> " + ev.action);
  }
  out.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0 - setup).count();
  if (run.ok) {
    out.stats = run.result.stats;
    out.kernels = run.result.kernels;
    out.device_ms = run.result.stats.device_time_ns / 1e6;
    out.verified = true;
    out.result_hash = hash(bufs, run.result);
  } else {
    out.stats.error = run.error;
    out.detail = to_string(run.error);
  }
  // The aggregate over every attempt, not just the last launch: failed
  // attempts' fired faults belong in the record too.
  out.stats.faults_armed = run.faults_armed;
  out.stats.fault_events = std::move(run.fault_events);
  return out;
}

template <typename T>
CaseOutcome run_typed(acc::CompilerId id, const CaseSpec& spec,
                      const RunnerOptions& opts,
                      const acc::ExecutionPlan* preplanned,
                      bool apply_robustness = true) {
  if (apply_robustness) {
    CaseOutcome out;
    out.status = table2_robustness(id, spec.pos, spec.op, spec.type);
    if (out.status != acc::Robustness::kOk) return out;
  }

  const CaseGeometry geo = case_geometry(spec.pos, opts.reduction_extent);
  const acc::CompilerProfile& prof = acc::profile(id);
  acc::ExecutionPlan plan;
  if (preplanned != nullptr) {
    plan = *preplanned;  // e.g. the service's admission-time plan
  } else {
    const acc::NestIR nest = build_nest(spec.pos, spec.op, spec.type, geo,
                                        opts.config, prof.discipline);
    plan = acc::plan_single(nest, prof);
  }
  apply_sim_options(plan.strategy, opts);

  const std::size_t volume = geo.volume;
  const bool copy_work = parallel_copy(spec.pos, opts);
  const auto [nk, nj, ni] = geo.dims;
  const auto [lk, lj, li] = geo.load_stride;
  const std::int64_t sk = geo.sink_stride[0];
  const std::int64_t sj = geo.sink_stride[1];

  const auto launch = [&](gpusim::Device& dev, const CellBuffers<T>& bufs,
                          const acc::LaunchConfig& cfg,
                          const reduce::StrategyConfig& sc) {
    auto in_view = bufs.input.view();
    gpusim::GlobalView<T> temp_view{};
    if (copy_work) temp_view = bufs.temp.view();
    auto out_view = bufs.result.view();

    // Each binding is one warp instruction per access: the parallel copy
    // a load and a store, the contribution one affine load, the sink one
    // store.
    using reduce::LaneIndex;
    reduce::Bindings<T> b;
    if (copy_work) {
      b.parallel_work = [=](gpusim::WarpCtx& wc, gpusim::LaneMask m,
                            const LaneIndex& k, const LaneIndex& j,
                            const LaneIndex& i) {
        gpusim::Lanes<std::size_t> idx{};
        gpusim::for_each_lane(m, [&](std::uint32_t l) {
          idx[l] = static_cast<std::size_t>((k[l] * nj + j[l]) * ni + i[l]);
        });
        gpusim::Lanes<T> v{};
        wc.ld(m, in_view, idx, v);
        wc.st(m, temp_view, idx, v);
      };
    }
    b.contrib = [=](gpusim::WarpCtx& wc, gpusim::LaneMask m,
                    const LaneIndex& k, const LaneIndex& j, const LaneIndex& i,
                    gpusim::Lanes<T>& out) {
      gpusim::Lanes<std::size_t> idx{};
      gpusim::for_each_lane(m, [&](std::uint32_t l) {
        idx[l] = static_cast<std::size_t>(k[l] * lk + j[l] * lj + i[l] * li);
      });
      wc.ld(m, in_view, idx, out);
    };
    if (geo.use_level != acc::VarInfo::kHostUse) {
      b.sink = [=](gpusim::WarpCtx& wc, gpusim::LaneMask m, const LaneIndex& k,
                   const LaneIndex& j, const gpusim::Lanes<T>& r) {
        gpusim::Lanes<std::size_t> idx{};
        gpusim::for_each_lane(m, [&](std::uint32_t l) {
          idx[l] = static_cast<std::size_t>(k[l] * sk + j[l] * sj);
        });
        wc.st(m, out_view, idx, r);
      };
    }
    plan.launch = cfg;
    plan.strategy = sc;
    return acc::execute<T>(dev, plan, b);
  };

  // ---- Verification against the sequential CPU fold --------------
  // Runs as execute_guarded's numeric guard after every attempt: a
  // mismatch (e.g. an injected bitflip's silent corruption) fails the
  // attempt and drives the retry/degradation ladder instead of merely
  // flagging the cell. float references accumulate in double: past
  // ~2^24 elements a float running sum rounds away every addend, so the
  // *reference* would be the wrong side of the comparison (the device's
  // tree is far more accurate). Bitwise operators never reach here with
  // floating T.
  using Acc = std::conditional_t<std::is_same_v<T, float>, double, T>;
  const acc::RuntimeOp<Acc> rop_acc{spec.op};
  const acc::RuntimeOp<T> rop{spec.op};
  const std::string label = instance_label(geo);
  const auto check = [&](const CellBuffers<T>& bufs,
                         const reduce::ReduceResult<T>& res,
                         std::string& why) {
    const auto host_in = bufs.input.host_span();
    const auto host_out = bufs.result.host_span();
    // A fused chain (nest_for_chain: i_sum -> j_sum -> sum) folds stage by
    // stage, innermost first, each stage with its own operator.
    auto fold_chain = [&] {
      const acc::RuntimeOp<Acc> i_op{plan.chain.at(0).op};
      const acc::RuntimeOp<Acc> j_op{plan.chain.at(1).op};
      const acc::RuntimeOp<Acc> k_op{plan.chain.at(2).op};
      Acc sum = k_op.identity();
      std::size_t idx = 0;
      for (std::int64_t k = 0; k < nk; ++k) {
        Acc j_sum = j_op.identity();
        for (std::int64_t j = 0; j < nj; ++j) {
          Acc i_sum = i_op.identity();
          for (std::int64_t i = 0; i < ni; ++i) {
            i_sum = i_op.apply(i_sum, static_cast<Acc>(host_in[idx++]));
          }
          j_sum = j_op.apply(j_sum, i_sum);
        }
        sum = k_op.apply(sum, j_sum);
      }
      return static_cast<T>(sum);
    };

    bool ok = true;
    std::ostringstream detail;
    auto expect = [&](T want, T actual) {
      if (!reduction_result_matches(want, actual,
                                    static_cast<std::uint64_t>(
                                        geo.contrib_count))) {
        ok = false;
        detail << label << ": expected " << want << " got " << actual
               << "; ";
      }
    };

    if (plan.kind == acc::StrategyKind::kFusedCascade) {
      expect(fold_chain(), res.scalar.value_or(rop.identity()));
    } else {
      // Instance s, in row-major order over the levels up to the use
      // level, is result slot s. It folds levels use+1..accum in row-major
      // order with the deeper levels at 0, which are input elements
      // (s * contrib_count + c) * load_stride[accum_level].
      const bool scalar = geo.use_level == acc::VarInfo::kHostUse;
      const auto count = static_cast<std::size_t>(geo.contrib_count);
      const auto step = static_cast<std::size_t>(
          geo.load_stride[static_cast<std::size_t>(geo.accum_level)]);
      for (std::size_t s = 0; s < geo.out_slots; ++s) {
        Acc acc_v = rop_acc.identity();
        for (std::size_t c = 0; c < count; ++c) {
          acc_v = rop_acc.apply(
              acc_v, static_cast<Acc>(host_in[(s * count + c) * step]));
        }
        expect(static_cast<T>(acc_v),
               scalar ? res.scalar.value_or(rop.identity()) : host_out[s]);
      }
    }

    // Spot-check the parallel copy actually happened.
    if (copy_work && volume > 0) {
      const auto host_temp = bufs.temp.host_span();
      for (std::size_t s = 0; s < 997 && s < volume; ++s) {
        const std::size_t idx = (s * 104729) % volume;
        if (host_temp[idx] != host_in[idx]) {
          ok = false;
          detail << "parallel copy missing at " << idx << "; ";
          break;
        }
      }
    }
    why = detail.str();
    return ok;
  };

  const auto hash = [&](const CellBuffers<T>& bufs,
                        const reduce::ReduceResult<T>& res) {
    std::uint64_t h = kFnvBasis;
    if (res.scalar.has_value()) {
      const T v = *res.scalar;
      h = fnv1a(h, &v, sizeof v);
    }
    if (geo.out_slots > 1) {
      const auto span = bufs.result.host_span();
      h = fnv1a(h, span.data(), span.size() * sizeof(T));
    }
    return h;
  };
  return run_cell<T>(opts, {volume, spec.op, copy_work, geo.out_slots},
                     plan.launch, plan.strategy, launch, check, hash);
}

/// Extended-kind cells on the same pipeline and the same ladder.
template <typename T>
CaseOutcome run_ext_typed(acc::CompilerId id, const ExtSpec& spec,
                          const RunnerOptions& opts) {
  if (spec.kind == ExtKind::kFusedCascade) {
    // The fused chain is a planned strategy like any scalar cell, so it
    // rides the full run_typed pipeline (guarded execution, degradation
    // ladder, result hashing) with a pre-built chain plan. The Table 2
    // robustness model does not apply: its GWV failure cells describe
    // those compilers' scalar lowering, not this fusion pass.
    const acc::NestIR nest =
        nest_for_chain(acc::ReductionOp::kSum, spec.type, opts);
    acc::ExecutionPlan plan = acc::plan_chained(nest, acc::profile(id));
    const CaseSpec scalar{Position::kGangWorkerVector, acc::ReductionOp::kSum,
                          spec.type};
    return run_typed<T>(id, scalar, opts, &plan, /*apply_robustness=*/false);
  }

  // Argmin/argmax and segmented cells supply their own launch, host
  // reference and hash over the one input buffer.
  reduce::StrategyConfig sc = acc::profile(id).strategy;
  apply_sim_options(sc, opts);
  const std::int64_t extent = opts.reduction_extent;
  const auto volume = static_cast<std::size_t>(extent);
  const auto load = [](gpusim::GlobalView<T> input) {
    return [input](gpusim::ThreadCtx& ctx, std::int64_t idx) {
      return ctx.ld(input, static_cast<std::size_t>(idx));
    };
  };

  if (spec.kind == ExtKind::kSegmented) {
    static constexpr std::size_t kSegments = 64;
    return run_cell<T>(
        opts, {volume, acc::ReductionOp::kSum}, opts.config, sc,
        [&](gpusim::Device& dev, const CellBuffers<T>& bufs,
            const acc::LaunchConfig& cfg, const reduce::StrategyConfig& s) {
          return reduce::run_segmented_reduction<T>(
              dev, extent, kSegments, cfg, acc::ReductionOp::kSum,
              [](std::int64_t idx) {
                return static_cast<std::size_t>(idx) % kSegments;
              },
              load(bufs.input.view()), s);
        },
        // Per-segment sequential reference (float refs in double, as the
        // scalar grid does).
        [&](const CellBuffers<T>& bufs, const reduce::ArrayReduceResult<T>& res,
            std::string& why) {
          using Acc = std::conditional_t<std::is_same_v<T, float>, double, T>;
          const acc::RuntimeOp<Acc> rop{acc::ReductionOp::kSum};
          const auto host_in = bufs.input.host_span();
          std::ostringstream detail;
          for (std::size_t s = 0; s < kSegments; ++s) {
            Acc ref = rop.identity();
            for (std::size_t i = s; i < volume; i += kSegments) {
              ref = rop.apply(ref, static_cast<Acc>(host_in[i]));
            }
            if (!reduction_result_matches(static_cast<T>(ref), res.values[s],
                                          volume / kSegments + 1)) {
              detail << "segment " << s << ": expected "
                     << static_cast<T>(ref) << " got " << res.values[s]
                     << "; ";
            }
          }
          why = detail.str();
          return why.empty();
        },
        [](const CellBuffers<T>&, const reduce::ArrayReduceResult<T>& res) {
          return fnv1a(kFnvBasis, res.values.data(),
                       res.values.size() * sizeof(T));
        });
  }

  const bool want_min = spec.kind == ExtKind::kArgMin;
  return run_cell<T>(
      opts,
      {volume, want_min ? acc::ReductionOp::kMin : acc::ReductionOp::kMax},
      opts.config, sc,
      [&](gpusim::Device& dev, const CellBuffers<T>& bufs,
          const acc::LaunchConfig& cfg, const reduce::StrategyConfig& s) {
        return reduce::run_arg_reduction<T>(dev, extent, cfg, want_min,
                                            load(bufs.input.view()), s);
      },
      // The loc fold is value-comparison only (no rounding), so the device
      // pair must match the sequential one exactly.
      [&](const CellBuffers<T>& bufs,
          const reduce::PayloadReduceResult<acc::ValueIndex<T>>& res,
          std::string& why) {
        const auto host_in = bufs.input.host_span();
        acc::ValueIndex<T> ref = want_min ? acc::ArgMinOp<T>::identity()
                                          : acc::ArgMaxOp<T>::identity();
        for (std::size_t i = 0; i < volume; ++i) {
          const acc::ValueIndex<T> c{host_in[i],
                                     static_cast<std::int64_t>(i)};
          ref = want_min ? acc::ArgMinOp<T>{}.apply(ref, c)
                         : acc::ArgMaxOp<T>{}.apply(ref, c);
        }
        if (res.value == ref) return true;
        std::ostringstream detail;
        detail << "arg pair: expected (" << ref.value << ", " << ref.index
               << ") got (" << res.value.value << ", " << res.value.index
               << ")";
        why = detail.str();
        return false;
      },
      [](const CellBuffers<T>&,
         const reduce::PayloadReduceResult<acc::ValueIndex<T>>& res) {
        const std::uint64_t h =
            fnv1a(kFnvBasis, &res.value.value, sizeof res.value.value);
        return fnv1a(h, &res.value.index, sizeof res.value.index);
      });
}

}  // namespace

acc::NestIR nest_for_case(const CaseSpec& spec, const RunnerOptions& opts,
                          acc::ClauseDiscipline discipline) {
  const CaseGeometry geo = case_geometry(spec.pos, opts.reduction_extent);
  return build_nest(spec.pos, spec.op, spec.type, geo, opts.config,
                    discipline);
}

bool parallel_copy(acc::Position pos, const RunnerOptions& opts) {
  return opts.parallel_work && pos != Position::kSameLineGangWorkerVector;
}

acc::ExecutionPlan plan_for_case(acc::CompilerId id, const CaseSpec& spec,
                                 const RunnerOptions& opts) {
  const acc::CompilerProfile& prof = acc::profile(id);
  return acc::plan_single(nest_for_case(spec, opts, prof.discipline), prof);
}

CaseOutcome Runner::run(acc::CompilerId id, const CaseSpec& spec) {
  return dispatch_type(spec.type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return run_typed<T>(id, spec, opts_, nullptr);
  });
}

CaseOutcome Runner::run_planned(acc::CompilerId id, const CaseSpec& spec,
                                const acc::ExecutionPlan& plan) {
  return dispatch_type(spec.type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return run_typed<T>(id, spec, opts_, &plan);
  });
}

acc::NestIR nest_for_chain(acc::ReductionOp op, acc::DataType type,
                           const RunnerOptions& opts) {
  return nest_for_chain(std::array<acc::ReductionOp, 3>{op, op, op}, type,
                        opts);
}

acc::NestIR nest_for_chain(const std::array<acc::ReductionOp, 3>& ops,
                           acc::DataType type, const RunnerOptions& opts) {
  const CaseGeometry geo = case_geometry(Position::kGangWorkerVector,
                                         opts.reduction_extent);
  acc::NestIR nest;
  nest.config = opts.config;
  nest.loops = {
      acc::LoopSpec{acc::mask_of(acc::Par::kGang), geo.dims.nk,
                    {{ops[2], "sum"}}},
      acc::LoopSpec{acc::mask_of(acc::Par::kWorker), geo.dims.nj,
                    {{ops[1], "j_sum"}}},
      acc::LoopSpec{acc::mask_of(acc::Par::kVector), geo.dims.ni,
                    {{ops[0], "i_sum"}}},
  };
  // use_level of each producer == accum_level of its consumer: the chain
  // signature detect_chains() keys on.
  nest.vars = {
      {"i_sum", type, 2, 1},
      {"j_sum", type, 1, 0},
      {"sum", type, 0, acc::VarInfo::kHostUse},
  };
  return nest;
}

CaseOutcome Runner::run_ext(acc::CompilerId id, const ExtSpec& spec) {
  return dispatch_type(spec.type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return run_ext_typed<T>(id, spec, opts_);
  });
}

}  // namespace accred::testsuite
