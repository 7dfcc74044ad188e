#include "testsuite/runner.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "acc/executor.hpp"
#include "gpusim/error.hpp"
#include "gpusim/faultinject.hpp"
#include "reduce/argminmax.hpp"
#include "reduce/segmented_reduce.hpp"
#include "testsuite/values.hpp"

namespace accred::testsuite {

namespace {

using acc::Position;

/// Where a case's reduction variable accumulates and is next used
/// (level indices into the canonical gang/worker/vector triple nest).
struct CaseSemantics {
  int accum_level;
  int use_level;
};

CaseSemantics semantics_of(Position pos) {
  switch (pos) {
    case Position::kGang: return {0, acc::VarInfo::kHostUse};
    case Position::kWorker: return {1, 0};
    case Position::kVector: return {2, 1};
    case Position::kGangWorker: return {1, acc::VarInfo::kHostUse};
    case Position::kWorkerVector: return {2, 0};
    case Position::kGangWorkerVector: return {2, acc::VarInfo::kHostUse};
    case Position::kSameLineGangWorkerVector:
      return {0, acc::VarInfo::kHostUse};
  }
  return {0, acc::VarInfo::kHostUse};
}

/// Build the nest the way a user of this discipline writes it.
acc::NestIR build_nest(Position pos, acc::ReductionOp op, acc::DataType type,
                       const CaseGeometry& geo, const acc::LaunchConfig& cfg,
                       acc::ClauseDiscipline discipline) {
  acc::NestIR nest;
  nest.config = cfg;
  const CaseSemantics sem = semantics_of(pos);
  const acc::ReductionClause clause{op, "red"};

  if (pos == Position::kSameLineGangWorkerVector) {
    acc::LoopSpec loop;
    loop.par = acc::Par::kGang | acc::Par::kWorker | acc::Par::kVector;
    loop.extent = geo.same_loop_extent;
    loop.reductions = {clause};
    nest.loops = {loop};
  } else {
    nest.loops = {
        acc::LoopSpec{acc::mask_of(acc::Par::kGang), geo.dims.nk, {}},
        acc::LoopSpec{acc::mask_of(acc::Par::kWorker), geo.dims.nj, {}},
        acc::LoopSpec{acc::mask_of(acc::Par::kVector), geo.dims.ni, {}},
    };
    if (discipline == acc::ClauseDiscipline::kExplicitAllLevels) {
      for (int l = sem.use_level + 1; l <= sem.accum_level; ++l) {
        nest.loops[static_cast<std::size_t>(l)].reductions = {clause};
      }
    } else {
      // OpenUH style: one clause on the loop closest to the next use.
      nest.loops[static_cast<std::size_t>(sem.use_level + 1)].reductions = {
          clause};
    }
  }
  nest.vars = {{"red", type, sem.accum_level, sem.use_level}};
  return nest;
}

/// FNV-1a fold over raw bytes (result fingerprinting).
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
CaseOutcome run_typed(acc::CompilerId id, const CaseSpec& spec,
                      const RunnerOptions& opts,
                      const acc::ExecutionPlan* preplanned,
                      bool apply_robustness = true) {
  CaseOutcome out;
  if (apply_robustness) {
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
  if (opts.sim_threads != 0) {
    plan.strategy.sim.sim_threads = opts.sim_threads;
  }
  if (opts.racecheck) plan.strategy.sim.racecheck = true;
  if (opts.error_on_race) plan.strategy.sim.error_on_race = true;
  plan.strategy.sim.max_steps = opts.max_steps;
  plan.strategy.sim.faults = opts.faults;
  plan.strategy.sim.cancel_token = opts.cancel;

  gpusim::Device dev(opts.device_limits);
  // Arm injected allocation failures on the runner's own buffers too; each
  // arm is one-shot (device.hpp), so the retry loop below recovers.
  const std::string fault_spec =
      !opts.faults.empty() ? opts.faults : gpusim::faults_env_default();
  if (!fault_spec.empty()) {
    const auto fplan = gpusim::FaultPlan::parse(fault_spec);
    if (fplan.has_alloc_faults()) dev.arm_alloc_faults(fplan);
  }
  const bool same_loop = spec.pos == Position::kSameLineGangWorkerVector;
  const std::size_t volume = static_cast<std::size_t>(
      same_loop ? geo.same_loop_extent
                : geo.dims.nk * geo.dims.nj * geo.dims.ni);

  const bool copy_work = opts.parallel_work && !same_loop;
  // Per-instance output slots for the vector / worker positions.
  const std::size_t out_slots =
      spec.pos == Position::kVector
          ? static_cast<std::size_t>(geo.dims.nk * geo.dims.nj)
          : (spec.pos == Position::kWorker ||
                     spec.pos == Position::kWorkerVector
                 ? static_cast<std::size_t>(geo.dims.nk)
                 : 1);

  // The runner's own allocations, behind the same retry policy as the
  // kernels: an injected alloc_fail arm is one-shot, so re-running the
  // block recovers (the failed attempt is recorded like any other).
  gpusim::DeviceBuffer<T> input;
  gpusim::DeviceBuffer<T> temp;
  gpusim::DeviceBuffer<T> result_buf;
  int alloc_failures = 0;
  std::vector<gpusim::FaultEvent> alloc_events;
  for (;;) {
    try {
      input = dev.alloc<T>(volume, "input");
      if (copy_work) temp = dev.alloc<T>(volume, "temp");
      result_buf = dev.alloc<T>(out_slots, "result");
      break;
    } catch (const gpusim::LaunchError& e) {
      ++alloc_failures;
      out.events.push_back("attempt " + std::to_string(alloc_failures) +
                           " failed: " + to_string(e.info()) +
                           " -> retry allocation");
      // An injected alloc_fail fires outside any launch, so the campaign
      // accounting gets its FaultEvent synthesized here.
      if (e.info().injected) {
        gpusim::FaultEvent fe;
        fe.kind = gpusim::FaultKind::kAllocFail;
        fe.stage = e.info().stage;
        fe.detail = e.info().message;
        alloc_events.push_back(std::move(fe));
      }
      if (alloc_failures > opts.max_retries) {
        out.attempts = alloc_failures;
        out.stats.error = e.info();
        out.stats.faults_armed = !fault_spec.empty();
        out.stats.fault_events = std::move(alloc_events);
        out.detail = to_string(e.info());
        return out;
      }
    }
  }
  {
    auto host = input.host_span();
    for (std::size_t i = 0; i < volume; ++i) {
      host[i] = testsuite_value<T>(spec.op, i);
    }
  }
  auto in_view = input.view();
  gpusim::GlobalView<T> temp_view{};
  if (copy_work) temp_view = temp.view();
  auto out_view = result_buf.view();

  const auto [nk, nj, ni] = geo.dims;
  reduce::Bindings<T> b;
  if (copy_work) {
    b.parallel_work = [=](gpusim::ThreadCtx& ctx, std::int64_t k,
                          std::int64_t j, std::int64_t i) {
      const auto idx = static_cast<std::size_t>((k * nj + j) * ni + i);
      ctx.st(temp_view, idx, ctx.ld(in_view, idx));
    };
  }
  switch (spec.pos) {
    case Position::kGang:
      b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t,
                      std::int64_t) {
        return ctx.ld(in_view, static_cast<std::size_t>(k * nj * ni));
      };
      break;
    case Position::kWorker:
    case Position::kGangWorker:
      b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                      std::int64_t) {
        return ctx.ld(in_view, static_cast<std::size_t>((k * nj + j) * ni));
      };
      break;
    case Position::kVector:
    case Position::kWorkerVector:
    case Position::kGangWorkerVector:
      b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                      std::int64_t i) {
        return ctx.ld(in_view,
                      static_cast<std::size_t>((k * nj + j) * ni + i));
      };
      break;
    case Position::kSameLineGangWorkerVector:
      b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t idx, std::int64_t,
                      std::int64_t) {
        return ctx.ld(in_view, static_cast<std::size_t>(idx));
      };
      break;
  }
  if (spec.pos == Position::kVector) {
    b.sink = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                 T r) {
      ctx.st(out_view, static_cast<std::size_t>(k * nj + j), r);
    };
  } else if (spec.pos == Position::kWorker ||
             spec.pos == Position::kWorkerVector) {
    // Both positions produce one result per gang (k) instance.
    b.sink = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t, T r) {
      ctx.st(out_view, static_cast<std::size_t>(k), r);
    };
  }

  // ---- Verification against the sequential CPU fold ----------------
  // Runs as execute_guarded's numeric guard after every attempt: a
  // mismatch (e.g. an injected bitflip's silent corruption) fails the
  // attempt and drives the retry/degradation ladder instead of merely
  // flagging the cell. float references accumulate in double: past ~2^24
  // elements a float running sum rounds away every addend, so the
  // *reference* would be the wrong side of the comparison (the device's
  // tree is far more accurate). Bitwise operators never reach here with
  // floating T.
  using Acc = std::conditional_t<std::is_same_v<T, float>, double, T>;
  const acc::RuntimeOp<Acc> rop_acc{spec.op};
  const acc::RuntimeOp<T> rop{spec.op};
  const auto host_in = input.host_span();
  auto fold_strided = [&](std::size_t base, std::size_t stride,
                          std::size_t count) {
    Acc acc_v = rop_acc.identity();
    for (std::size_t i = 0; i < count; ++i) {
      acc_v = rop_acc.apply(acc_v, static_cast<Acc>(host_in[base + i * stride]));
    }
    return static_cast<T>(acc_v);
  };

  auto verify = [&](const reduce::ReduceResult<T>& res,
                    std::string& why) -> bool {
    bool ok = true;
    std::ostringstream detail;
    auto check = [&](T expect, T actual, const char* what) {
      if (!reduction_result_matches(expect, actual,
                                    static_cast<std::uint64_t>(
                                        geo.contrib_count))) {
        ok = false;
        detail << what << ": expected " << expect << " got " << actual << "; ";
      }
    };

    switch (spec.pos) {
      case Position::kGang:
        check(fold_strided(0, static_cast<std::size_t>(nj * ni),
                           static_cast<std::size_t>(nk)),
              res.scalar.value_or(rop.identity()), "scalar");
        break;
      case Position::kGangWorker:
        check(fold_strided(0, static_cast<std::size_t>(ni),
                           static_cast<std::size_t>(nk * nj)),
              res.scalar.value_or(rop.identity()), "scalar");
        break;
      case Position::kGangWorkerVector:
      case Position::kSameLineGangWorkerVector:
        check(fold_strided(0, 1, volume),
              res.scalar.value_or(rop.identity()), "scalar");
        break;
      case Position::kWorker:
        for (std::int64_t k = 0; k < nk; ++k) {
          check(fold_strided(static_cast<std::size_t>(k * nj * ni),
                             static_cast<std::size_t>(ni),
                             static_cast<std::size_t>(nj)),
                result_buf.host_span()[static_cast<std::size_t>(k)],
                "worker instance");
        }
        break;
      case Position::kVector:
        for (std::int64_t k = 0; k < nk; ++k) {
          for (std::int64_t j = 0; j < nj; ++j) {
            check(fold_strided(static_cast<std::size_t>((k * nj + j) * ni), 1,
                               static_cast<std::size_t>(ni)),
                  result_buf
                      .host_span()[static_cast<std::size_t>(k * nj + j)],
                  "vector instance");
          }
        }
        break;
      case Position::kWorkerVector:
        for (std::int64_t k = 0; k < nk; ++k) {
          check(fold_strided(static_cast<std::size_t>(k * nj * ni), 1,
                             static_cast<std::size_t>(nj * ni)),
                result_buf.host_span()[static_cast<std::size_t>(k)],
                "worker-vector instance");
        }
        break;
    }

    // Spot-check the parallel copy actually happened.
    if (copy_work && volume > 0) {
      const auto host_temp = temp.host_span();
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

  acc::GuardPolicy policy;
  policy.max_retries = opts.max_retries;
  policy.degrade = opts.degrade;
  policy.max_degrade_rungs = opts.max_degrade_rungs;
  policy.max_total_attempts = opts.max_total_attempts;

  const auto t0 = std::chrono::steady_clock::now();
  auto guarded = acc::execute_guarded<T>(dev, plan, b, policy, verify);
  const auto t1 = std::chrono::steady_clock::now();

  out.attempts = alloc_failures + guarded.attempts;
  out.recovered = guarded.ok && out.attempts > 1;
  out.degraded = guarded.degraded;
  for (const acc::DegradeEvent& ev : guarded.events) {
    out.events.push_back("attempt " + std::to_string(alloc_failures +
                                                     ev.attempt) +
                         " (rung " + std::to_string(ev.rung) + ", failure " +
                         std::to_string(ev.failure_on_rung) +
                         ") failed: " + ev.reason + " -> " + ev.action);
  }
  out.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (guarded.ok) {
    out.stats = guarded.result.stats;
    out.kernels = guarded.result.kernels;
    out.device_ms = guarded.result.stats.device_time_ns / 1e6;
    out.verified = true;
    std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    if (guarded.result.scalar.has_value()) {
      const T v = *guarded.result.scalar;
      h = fnv1a(h, &v, sizeof v);
    }
    if (out_slots > 1) {
      const auto span = result_buf.host_span();
      h = fnv1a(h, span.data(), span.size() * sizeof(T));
    }
    out.result_hash = h;
  } else {
    out.stats.error = guarded.error;
    out.detail = to_string(guarded.error);
  }
  // The aggregate over every attempt, not just the last launch: failed
  // attempts' fired faults (and the runner's own injected allocation
  // failures above) belong in the record too.
  out.stats.faults_armed = guarded.faults_armed || !alloc_events.empty();
  for (gpusim::FaultEvent& fe : guarded.fault_events) {
    if (alloc_events.size() >= gpusim::BlockFaults::kMaxEventsPerLaunch) break;
    alloc_events.push_back(std::move(fe));
  }
  out.stats.fault_events = std::move(alloc_events);
  return out;
}

/// Extended-kind cells that do not go through execute_guarded (the
/// loc/segmented pipelines have no plan to degrade): same fault-arming,
/// verification-as-guard and retry treatment, minus the geometry rungs.
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

  CaseOutcome out;
  const acc::CompilerProfile& prof = acc::profile(id);
  reduce::StrategyConfig sc = prof.strategy;
  if (opts.sim_threads != 0) sc.sim.sim_threads = opts.sim_threads;
  if (opts.racecheck) sc.sim.racecheck = true;
  if (opts.error_on_race) sc.sim.error_on_race = true;
  sc.sim.max_steps = opts.max_steps;
  sc.sim.cancel_token = opts.cancel;

  const std::int64_t extent = opts.reduction_extent;
  const auto volume = static_cast<std::size_t>(extent);
  constexpr std::size_t kSegments = 64;
  const bool want_min = spec.kind == ExtKind::kArgMin;
  const acc::ReductionOp value_op = spec.kind == ExtKind::kSegmented
                                        ? acc::ReductionOp::kSum
                                        : (want_min ? acc::ReductionOp::kMin
                                                    : acc::ReductionOp::kMax);

  gpusim::Device dev(opts.device_limits);
  std::string fspec =
      !opts.faults.empty() ? opts.faults : gpusim::faults_env_default();

  std::vector<gpusim::FaultEvent> fault_events;
  const auto append_events = [&](std::vector<gpusim::FaultEvent> evs) {
    for (gpusim::FaultEvent& e : evs) {
      if (fault_events.size() >= gpusim::BlockFaults::kMaxEventsPerLaunch) {
        break;
      }
      fault_events.push_back(std::move(e));
    }
  };

  int failures = 0;
  out.attempts = 0;  // pre-incremented per attempt below
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    ++out.attempts;
    gpusim::FaultPlan fplan;
    if (!fspec.empty()) fplan = gpusim::FaultPlan::parse(fspec);
    out.stats.faults_armed = out.stats.faults_armed || !fplan.empty();
    sc.sim.faults = fspec;
    if (fplan.has_alloc_faults()) {
      dev.arm_alloc_faults(fplan);
    } else {
      dev.clear_alloc_faults();
    }

    std::string fail_reason;
    try {
      auto input = dev.alloc<T>(volume, "input");
      {
        auto host = input.host_span();
        for (std::size_t i = 0; i < volume; ++i) {
          host[i] = testsuite_value<T>(value_op, i);
        }
      }
      auto in_view = input.view();
      const auto value_at = [=](gpusim::ThreadCtx& ctx, std::int64_t idx) {
        return ctx.ld(in_view, static_cast<std::size_t>(idx));
      };
      const auto host_in = input.host_span();

      std::ostringstream why;
      bool ok = true;
      gpusim::LaunchStats stats;
      int kernels = 0;
      std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis

      if (spec.kind == ExtKind::kSegmented) {
        auto res = reduce::run_segmented_reduction<T>(
            dev, extent, kSegments, opts.config, value_op,
            [](std::int64_t idx) {
              return static_cast<std::size_t>(idx) % kSegments;
            },
            value_at, sc);
        stats = res.stats;
        kernels = res.kernels;
        // Per-segment sequential reference (float refs in double, as the
        // scalar grid does).
        using Acc = std::conditional_t<std::is_same_v<T, float>, double, T>;
        const acc::RuntimeOp<Acc> rop{value_op};
        for (std::size_t s = 0; s < kSegments; ++s) {
          Acc ref = rop.identity();
          for (std::size_t i = s; i < volume; i += kSegments) {
            ref = rop.apply(ref, static_cast<Acc>(host_in[i]));
          }
          if (!reduction_result_matches(static_cast<T>(ref), res.values[s],
                                        volume / kSegments + 1)) {
            ok = false;
            why << "segment " << s << ": expected " << static_cast<T>(ref)
                << " got " << res.values[s] << "; ";
          }
        }
        h = fnv1a(h, res.values.data(), res.values.size() * sizeof(T));
      } else {
        auto res = reduce::run_arg_reduction<T>(dev, extent, opts.config,
                                                want_min, value_at, sc);
        stats = res.stats;
        kernels = res.kernels;
        // The loc fold is value-comparison only (no rounding), so the
        // device pair must match the sequential one exactly.
        acc::ValueIndex<T> ref =
            want_min ? acc::ArgMinOp<T>::identity()
                     : acc::ArgMaxOp<T>::identity();
        for (std::size_t i = 0; i < volume; ++i) {
          const acc::ValueIndex<T> c{host_in[i],
                                     static_cast<std::int64_t>(i)};
          ref = want_min ? acc::ArgMinOp<T>{}.apply(ref, c)
                         : acc::ArgMaxOp<T>{}.apply(ref, c);
        }
        if (!(res.value == ref)) {
          ok = false;
          why << "arg pair: expected (" << ref.value << ", " << ref.index
              << ") got (" << res.value.value << ", " << res.value.index
              << ")";
        }
        h = fnv1a(h, &res.value.value, sizeof(T));
        h = fnv1a(h, &res.value.index, sizeof res.value.index);
      }

      append_events(std::move(stats.fault_events));
      if (ok) {
        const auto t1 = std::chrono::steady_clock::now();
        out.stats = stats;
        out.kernels = kernels;
        out.device_ms = stats.device_time_ns / 1e6;
        out.wall_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        out.verified = true;
        out.recovered = out.attempts > 1;
        out.result_hash = h;
        out.stats.faults_armed =
            out.stats.faults_armed || !fault_events.empty();
        out.stats.fault_events = std::move(fault_events);
        dev.clear_alloc_faults();
        return out;
      }
      fail_reason = why.str();
    } catch (const gpusim::LaunchError& e) {
      gpusim::LaunchErrorInfo info = e.info();
      fail_reason = to_string(info);
      const bool carried = !info.fired.empty();
      append_events(std::move(info.fired));
      if (info.injected && !carried) {
        gpusim::FaultEvent fe;
        fe.kind = info.code == gpusim::LaunchErrorCode::kOom
                      ? gpusim::FaultKind::kAllocFail
                      : gpusim::FaultKind::kWarpAbort;
        fe.block = info.block;
        fe.warp = info.warp;
        fe.stage = info.stage;
        fe.detail = info.message;
        append_events({std::move(fe)});
      }
      out.stats.error = e.info();
    }

    ++failures;
    std::string action;
    const std::string sticky =
        fspec.empty() ? fspec : gpusim::FaultPlan::parse(fspec).sticky_spec();
    // Terminal outcomes first, mirroring execute_guarded: a client
    // cancellation never retries, and a spent attempt budget may not
    // launch again.
    if (out.stats.error.code == gpusim::LaunchErrorCode::kCancelled) {
      out.events.push_back("attempt " + std::to_string(out.attempts) +
                           " failed: " + fail_reason +
                           " -> cancelled: give up");
      out.detail = fail_reason;
      out.stats.faults_armed =
          out.stats.faults_armed || !fault_events.empty();
      out.stats.fault_events = std::move(fault_events);
      dev.clear_alloc_faults();
      return out;
    }
    if (opts.max_total_attempts > 0 &&
        out.attempts >= opts.max_total_attempts) {
      out.events.push_back("attempt " + std::to_string(out.attempts) +
                           " failed: " + fail_reason +
                           " -> attempt budget exhausted: give up");
      out.detail = fail_reason;
      out.stats.faults_armed =
          out.stats.faults_armed || !fault_events.empty();
      out.stats.fault_events = std::move(fault_events);
      dev.clear_alloc_faults();
      return out;
    }
    if (failures == 1 && sticky != fspec) {
      fspec = sticky;
      action = "strip non-sticky faults and retry";
    } else if (failures <= opts.max_retries) {
      action = "retry";
    } else {
      out.events.push_back("attempt " + std::to_string(out.attempts) +
                           " failed: " + fail_reason + " -> give up");
      out.detail = fail_reason;
      out.stats.faults_armed =
          out.stats.faults_armed || !fault_events.empty();
      out.stats.fault_events = std::move(fault_events);
      dev.clear_alloc_faults();
      return out;
    }
    out.events.push_back("attempt " + std::to_string(out.attempts) +
                         " failed: " + fail_reason + " -> " + action);
  }
}

}  // namespace

acc::NestIR nest_for_case(const CaseSpec& spec, const RunnerOptions& opts,
                          acc::ClauseDiscipline discipline) {
  const CaseGeometry geo = case_geometry(spec.pos, opts.reduction_extent);
  return build_nest(spec.pos, spec.op, spec.type, geo, opts.config,
                    discipline);
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
