// High-level front door: build an annotated loop nest from OpenACC
// directive text, and run it through the full pipeline
// (parse -> analyze -> plan -> execute). This is the API the examples and
// applications use; it is the library equivalent of writing
//
//   #pragma acc parallel num_gangs(192) num_workers(8) vector_length(128)
//   #pragma acc loop gang
//   for (k = 0; k < NK; k++)
//     #pragma acc loop vector reduction(+:c)
//     for (i = 0; i < NI; i++) ...
//
// with loop bodies supplied as callables (see reduce::Bindings).
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

#include "acc/collapse.hpp"
#include "acc/executor.hpp"
#include "acc/parser.hpp"

namespace accred::acc {

class Region {
public:
  explicit Region(gpusim::Device& dev,
                  const CompilerProfile& prof = profile(CompilerId::kOpenUH))
      : dev_(&dev), prof_(&prof) {}

  /// Apply a compute-construct directive ("parallel num_gangs(192) ...").
  Region& parallel(std::string_view directive) {
    const ParallelDirective d = parse_parallel_directive(directive);
    if (d.num_gangs) nest_.config.num_gangs = *d.num_gangs;
    if (d.num_workers) nest_.config.num_workers = *d.num_workers;
    if (d.vector_length) nest_.config.vector_length = *d.vector_length;
    return *this;
  }

  /// Append one loop ("loop gang reduction(+:sum)") of `extent` iterations,
  /// outermost first.
  Region& loop(std::string_view directive, std::int64_t extent) {
    const LoopDirective d = parse_loop_directive(directive);
    if (d.collapse != 1) {
      throw std::invalid_argument(
          "collapse(n) directives need the multi-extent loop() overload");
    }
    return push_loop(d, extent, 0);
  }

  /// Half-open range form `for (x = lower; x < upper; ...)`: the kernels
  /// add the start offset to each thread's index exactly as Fig. 3 does
  /// ("so that the working threads start from 0"), and bindings receive
  /// the original, unshifted indices.
  Region& loop(std::string_view directive, std::int64_t lower,
               std::int64_t upper) {
    const LoopDirective d = parse_loop_directive(directive);
    if (d.collapse != 1) {
      throw std::invalid_argument(
          "collapse(n) directives need the multi-extent loop() overload");
    }
    return push_loop(d, upper - lower, lower);
  }

  /// collapse(n) form: the directive binds `extents.size()` consecutive
  /// source loops to one level; bindings see the flat index and recover
  /// the originals with acc::decompose_index.
  Region& loop(std::string_view directive,
               std::initializer_list<std::int64_t> extents) {
    const LoopDirective d = parse_loop_directive(directive);
    if (static_cast<std::size_t>(d.collapse) != extents.size()) {
      throw std::invalid_argument(
          "collapse(" + std::to_string(d.collapse) + ") directive given " +
          std::to_string(extents.size()) + " loop extents");
    }
    return push_loop(d, collapsed_extent(std::span(extents.begin(),
                                                   extents.size())),
                     0);
  }

  /// Declare a reduction variable's semantics: its operand type, the loop
  /// whose body accumulates it, and where its value is next used
  /// (VarInfo::kHostUse for "after the region"). In OpenUH these facts come
  /// from the AST; here bodies are callables, so they are declared.
  Region& var(std::string name, DataType type, int accum_level,
              int use_level = VarInfo::kHostUse) {
    nest_.vars.push_back(VarInfo{std::move(name), type, accum_level,
                                 use_level});
    return *this;
  }

  /// Append an already-built loop spec (used by alternative front ends
  /// such as the OpenMP facade). Keeps the lower-bound table in sync.
  Region& add_loop(LoopSpec spec, std::int64_t lower = 0) {
    nest_.loops.push_back(std::move(spec));
    lowers_.push_back(lower);
    return *this;
  }

  [[nodiscard]] const NestIR& nest() const noexcept { return nest_; }
  [[nodiscard]] NestIR& nest() noexcept { return nest_; }

  /// Analyze and plan the nest's single reduction.
  [[nodiscard]] ExecutionPlan plan() const {
    return plan_single(nest_, *prof_);
  }

  /// A compiled region: the plan and start offsets resolved once, ready to
  /// run repeatedly (the OpenUH analogue: the kernel is generated once and
  /// launched per use — what an iterative solver like the heat equation
  /// does every time step).
  class Compiled {
  public:
    [[nodiscard]] const ExecutionPlan& plan() const noexcept { return plan_; }

    /// Execute with the given loop bodies. Bindings receive the original
    /// (offset-shifted) loop indices.
    template <typename T>
    reduce::ReduceResult<T> run(const reduce::Bindings<T>& b) const {
      if (lk_ == 0 && lj_ == 0 && li_ == 0) {
        return execute<T>(*dev_, plan_, b);
      }
      // Shift the 0-based kernel indices back to the user's ranges, lane by
      // lane of the call's mask; the -1 sentinel for unused levels passes
      // through untouched.
      const std::int64_t lk = lk_;
      const std::int64_t lj = lj_;
      const std::int64_t li = li_;
      auto shift = [](std::int64_t x, std::int64_t lower) {
        return x < 0 ? x : x + lower;
      };
      auto shifted = [shift](gpusim::LaneMask m, const reduce::LaneIndex& x,
                             std::int64_t lower) {
        reduce::LaneIndex out = x;
        gpusim::for_each_lane(
            m, [&](std::uint32_t l) { out[l] = shift(x[l], lower); });
        return out;
      };
      reduce::Bindings<T> w = b;
      w.contrib = [f = b.contrib, shifted, lk, lj, li](
                      gpusim::WarpCtx& wc, gpusim::LaneMask m,
                      const reduce::LaneIndex& k, const reduce::LaneIndex& j,
                      const reduce::LaneIndex& i, gpusim::Lanes<T>& out) {
        f(wc, m, shifted(m, k, lk), shifted(m, j, lj), shifted(m, i, li), out);
      };
      if (b.parallel_work) {
        w.parallel_work = [f = b.parallel_work, shifted, lk, lj, li](
                              gpusim::WarpCtx& wc, gpusim::LaneMask m,
                              const reduce::LaneIndex& k,
                              const reduce::LaneIndex& j,
                              const reduce::LaneIndex& i) {
          f(wc, m, shifted(m, k, lk), shifted(m, j, lj), shifted(m, i, li));
        };
      }
      if (b.instance_init) {
        w.instance_init = [f = b.instance_init, shift, lk, lj](
                              std::int64_t k, std::int64_t j) {
          return f(shift(k, lk), shift(j, lj));
        };
      }
      if (b.sink) {
        w.sink = [f = b.sink, shifted, lk, lj](
                     gpusim::WarpCtx& wc, gpusim::LaneMask m,
                     const reduce::LaneIndex& k, const reduce::LaneIndex& j,
                     const gpusim::Lanes<T>& r) {
          f(wc, m, shifted(m, k, lk), shifted(m, j, lj), r);
        };
      }
      return execute<T>(*dev_, plan_, w);
    }

  private:
    friend class Region;
    Compiled(gpusim::Device& dev, ExecutionPlan plan, std::int64_t lk,
             std::int64_t lj, std::int64_t li)
        : dev_(&dev), plan_(std::move(plan)), lk_(lk), lj_(lj), li_(li) {}

    gpusim::Device* dev_;
    ExecutionPlan plan_;
    std::int64_t lk_;
    std::int64_t lj_;
    std::int64_t li_;
  };

  /// Analyze and plan once; the returned handle runs without re-planning.
  [[nodiscard]] Compiled compile() const {
    if (lowers_.size() != nest_.loops.size()) {
      throw std::logic_error(
          "Region loop/lower-bound tables out of sync; add loops through "
          "loop()/add_loop()");
    }
    std::int64_t lk = 0;
    std::int64_t lj = 0;
    std::int64_t li = 0;
    for (std::size_t l = 0; l < nest_.loops.size(); ++l) {
      if (has(nest_.loops[l].par, Par::kGang)) lk = lowers_[l];
      if (has(nest_.loops[l].par, Par::kWorker)) lj = lowers_[l];
      if (has(nest_.loops[l].par, Par::kVector)) li = lowers_[l];
    }
    return Compiled(*dev_, plan(), lk, lj, li);
  }

  /// Plan and execute with the given loop bodies (one-shot convenience).
  template <typename T>
  reduce::ReduceResult<T> run(const reduce::Bindings<T>& b) const {
    return compile().run<T>(b);
  }

private:
  Region& push_loop(const LoopDirective& d, std::int64_t extent,
                    std::int64_t lower) {
    LoopSpec spec;
    spec.par = d.seq ? 0 : d.par;
    spec.extent = extent;
    spec.reductions = d.reductions;
    // gang(n) / worker(n) / vector(n) size arguments override the compute
    // construct's launch shape.
    if (d.gang_size) nest_.config.num_gangs = *d.gang_size;
    if (d.worker_size) nest_.config.num_workers = *d.worker_size;
    if (d.vector_size) nest_.config.vector_length = *d.vector_size;
    nest_.loops.push_back(std::move(spec));
    lowers_.push_back(lower);
    return *this;
  }

  gpusim::Device* dev_;
  const CompilerProfile* prof_;
  NestIR nest_;
  std::vector<std::int64_t> lowers_;
};

}  // namespace accred::acc
