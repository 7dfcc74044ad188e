// E11 (extension ablation): the paper's Fig. 5c finalizes the per-gang
// partials with ONE block ("another kernel is launched to do the reduction
// within only one block"). That is the right call for 192 gang partials,
// but the RMP strategies produce gangs x workers x vector partials; this
// harness sweeps the buffer size and locates the crossover against the
// classic two-pass (multi-block) finalize.
//
// Flags: --counts a,b,c (default 192,2048,16384,65536,196608)
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>

#include "reduce/finalize.hpp"
#include "testsuite/values.hpp"
#include "util/main_guard.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

gpusim::LaunchStats run(std::size_t count, bool two_pass) {
  gpusim::Device dev;
  auto in = dev.alloc<float>(count);
  {
    auto host = in.host_span();
    for (std::size_t i = 0; i < count; ++i) {
      host[i] = testsuite::testsuite_value<float>(acc::ReductionOp::kSum, i);
    }
  }
  auto out = dev.alloc<float>(1);
  reduce::StrategyConfig sc;
  return two_pass ? reduce::launch_finalize_two_pass(
                        dev, in.view(), count, out.view(),
                        acc::ReductionOp::kSum, sc)
                  : reduce::launch_finalize(dev, in.view(), count,
                                            out.view(),
                                            acc::ReductionOp::kSum, sc);
}

int run(const util::Cli& cli, obs::RunRecord& record) {
  const auto counts = cli.get_counts("counts", "192,2048,16384,65536,196608");

  std::cout << "== Finalize-kernel strategy ablation (extension; the paper "
               "uses the single-block form of Fig. 5c) ==\n\n";
  util::TextTable t;
  t.header({"partials", "single-block ms", "two-pass ms", "winner"});
  for (const std::int64_t n : counts) {
    const auto count = static_cast<std::size_t>(n);
    const auto one = run(count, false);
    const auto two = run(count, true);
    t.row({std::to_string(count),
           util::TextTable::num(one.device_time_ns / 1e6, 3),
           util::TextTable::num(two.device_time_ns / 1e6, 3),
           one.device_time_ns <= two.device_time_ns ? "single-block"
                                                    : "two-pass"});
    record.entry(std::to_string(count) + "/single_block").stats(one);
    record.entry(std::to_string(count) + "/two_pass")
        .attr("winner", one.device_time_ns <= two.device_time_ns
                            ? "single-block"
                            : "two-pass")
        .stats(two);
  }
  t.print(std::cout);
  std::cout << "\nexpected shape: the single block wins while the buffer is "
               "a few thousand entries (launch overhead dominates); the "
               "two-pass takes over once one SM would serialize the fold "
               "(the RMP buffers of 3.2).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "finalize_strategies",
                         {}, {"counts"}, run);
}
