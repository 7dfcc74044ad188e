// E8: §3.1.3's iteration-assignment claim — "the window sliding technique
// is superior to the blocking algorithm in vector partial reduction since
// it can enable memory coalescing". Measures global transactions,
// coalescing efficiency and modeled time for the same-loop reduction and
// the vector partial phase under both assignments.
//
// Flags: --n N (elements, default 2^20)
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>

#include "reduce/rmp_reduce.hpp"
#include "testsuite/values.hpp"
#include "util/main_guard.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

gpusim::LaunchStats run_same_loop(std::int64_t n, reduce::Assignment mode) {
  gpusim::Device dev;
  auto input = dev.alloc<float>(static_cast<std::size_t>(n));
  {
    auto host = input.host_span();
    for (std::size_t i = 0; i < host.size(); ++i) {
      host[i] = testsuite::testsuite_value<float>(acc::ReductionOp::kSum, i);
    }
  }
  auto iv = input.view();
  reduce::Bindings<float> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t idx,
                                   std::int64_t, std::int64_t) {
    return ctx.ld(iv, static_cast<std::size_t>(idx));
  });
  reduce::StrategyConfig sc;
  sc.assignment = mode;
  return reduce::run_same_loop_reduction<float>(dev, n, {},
                                                acc::ReductionOp::kSum, b, sc)
      .stats;
}

int run(const util::Cli& cli, obs::RunRecord& record) {
  const std::int64_t n = cli.get_int("n", 1 << 20);
  record.meta("elements", n);

  std::cout << "== Window-sliding vs blocking iteration assignment "
               "(same-loop reduction over "
            << n << " floats) ==\n\n";
  util::TextTable t;
  t.header({"assignment", "device ms", "gmem requests", "gmem segments",
            "coalescing eff"});
  for (auto [name, key, mode] :
       {std::tuple{"window (OpenUH)", "window", reduce::Assignment::kWindow},
        std::tuple{"blocking", "blocking", reduce::Assignment::kBlocking}}) {
    const auto s = run_same_loop(n, mode);
    t.row({name, util::TextTable::num(s.device_time_ns / 1e6),
           std::to_string(s.gmem_requests), std::to_string(s.gmem_segments),
           util::TextTable::num(gpusim::coalescing_efficiency(s), 3)});
    record.entry(key).attr("assignment", name).stats(s);
  }
  t.print(std::cout);
  std::cout << "\nexpected shape: window sliding touches ~1 segment per "
               "warp request (fully coalesced); blocking touches up to 32, "
               "inflating transactions and modeled time by an order of "
               "magnitude.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "window_vs_blocking", {}, {"n"}, run);
}
