// E9: §3.2.1's implementation-choice claim — OpenUH flattens a
// worker&vector reduction into one buffer + one tree instead of reducing
// level by level, because the ordered alternative "needs to perform
// reduction multiple times and therefore more synchronizations are
// required". Reports barriers, shared traffic and modeled time for both.
//
// Flags: --r N (vector extent, default 2^16), --nj N (worker extent, 8)
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>

#include "reduce/rmp_reduce.hpp"
#include "testsuite/values.hpp"
#include "util/main_guard.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

gpusim::LaunchStats run_wv(std::int64_t nk, std::int64_t nj, std::int64_t ni,
                           bool ordered) {
  gpusim::Device dev;
  const reduce::Nest3 n{nk, nj, ni};
  const auto volume = static_cast<std::size_t>(nk * nj * ni);
  auto input = dev.alloc<float>(volume);
  {
    auto host = input.host_span();
    for (std::size_t i = 0; i < volume; ++i) {
      host[i] = testsuite::testsuite_value<float>(acc::ReductionOp::kSum, i);
    }
  }
  auto out = dev.alloc<float>(static_cast<std::size_t>(nk));
  auto iv = input.view();
  auto ov = out.view();
  reduce::Bindings<float> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                   std::int64_t j, std::int64_t i) {
    return ctx.ld(iv, static_cast<std::size_t>((k * nj + j) * ni + i));
  });
  b.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                std::int64_t, float v) {
    ctx.st(ov, static_cast<std::size_t>(k), v);
  });
  const auto res =
      ordered ? reduce::run_worker_vector_reduction_ordered<float>(
                    dev, n, {}, acc::ReductionOp::kSum, b)
              : reduce::run_worker_vector_reduction<float>(
                    dev, n, {}, acc::ReductionOp::kSum, b);
  return res.stats;
}

int run(const util::Cli& cli, obs::RunRecord& record) {
  // nj defaults to several times num_workers: the ordered variant runs a
  // vector tree per (k, j) window instance, so the amplification only
  // shows when each worker handles multiple j's.
  const std::int64_t ni = cli.get_int("r", 1 << 11);
  const std::int64_t nj = cli.get_int("nj", 64);
  const std::int64_t nk = 32;
  record.meta("nk", nk);
  record.meta("nj", nj);
  record.meta("ni", ni);

  std::cout << "== RMP worker&vector: flat buffer (OpenUH) vs ordered "
               "per-level (" << nk << " x " << nj << " x " << ni
            << ") ==\n\n";
  util::TextTable t;
  t.header({"strategy", "device ms", "barriers", "syncwarps", "smem reqs"});
  for (auto [name, key, ordered] :
       {std::tuple{"flat (OpenUH, 3.2.1)", "flat", false},
        std::tuple{"ordered per-level", "ordered", true}}) {
    const auto s = run_wv(nk, nj, ni, ordered);
    t.row({name, util::TextTable::num(s.device_time_ns / 1e6),
           std::to_string(s.barriers), std::to_string(s.syncwarps),
           std::to_string(s.smem_requests)});
    record.entry(key).attr("strategy", name).stats(s);
  }
  t.print(std::cout);
  std::cout << "\nexpected shape: the ordered variant runs a tree per "
               "(k, j) instance instead of one per k, multiplying barrier "
               "count and modeled time.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "rmp_flat_vs_ordered",
                         {}, {"r", "nj"}, run);
}
