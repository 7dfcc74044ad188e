// E4: Fig. 12b — naive matmul with the k loop as a vector reduction,
// size sweep, openuh vs caps_like. The paper's PGI bar is missing because
// PGI 13.10 failed the vector '+' reduction (Table 2); our capability
// matrix mirrors that, so pgi_like is reported as F.
//
// Flags: --sizes a,b,c (default 64,128,256; paper used larger),
//        --verify (check against the host reference; O(n^3) on the host),
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>
#include <sstream>

#include "acc/profiles.hpp"
#include "apps/matmul.hpp"
#include "gpusim/pool.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace accred;
  const util::Cli cli(argc, argv, {"verify"});
  gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));
  obs::Session obs(cli, "fig12b_matmul");

  std::vector<std::int64_t> sizes;
  {
    std::stringstream ss(cli.get("sizes", "64,128,256"));
    for (std::string tok; std::getline(ss, tok, ',');) {
      sizes.push_back(std::stoll(tok));
    }
  }
  const bool verify = cli.has("verify");

  std::cout << "== Fig. 12b reproduction: matmul, k loop as vector "
               "reduction ==\n\n";
  util::TextTable table;
  table.header({"n", "compiler", "device ms", "gmem segs", "bank factor",
                "verified"});
  for (std::int64_t n : sizes) {
    {
      // The conventional mapping the paper's §4 contrasts against: outer
      // two loops parallel, k sequential per thread.
      apps::MatmulOptions o;
      o.n = n;
      const apps::MatmulResult r = apps::run_matmul_sequential_k(o);
      std::string verified = "skipped";
      if (verify) {
        const auto ref = apps::matmul_reference(o);
        verified = "yes";
        for (std::size_t i = 0; i < ref.size(); ++i) {
          if (std::abs(r.c[i] - ref[i]) > 1e-3 + 1e-4 * std::abs(ref[i])) {
            verified = "NO";
            break;
          }
        }
      }
      table.row({std::to_string(n), "(sequential k)",
                 util::TextTable::num(r.device_ms),
                 std::to_string(r.stats.gmem_segments),
                 util::TextTable::num(gpusim::bank_conflict_factor(r.stats)),
                 verified});
      obs.record()
          .entry(std::to_string(n) + "/sequential_k")
          .metric("device_ms", r.device_ms)
          .attr("verified", verified)
          .stats(r.stats);
    }
    for (acc::CompilerId id :
         {acc::CompilerId::kOpenUH, acc::CompilerId::kCapsLike,
          acc::CompilerId::kPgiLike}) {
      // Fig. 12b footnote: PGI failed the vector '+' reduction.
      if (table2_robustness(id, acc::Position::kVector,
                            acc::ReductionOp::kSum, acc::DataType::kFloat) !=
          acc::Robustness::kOk) {
        table.row({std::to_string(n), std::string(to_string(id)), "F", "-",
                   "-", "-"});
        obs.record()
            .entry(std::to_string(n) + "/" + std::string(to_string(id)))
            .attr("status", "F");
        continue;
      }
      apps::MatmulOptions o;
      o.n = n;
      o.compiler = id;
      const apps::MatmulResult r = apps::run_matmul(o);
      std::string verified = "skipped";
      if (verify) {
        const auto ref = apps::matmul_reference(o);
        verified = "yes";
        for (std::size_t i = 0; i < ref.size(); ++i) {
          if (std::abs(r.c[i] - ref[i]) >
              1e-3 + 1e-4 * std::abs(ref[i])) {
            verified = "NO";
            break;
          }
        }
      }
      table.row({std::to_string(n), std::string(to_string(id)),
                 util::TextTable::num(r.device_ms),
                 std::to_string(r.stats.gmem_segments),
                 util::TextTable::num(gpusim::bank_conflict_factor(r.stats)),
                 verified});
      obs.record()
          .entry(std::to_string(n) + "/" + std::string(to_string(id)))
          .metric("device_ms", r.device_ms)
          .attr("verified", verified)
          .stats(r.stats);
    }
  }
  table.print(std::cout);
  std::cout << "\nnote: the sequential-k mapping wins on this naive kernel "
               "because lanes then vary over j and B[k*n+j] coalesces, "
               "while the k-parallel mapping strides B across lanes. The "
               "paper compares compilers on the k-parallel mapping only; "
               "the baseline row quantifies what that mapping costs.\n";
  return obs.finish() ? 0 : 1;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
