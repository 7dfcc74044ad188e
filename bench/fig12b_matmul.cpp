// E4: Fig. 12b — naive matmul with the k loop as a vector reduction,
// size sweep, openuh vs caps_like. The paper's PGI bar is missing because
// PGI 13.10 failed the vector '+' reduction (Table 2); our capability
// matrix mirrors that, so pgi_like is reported as F.
//
// Flags: --sizes a,b,c (default 64,128,256; paper used larger),
//        --verify (check against the host reference; O(n^3) on the host),
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>

#include "acc/profiles.hpp"
#include "apps/matmul.hpp"
#include "util/main_guard.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

int run(const util::Cli& cli, obs::RunRecord& record) {
  const auto sizes = cli.get_counts("sizes", "64,128,256");
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
      record.entry(std::to_string(n) + "/sequential_k")
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
        record.entry(std::to_string(n) + "/" + std::string(to_string(id)))
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
      record.entry(std::to_string(n) + "/" + std::string(to_string(id)))
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "fig12b_matmul",
                         {"verify"}, {"sizes"}, run);
}
