// E1 / E2: regenerates the paper's Table 2 (and the Fig. 11 series) —
// the reduction testsuite across 7 positions x operators x types x
// {openuh, pgi_like, caps_like}.
//
// Flags:
//   --r N        reduction-loop extent (default 2^17; paper's scale 2^20)
//   --full       shorthand for --r 1048576
//   --grid full  run all 9 operators x 5 types instead of Table 2's grid
//   --fig11      also print the Fig. 11 per-position series
//   --no-copy    drop the parallel temp-copy traffic of Fig. 4
//   --racecheck  run every cell under the dynamic race detector
//                (gpusim/racecheck.hpp); reports land in the JSON record
//                for `accred_report race`
//   --faults SPEC    arm deterministic fault injection on every cell
//                    (gpusim/faultinject.hpp grammar); fired faults land
//                    in the record for `accred_report fault`. A cell that
//                    verified on its first attempt although a fault fired
//                    re-runs once with faults off; equal result hashes
//                    record it `masked`
//   --max-retries N  same-configuration re-runs after a failed attempt
//                    before the degradation ladder engages (default 1)
//   --no-degrade     retry only: never fall back to the all-barriers tree
//                    or a smaller launch geometry
//   --error-on-race  escalate racecheck conflicts into a structured
//                    LaunchError (implies the cell fails unless recovered)
//   --max-steps N    per-block watchdog barrier-wave budget (0 = the
//                    built-in limit)
//   --emit-cuda DIR  also write the OpenUH-generated CUDA kernel source
//                    for one representative case per position
//   --sim-threads N  host worker threads per kernel launch (0 = the
//                    hardware's thread count; results are identical for
//                    every value)
//   --ext            also run the extended-kind grid (argmin/argmax,
//                    segmented, fused cascade)
//   --json FILE      write the structured accred.bench record (one entry
//                    per Table 2 and extended cell) alongside the text
//                    table
//   --trace FILE     export a chrome://tracing event trace
#include <fstream>
#include <iostream>

#include "codegen/cuda_emitter.hpp"
#include "testsuite/report.hpp"
#include "util/main_guard.hpp"

namespace {

using namespace accred;

int run(const util::Cli& cli, obs::RunRecord& record) {
  testsuite::RunnerOptions opts;
  opts.reduction_extent = cli.get_int("r", 1 << 17);
  if (cli.get_bool("full")) opts.reduction_extent = 1 << 20;
  opts.parallel_work = !cli.get_bool("no-copy");
  opts.racecheck = cli.get_bool("racecheck");
  opts.faults = cli.get("faults", "");
  opts.guard.max_retries = static_cast<int>(cli.get_int("max-retries", 1));
  opts.guard.degrade = !cli.get_bool("no-degrade");
  opts.error_on_race = cli.get_bool("error-on-race");
  opts.max_steps = cli.get_uint32("max-steps", 0);
  testsuite::Runner runner(opts);
  // The same cells with injection off.
  testsuite::RunnerOptions clean_opts = opts;
  clean_opts.faults = "";
  testsuite::Runner clean(clean_opts);
  // A fault that fired while its cell still verified on the first attempt
  // is masked only if a fault-free run of the cell hashes the same. Any
  // other such cell stays unproven, and `accred_report fault` calls it
  // UNDETECTED.
  const auto prove_masked = [](testsuite::CaseOutcome cell,
                               const auto& rerun) {
    if (cell.verified && cell.attempts == 1 &&
        !cell.stats.fault_events.empty()) {
      cell.masked = rerun().result_hash == cell.result_hash;
    }
    return cell;
  };

  const bool full_grid = cli.get("grid", "table2") == "full";
  const auto grid =
      full_grid ? testsuite::full_grid() : testsuite::table2_grid();
  const std::vector<acc::CompilerId> compilers = {
      acc::CompilerId::kOpenUH, acc::CompilerId::kPgiLike,
      acc::CompilerId::kCapsLike};
  const std::vector<acc::DataType> types =
      full_grid ? std::vector<acc::DataType>{acc::DataType::kInt32,
                                             acc::DataType::kUInt32,
                                             acc::DataType::kInt64,
                                             acc::DataType::kFloat,
                                             acc::DataType::kDouble}
                : std::vector<acc::DataType>{acc::DataType::kInt32,
                                             acc::DataType::kFloat,
                                             acc::DataType::kDouble};

  std::cout << "== Table 2 reproduction ==\n"
            << "reduction extent: " << opts.reduction_extent
            << " (paper: 1048576), volume per case: "
            << 64 * opts.reduction_extent << " elements, launch: "
            << opts.config.num_gangs << " gangs x " << opts.config.num_workers
            << " workers x " << opts.config.vector_length << " vector\n\n";

  testsuite::Report report;
  for (const testsuite::CaseSpec& spec : grid) {
    for (acc::CompilerId id : compilers) {
      report.add({spec.pos, spec.op, spec.type, id},
                 prove_masked(runner.run(id, spec),
                              [&] { return clean.run(id, spec); }));
    }
  }

  if (cli.has("emit-cuda")) {
    const std::string dir = cli.get("emit-cuda", ".");
    for (acc::Position pos : testsuite::all_positions()) {
      const testsuite::CaseSpec spec{pos, acc::ReductionOp::kSum,
                                     acc::DataType::kFloat};
      const auto plan = testsuite::plan_for_case(acc::CompilerId::kOpenUH,
                                                 spec, opts);
      std::string name(to_string(pos));
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      const std::string path = dir + "/reduction_" + name + ".cu";
      std::ofstream out(path);
      out << codegen::emit_cuda(plan, {});
      std::cout << "wrote " << path << "\n";
    }
    std::cout << '\n';
  }

  report.print_table2(std::cout, types, compilers);
  std::cout << '\n';
  report.print_verification(std::cout);

  // Extended kinds (argmin/argmax, segmented, fused cascade) run in their
  // own grid so the published Table 2 shape stays fixed; their entries ride
  // the same record for the racecheck / fault-campaign tooling.
  if (cli.get_bool("ext")) {
    std::cout << "\n== Extended reduction kinds ==\n";
    for (const testsuite::ExtSpec& spec : testsuite::ext_grid()) {
      for (acc::CompilerId id : compilers) {
        const testsuite::CaseOutcome cell =
            prove_masked(runner.run_ext(id, spec),
                         [&] { return clean.run_ext(id, spec); });
        std::string name = "ext/" + std::string(to_string(spec.kind)) + "/" +
                           std::string(to_string(spec.type)) + "/" +
                           std::string(to_string(id));
        std::cout << name << ": "
                  << (cell.verified ? "ok" : ("FAIL " + cell.detail))
                  << ", device " << cell.device_ms << " ms, kernels "
                  << cell.kernels << ", attempts " << cell.attempts << "\n";
        testsuite::record_cell(record, name, cell);
      }
    }
  }
  if (cli.get_bool("fig11")) {
    std::cout << "\n== Fig. 11 series ==\n";
    report.print_fig11(std::cout, types, compilers);
  }

  record.meta("reduction_extent", opts.reduction_extent);
  record.meta("grid", full_grid ? "full" : "table2");
  if (opts.racecheck) record.meta("racecheck", std::int64_t{1});
  // Campaign metadata, conditional like the per-entry fault fields so
  // fault-free records stay bit-identical to the committed baselines.
  if (!opts.faults.empty()) record.meta("faults", opts.faults);
  if (opts.error_on_race) record.meta("error_on_race", std::int64_t{1});
  report.to_record(record);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "table2_testsuite",
                         {"full", "no-copy", "fig11", "racecheck",
                          "no-degrade", "error-on-race", "ext"},
                         {"r", "grid", "faults", "max-retries", "max-steps",
                          "emit-cuda"},
                         run);
}
