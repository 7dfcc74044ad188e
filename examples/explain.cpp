// Compiler-explorer-style tool: feed an annotated nest on the command
// line, see what the compiler does with it — the analyzed reduction span,
// the chosen strategy and buffers, per-profile differences, and the
// generated CUDA source.
//
//   ./explain --nest "gang=1000; worker=100; vector reduction(+:s)=500"
//             [--type float] [--accum 2] [--use 1] [--compiler openuh]
//             [--cuda]
//
// Each ';'-separated element is an OpenACC loop directive (without the
// 'loop' keyword) with '=extent' appended.
#include <iostream>
#include <sstream>

#include "acc/parser.hpp"
#include "acc/planner.hpp"
#include "codegen/cuda_emitter.hpp"
#include "util/main_guard.hpp"

namespace {

using namespace accred;

acc::DataType parse_type(const std::string& s) {
  if (s == "int") return acc::DataType::kInt32;
  if (s == "unsigned") return acc::DataType::kUInt32;
  if (s == "long" || s == "int64") return acc::DataType::kInt64;
  if (s == "float") return acc::DataType::kFloat;
  if (s == "double") return acc::DataType::kDouble;
  throw std::invalid_argument("unknown type '" + s + "'");
}

acc::CompilerId parse_compiler(const std::string& s) {
  if (s == "openuh") return acc::CompilerId::kOpenUH;
  if (s == "pgi_like" || s == "pgi") return acc::CompilerId::kPgiLike;
  if (s == "caps_like" || s == "caps") return acc::CompilerId::kCapsLike;
  throw std::invalid_argument("unknown compiler '" + s + "'");
}

std::string trim(std::string s) {
  const auto b = s.find_first_not_of(" \t");
  const auto e = s.find_last_not_of(" \t");
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

int run(const util::Cli& cli, obs::RunRecord&) {
  acc::NestIR nest;
  std::string var_name = "s";
  {
    std::stringstream ss(cli.get(
        "nest", "gang=1000; worker=100; vector reduction(+:s)=500"));
    for (std::string part; std::getline(ss, part, ';');) {
      part = trim(part);
      const auto eq = part.rfind('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("loop element needs '=extent': " + part);
      }
      const acc::LoopDirective d =
          acc::parse_loop_directive("loop " + part.substr(0, eq));
      acc::LoopSpec spec;
      spec.par = d.seq ? 0 : d.par;
      spec.extent = std::stoll(part.substr(eq + 1));
      spec.reductions = d.reductions;
      if (!d.reductions.empty()) var_name = d.reductions.front().var;
      nest.loops.push_back(std::move(spec));
    }
  }
  const auto type = parse_type(cli.get("type", "float"));
  const int nloops = static_cast<int>(nest.loops.size());
  const int accum = static_cast<int>(cli.get_int("accum", nloops - 1));
  const int use = static_cast<int>(cli.get_int("use", -1));
  nest.vars = {{var_name, type, accum, use}};
  const auto id = parse_compiler(cli.get("compiler", "openuh"));
  const acc::CompilerProfile& prof = acc::profile(id);

  std::cout << "== analysis (" << to_string(id) << ") ==\n";
  const acc::AnalysisResult analysis = analyze(nest, prof.discipline);
  for (const acc::ReductionInfo& r : analysis.reductions) {
    std::cout << "variable '" << r.var.name << "' ("
              << to_string(r.var.type) << ", op "
              << to_string(r.op) << "): span = "
              << acc::par_mask_to_string(r.span)
              << (r.same_loop ? " (same loop)" : "") << "\n";
  }
  for (const std::string& note : analysis.notes) {
    std::cout << note << '\n';
  }

  const acc::ExecutionPlan plan =
      plan_reduction(nest, analysis.reductions.front(), prof);
  std::cout << "\n== plan ==\nstrategy: " << to_string(plan.kind)
            << "\nkernels: " << plan.kernel_count
            << "\nlaunch: " << plan.launch.num_gangs << " gangs x "
            << plan.launch.num_workers << " workers x "
            << plan.launch.vector_length << " vector"
            << "\nshared staging: " << plan.shared_bytes << " bytes"
            << "\nglobal partials: " << plan.global_buffer_elems
            << " elements\nassignment: "
            << (plan.strategy.assignment == reduce::Assignment::kWindow
                    ? "window sliding"
                    : "blocking")
            << "\nstaging: "
            << (plan.strategy.staging == reduce::Staging::kShared
                    ? "shared memory"
                    : "global memory")
            << "\n";

  if (cli.has("cuda")) {
    std::cout << "\n== generated CUDA ==\n"
              << codegen::emit_cuda(plan, {});
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "explain", {"cuda"},
                         {"nest", "type", "accum", "use", "compiler"}, run);
}
