#include "service/job.hpp"

#include <array>
#include <stdexcept>

#include "acc/parser.hpp"

namespace accred::service {

std::string_view to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kDeadlineExceeded: return "deadline_exceeded";
    case JobStatus::kShed: return "shed";
    case JobStatus::kCircuitOpen: return "circuit_open";
  }
  return "?";
}

testsuite::RunnerOptions runner_options(const JobSpec& job) {
  testsuite::RunnerOptions opts;
  opts.reduction_extent = job.reduction_extent;
  opts.config = job.config;
  opts.sim_threads = job.sim_threads;
  opts.faults = job.faults;
  opts.guard.max_retries = job.max_retries;
  opts.cancel = job.cancel;
  return opts;
}

namespace {

/// The job's annotated skeleton nest: the declared scalar case, or the
/// cascaded gang/worker/vector chain when chain_ops is set.
acc::NestIR nest_for_job(const JobSpec& job) {
  if (job.chain_ops.empty()) {
    return nest_for_case(job.kase, runner_options(job),
                         acc::profile(job.compiler).discipline);
  }
  if (job.chain_ops.size() != 3) {
    throw std::invalid_argument(
        "chain_ops must hold exactly 3 ops (vector, worker, gang)");
  }
  return testsuite::nest_for_chain(
      std::array<acc::ReductionOp, 3>{job.chain_ops[0], job.chain_ops[1],
                                      job.chain_ops[2]},
      job.kase.type, runner_options(job));
}

}  // namespace

std::vector<std::string> job_source(const JobSpec& job) {
  const acc::NestIR nest = nest_for_job(job);
  std::vector<std::string> out;
  out.reserve(nest.loops.size());
  for (const acc::LoopSpec& loop : nest.loops) {
    std::string line = "#pragma acc loop";
    if (loop.par == 0) {
      line += " seq";
    } else {
      line += ' ';
      line += acc::par_mask_to_string(loop.par);
    }
    for (const acc::ReductionClause& r : loop.reductions) {
      line += " reduction(";
      line += to_string(r.op);
      line += ':';
      line += r.var;
      line += ')';
    }
    out.push_back(std::move(line));
  }
  return out;
}

acc::ExecutionPlan plan_job(const JobSpec& job) {
  const acc::CompilerProfile& prof = acc::profile(job.compiler);
  // The skeleton nest supplies what source text cannot carry: runtime
  // extents and the variable's semantic facts (accumulation site, next
  // use) that a real compiler reads off the AST.
  acc::NestIR nest = nest_for_job(job);
  const std::vector<std::string> source = job_source(job);
  for (std::size_t l = 0; l < nest.loops.size(); ++l) {
    const acc::LoopDirective dir = acc::parse_loop_directive(source[l]);
    nest.loops[l].par = dir.seq ? acc::ParMask{0} : dir.par;
    nest.loops[l].reductions = dir.reductions;
  }
  // A chained job lowers its producer->consumer cascade to one fused
  // kFusedCascade plan; everything else takes the single-reduction path.
  return job.chain_ops.empty() ? acc::plan_single(nest, prof)
                               : acc::plan_chained(nest, prof);
}

}  // namespace accred::service
