#include "service/job.hpp"

#include <array>
#include <stdexcept>
#include <string>

#include "acc/profiles.hpp"

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

acc::ExecutionPlan plan_job(const JobSpec& job) {
  // A cell the job's compiler cannot compile (a Table 2 CE cell) has no
  // plan. The runner would refuse it without launching anything, so refuse
  // it here, with the reason, before it takes a queue slot or a worker.
  if (acc::table2_robustness(job.compiler, job.kase.pos, job.kase.op,
                             job.kase.type) ==
      acc::Robustness::kCompileError) {
    throw std::invalid_argument(
        std::string(acc::to_string(job.compiler)) +
        " does not compile the " + std::string(acc::to_string(job.kase.pos)) +
        " " + std::string(acc::to_string(job.kase.op)) + " " +
        std::string(acc::to_string(job.kase.type)) +
        " cell (a Table 2 compile error)");
  }
  const testsuite::RunnerOptions opts = runner_options(job);
  if (job.chain_ops.empty()) {
    return testsuite::plan_for_case(job.compiler, job.kase, opts);
  }
  if (job.chain_ops.size() != 3) {
    throw std::invalid_argument(
        "chain_ops must hold exactly 3 ops (vector, worker, gang)");
  }
  // The runner binds a job's loads and host reference at kase.pos, so a
  // chain planned at any other position could only fail on the device.
  if (job.kase.pos != acc::Position::kGangWorkerVector) {
    throw std::invalid_argument(
        "a chain job runs at the gang worker vector position, not at " +
        std::string(acc::to_string(job.kase.pos)));
  }
  // One fused kFusedCascade plan for the producer->consumer cascade.
  return acc::plan_chained(
      testsuite::nest_for_chain(
          std::array<acc::ReductionOp, 3>{job.chain_ops[0], job.chain_ops[1],
                                          job.chain_ops[2]},
          job.kase.type, opts),
      acc::profile(job.compiler));
}

}  // namespace accred::service
