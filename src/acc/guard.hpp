// The retry/fallback policy of the guarded ladder (acc::execute_guarded in
// executor.hpp), on its own so option structs can hold one without
// pulling in the strategy kernels.
#pragma once

namespace accred::acc {

/// Retry/fallback policy for execute_guarded().
struct GuardPolicy {
  /// Same-configuration re-runs after a failed attempt before the ladder
  /// degrades the plan.
  int max_retries = 1;
  /// Permit the degradation rungs below retries (all-barriers tree, then
  /// geometry shrink). Off = fail after the retries.
  bool degrade = true;
  /// Degradation rungs the ladder may descend when `degrade` is on: -1 =
  /// unlimited (the full ladder), 0 = none (equivalent to degrade off), N
  /// = stop after the Nth plan change. Lets a service bound how much work
  /// one failing job may consume.
  int max_degrade_rungs = -1;
  /// Hard cap on total attempts across every rung (0 = unlimited). The
  /// first attempt always runs; the ladder gives up once the cap is spent.
  /// This is the hook a per-tenant retry budget debits against.
  int max_total_attempts = 0;
};

}  // namespace accred::acc
