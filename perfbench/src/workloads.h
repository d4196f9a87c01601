// The three benchmark workloads. Each generates its inputs from the seed
// before any timing starts, sets the system under test up several times
// (the median set-up is reported), runs its timed phase as a closed loop
// with one caller, and checks the outputs against its own reference
// outside the timed region.
#pragma once

#include "harness.h"

namespace perfbench {

Result run_fib_churn(Context& ctx);
Result run_flow_cache(Context& ctx);
Result run_te_fattree(Context& ctx);

/// Deterministic 64-bit mix (splitmix64) for deriving sub-seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Timed-phase size for a run of `seconds`: `per_second` ops per nominal
/// second, at least `floor`. Fixed by the arguments alone, so a seed
/// always yields the same op sequence.
std::uint64_t scaled_ops(double seconds, double per_second, std::uint64_t floor);

}  // namespace perfbench
