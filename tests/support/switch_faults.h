// Fault plans for simulator tests: wraps a sim::BackendFactory so that
// every backend it makes gets its own deterministic fault::FaultPlan.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "sim/simulation.h"

namespace hermes::test_support {

/// One fault profile for every switch of a simulation.
struct SwitchFaults {
  fault::SliceFaults slice;  ///< write failures and stalls, every slice
  std::vector<Time> resets;  ///< the same reset schedule on every switch
  std::uint64_t seed = 0x5eed;
};

/// Gives each backend that `make` returns its own plan: the same profile
/// and resets, with the seed decorrelated by node id so that switches do
/// not fail in lockstep. The plans live as long as the last copy of the
/// returned factory; a Simulation keeps one in its config, which outlives
/// its backends.
inline sim::BackendFactory with_faults(sim::BackendFactory make,
                                       SwitchFaults faults) {
  auto plans =
      std::make_shared<std::vector<std::unique_ptr<fault::FaultPlan>>>();
  return [make = std::move(make), faults = std::move(faults), plans](
             net::NodeId sw, const std::string& name) {
    auto backend = make(sw, name);
    fault::FaultPlanConfig fc;
    fc.seed = faults.seed ^
              (static_cast<std::uint64_t>(sw) * 0x9E3779B97F4A7C15ULL);
    fc.default_slice = faults.slice;
    fc.resets = faults.resets;
    plans->push_back(std::make_unique<fault::FaultPlan>(fc));
    backend->set_fault_plan(plans->back().get());
    return backend;
  };
}

}  // namespace hermes::test_support
