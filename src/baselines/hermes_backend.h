// SwitchBackend adapters for Hermes itself — full Hermes (predictive
// migration) and Hermes-SIMPLE (plain occupancy threshold, Section 8.5) —
// so harnesses can compare all systems through one interface.
#pragma once

#include <memory>
#include <string>

#include "baselines/switch_backend.h"
#include "hermes/hermes_agent.h"

namespace hermes::baselines {

class HermesBackend final : public SwitchBackend {
 public:
  HermesBackend(const tcam::SwitchModel& model, int tcam_capacity,
                core::HermesConfig config = {},
                std::string label = "Hermes");

  Time handle(Time now, const net::FlowMod& mod) override;
  /// Delegates to HermesAgent::handle_batch: one Gate Keeper admission,
  /// one partition-planning snapshot, one optimized shadow write.
  Time handle_batch(Time now, net::FlowModBatch& batch) override;
  void tick(Time now) override { agent_.tick(now); }
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) override {
    return agent_.lookup_ptr(now, addr);
  }
  std::string_view name() const override { return label_; }
  const std::vector<Duration>& rit_samples() const override {
    return agent_.rit_samples();
  }
  void clear_rit_samples() override { agent_.clear_rit_samples(); }
  void set_fault_plan(fault::FaultPlan* plan) override {
    agent_.asic().set_fault_plan(plan);
  }

  core::HermesAgent& agent() { return agent_; }
  const core::HermesAgent& agent() const { return agent_; }

 private:
  std::string label_;
  core::HermesAgent agent_;
};

/// Hermes-SIMPLE: identical machinery, but migration fires on a bare
/// occupancy threshold instead of the predictor (Section 8.5).
std::unique_ptr<HermesBackend> make_hermes_simple(
    const tcam::SwitchModel& model, int tcam_capacity, double threshold,
    core::HermesConfig base_config = {});

/// Convenience factory for the standard comparison set of Section 8.3:
/// "plain", "espres", "tango", "hermes".
std::unique_ptr<SwitchBackend> make_backend(std::string_view kind,
                                            const tcam::SwitchModel& model,
                                            int tcam_capacity);

}  // namespace hermes::baselines
