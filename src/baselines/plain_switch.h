// An unmodified commodity switch: one monolithic TCAM table, actions
// applied in arrival order. This is the "Pica8 P-3290 / Dell 8132F /
// HP 5406zl" baseline of Figures 8-9 — all the pathologies of Section 2.1
// (occupancy-dependent insert latency, priority shifting) apply in full.
#pragma once

#include <string>

#include "baselines/switch_backend.h"
#include "tcam/asic.h"

namespace hermes::baselines {

class PlainSwitch final : public SwitchBackend {
 public:
  PlainSwitch(const tcam::SwitchModel& model, int tcam_capacity);

  Time handle(Time now, const net::FlowMod& mod) override;
  /// An unmodified switch has no transactional support: mods apply
  /// sequentially at per-op cost (identical latencies to handle()), but
  /// each result slot gets the real per-op outcome.
  Time handle_batch(Time now, net::FlowModBatch& batch) override;
  void tick(Time /*now*/) override {}
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) override;
  std::string_view name() const override { return name_; }
  const std::vector<Duration>& rit_samples() const override {
    return rit_samples_;
  }
  void clear_rit_samples() override { rit_samples_.clear(); }
  void set_fault_plan(fault::FaultPlan* plan) override {
    asic_.set_fault_plan(plan);
  }

  tcam::Asic& asic() { return asic_; }
  int occupancy() const { return asic_.slice(0).occupancy(); }
  /// Per-op TCAM bookkeeping counters (Fig 15-style overhead accounting).
  const tcam::TableStats& table_stats() const {
    return asic_.slice(0).stats();
  }

 private:
  /// Re-submits a failed insert immediately (no backoff: an unmodified
  /// agent just tries again), each retry re-paying the occupancy-deep
  /// insert cost — this is what head-of-line blocks the channel under
  /// fault injection.
  Time submit_with_retry(Time now, const net::FlowMod& mod,
                         tcam::ApplyResult* result);

  std::string name_;
  tcam::Asic asic_;
  std::vector<Duration> rit_samples_;
};

}  // namespace hermes::baselines
