// ESPRES [Perešíni et al., HotSDN'14]: transparent SDN update scheduling.
//
// ESPRES does not touch the TCAM or the rules themselves; it REORDERS
// pending updates to reduce installation cost. Our reimplementation
// batches the updates that arrive within a scheduling window and flushes
// them sorted by descending priority: under the shift-based TCAM
// mechanics each batched rule then lands at the bottom of the occupied
// region, avoiding intra-batch shifting. Pre-existing lower-priority
// entries still force shifts, which is why ESPRES degrades as the table
// fills (the Figure 11 divergence).
#pragma once

#include <string>
#include <vector>

#include "baselines/switch_backend.h"
#include "tcam/asic.h"

namespace hermes::baselines {

class EspresSwitch final : public SwitchBackend {
 public:
  EspresSwitch(const tcam::SwitchModel& model, int tcam_capacity,
               Duration batch_window = from_millis(10));

  /// An insert joins the current scheduling window and completes when it
  /// flushes; deletes/modifies pass through at per-op cost. A batch's
  /// inserts therefore land in the same flush through the default
  /// handle_batch.
  Time handle(Time now, const net::FlowMod& mod) override;
  void tick(Time now) override;
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) override;
  std::string_view name() const override { return "ESPRES"; }
  const std::vector<Duration>& rit_samples() const override {
    return rit_samples_;
  }
  void clear_rit_samples() override { rit_samples_.clear(); }
  void set_fault_plan(fault::FaultPlan* plan) override {
    asic_.set_fault_plan(plan);
  }

  /// Forces the pending batch out (end-of-run drain).
  Time flush(Time now);

  int occupancy() const { return asic_.slice(0).occupancy(); }
  tcam::Asic& asic() { return asic_; }
  /// Per-op TCAM bookkeeping counters (Fig 15-style overhead accounting).
  const tcam::TableStats& table_stats() const {
    return asic_.slice(0).stats();
  }

 private:
  struct Pending {
    Time arrival;
    net::FlowMod mod;
  };

  std::string name_;
  tcam::Asic asic_;
  Duration batch_window_;
  Time window_deadline_ = 0;
  std::vector<Pending> pending_;
  std::vector<Duration> rit_samples_;
};

}  // namespace hermes::baselines
