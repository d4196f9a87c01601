// Tango [Lazaris et al., CoNEXT'14]: switch-property-aware update
// optimization.
//
// Tango goes one step beyond ESPRES: besides REORDERING pending updates it
// REWRITES them — aggregating rules that share priority and action into
// fewer TCAM entries (exploiting structure in IP allocation, e.g. the
// contiguous per-rack blocks of a data center). Fewer entries means fewer
// shifts and a table that fills more slowly. On scattered ISP prefixes
// aggregation finds little to merge, which is exactly the
// Facebook-vs-Geant contrast of Figure 11.
//
// Like ESPRES it provides NO guarantee: it reduces the cost of what is
// inserted but the insert still pays occupancy-dependent shifting.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baselines/switch_backend.h"
#include "tcam/asic.h"

namespace hermes::baselines {

class TangoSwitch final : public SwitchBackend {
 public:
  TangoSwitch(const tcam::SwitchModel& model, int tcam_capacity,
              Duration batch_window = from_millis(10));

  Time handle(Time now, const net::FlowMod& mod) override;
  /// The transaction joins the current scheduling window as one unit:
  /// every insert is rewritten and flushed with the same schedule
  /// (completing at the window deadline); deletes/modifies pass through.
  Time handle_batch(Time now, net::FlowModBatch& batch) override;
  void tick(Time now) override;
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) override;
  std::string_view name() const override { return "Tango"; }
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
  std::uint64_t rules_saved_by_aggregation() const { return saved_; }

 private:
  struct Pending {
    Time arrival;
    net::Rule rule;
  };
  /// One physical TCAM entry owned by Tango, possibly covering several
  /// logical rules whose prefixes were aggregated.
  struct PhysicalEntry {
    net::Rule rule;
    std::unordered_set<net::RuleId> covers;  // logical ids
  };

  Time erase_logical(Time now, net::RuleId id);
  /// Per-op insert with the shared immediate-retry policy (modify path
  /// and the reinstall loop of erase_logical).
  Time insert_with_retry(Time now, const net::Rule& phys);
  void rewrite_group(int priority, const net::Action& action,
                     const std::vector<Pending>& group,
                     std::vector<net::Rule>& batch);

  std::string name_;
  tcam::Asic asic_;
  Duration batch_window_;
  Time window_deadline_ = 0;
  std::vector<Pending> pending_;
  std::vector<Duration> rit_samples_;

  std::unordered_map<net::RuleId, PhysicalEntry> physical_;  // by phys id
  std::unordered_map<net::RuleId, net::Rule> logical_;       // originals
  std::unordered_map<net::RuleId, net::RuleId> logical_to_physical_;
  net::RuleId next_physical_id_ = net::RuleId{1} << 32;
  std::uint64_t saved_ = 0;
};

}  // namespace hermes::baselines
