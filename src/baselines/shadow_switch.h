// ShadowSwitch [Bifulco & Matsiuk, CCR'15]: the closest related work the
// paper discusses. Where Hermes carves a HARDWARE shadow table,
// ShadowSwitch absorbs insertions in a SOFTWARE table: the flow-mod
// completes at software speed, and a background process flushes entries
// into the TCAM. The trade-off is in the data plane — packets matching a
// rule that is still software-resident take the slow software path —
// which is why Hermes "explores an alternate point in the design space"
// (Section 9).
//
// Residency is EXCLUSIVE: a rule lives in the software table until a
// flush lands it in the TCAM, and then only there. Lookups combine both
// tables, and the hardware wins priority ties (the TCAM answers before
// the slow path).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/switch_backend.h"
#include "tcam/asic.h"
#include "tcam/lookup_engine.h"

namespace hermes::baselines {

class ShadowSwitchBackend final : public SwitchBackend {
 public:
  /// `software_insert` is the cost of accepting a rule in software;
  /// `flush_period` is how often the background flusher writes the
  /// software table into the TCAM (batched).
  ShadowSwitchBackend(const tcam::SwitchModel& model, int tcam_capacity,
                      Duration software_insert = from_micros(30),
                      Duration flush_period = from_millis(20));

  Time handle(Time now, const net::FlowMod& mod) override;
  /// Runs the background flush when it is due.
  void tick(Time now) override;
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) override;
  std::string_view name() const override { return "ShadowSwitch"; }
  const std::vector<Duration>& rit_samples() const override {
    return rit_samples_;
  }
  void clear_rit_samples() override { rit_samples_.clear(); }
  /// Faults only touch the TCAM flusher: inserts complete at software
  /// speed regardless, and un-flushed rules simply stay software-resident
  /// until a later flush succeeds (natural retry).
  void set_fault_plan(fault::FaultPlan* plan) override {
    asic_.set_fault_plan(plan);
  }

  /// Rules currently only in software (slow data path).
  int software_resident() const { return static_cast<int>(software_.size()); }
  int tcam_occupancy() const { return asic_.slice(0).occupancy(); }
  tcam::Asic& asic() { return asic_; }
  /// Per-op TCAM bookkeeping counters (Fig 15-style overhead accounting).
  const tcam::TableStats& table_stats() const {
    return asic_.slice(0).stats();
  }
  /// Flush hardening: batch entries reported inserted but not actually
  /// TCAM-resident (kept software-resident instead of being dropped from
  /// both tables). Identically zero today — the batch insert path only
  /// ever lands a prefix — and asserted zero by tests.
  std::uint64_t flush_orphans() const { return flush_orphans_; }

  /// Forces the background flush (end-of-run drain).
  Time flush(Time now);

 private:
  bool software_erase(net::RuleId id);
  void software_install(const net::Rule& rule);

  tcam::Asic asic_;
  Duration software_insert_;
  Duration flush_period_;
  Time next_flush_;
  std::vector<Duration> rit_samples_;

  /// The software table: every rule not yet flushed, by id, and its
  /// classifier, stamped in arrival order for priority tie-breaks.
  std::unordered_map<net::RuleId, net::Rule> software_;
  tcam::LookupEngine sw_engine_;
  std::uint64_t seq_ = 0;
  std::uint64_t flush_orphans_ = 0;

  obs::Counter obs_flush_orphans_ =
      obs::attached_counter("cache.flush_orphans");
  obs::Gauge obs_software_resident_ =
      obs::attached_gauge("cache.software_resident");
};

}  // namespace hermes::baselines
