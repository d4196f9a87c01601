// ShadowSwitch [Bifulco & Matsiuk, CCR'15]: the closest related work the
// paper discusses. Where Hermes carves a HARDWARE shadow table,
// ShadowSwitch absorbs insertions in a SOFTWARE table: the flow-mod
// completes at software speed, and a background process flushes entries
// into the TCAM. The trade-off is in the data plane — packets matching a
// rule that is still software-resident take the slow software path —
// which is why Hermes "explores an alternate point in the design space"
// (Section 9).
//
// Since the cache refactor the software-over-TCAM seam lives in
// cache::CacheHierarchy (write-back mode IS the ShadowSwitch flush
// semantic); this backend is a thin adapter that keeps the historical
// interface and RIT accounting.
#pragma once

#include <string>
#include <vector>

#include "baselines/switch_backend.h"
#include "cache/cache_hierarchy.h"
#include "tcam/asic.h"

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
  void tick(Time now) override { hierarchy_.tick(now); }
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) override {
    return hierarchy_.lookup_ptr(now, addr);
  }
  std::string_view name() const override { return "ShadowSwitch"; }
  const std::vector<Duration>& rit_samples() const override {
    return rit_samples_;
  }
  void clear_rit_samples() override { rit_samples_.clear(); }
  /// Faults only touch the TCAM flusher: inserts complete at software
  /// speed regardless, and un-flushed rules simply stay software-resident
  /// until a later flush succeeds (natural retry).
  void set_fault_plan(fault::FaultPlan* plan) override {
    hierarchy_.set_fault_plan(plan);
  }

  /// Rules currently only in software (slow data path).
  int software_resident() const { return hierarchy_.software_resident(); }
  int tcam_occupancy() const { return hierarchy_.tcam_occupancy(); }
  tcam::Asic& asic() { return hierarchy_.asic(); }
  /// Per-op TCAM bookkeeping counters (Fig 15-style overhead accounting).
  const tcam::TableStats& table_stats() const {
    return hierarchy_.table_stats();
  }
  cache::CacheHierarchy& hierarchy() { return hierarchy_; }

  /// Forces the background flush (end-of-run drain).
  Time flush(Time now) { return hierarchy_.flush(now); }

 private:
  cache::CacheHierarchy hierarchy_;
  Duration software_insert_;
  std::vector<Duration> rit_samples_;
};

}  // namespace hermes::baselines
