// Empirical switch control-plane latency models (Section 8.1.1).
//
// The paper's simulator "models control plane action latency by
// incorporating existing empirical models of switch TCAM behavior"
// [Kuźniar et al., PAM'15; He et al., SOSR'15]. We reproduce that: each
// SwitchModel converts the mechanical cost of an operation (how many TCAM
// entries were shifted) into latency via a piecewise-linear curve anchored
// at the occupancy/update-rate calibration points of Table 1.
//
// Modeled behaviors (Section 2.1.1 "Takeaways"):
//  * insertion latency grows (roughly linearly) with the number of entries
//    that must move — hence with occupancy for mid/high-priority inserts;
//  * inserting at the bottom of the table (0 shifts) costs only the base
//    write latency — the Section 4.2 optimization exploits this;
//  * deletion is fast and occupancy-independent;
//  * modification without priority change is constant time.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "net/time.h"

namespace hermes::tcam {

/// A calibration point: inserting into a table already holding `occupancy`
/// rules proceeds at `updates_per_second` (Table 1 format).
struct CalibrationPoint {
  int occupancy = 0;
  double updates_per_second = 0.0;
};

class SwitchModel {
 public:
  /// `points` must be non-empty, sorted ascending by occupancy.
  /// `base_latency` is the cost of a raw TCAM slot write (an insert that
  /// shifts nothing). Latency between calibration points is interpolated
  /// linearly; beyond the last point it is extrapolated with the final
  /// segment's slope.
  SwitchModel(std::string name, std::vector<CalibrationPoint> points,
              Duration base_latency, Duration delete_latency,
              Duration modify_latency,
              Duration slot_write_latency = from_micros(10));

  const std::string& name() const { return name_; }

  /// Latency of an insertion that displaced `shifts` existing entries.
  Duration insert_latency(int shifts) const;

  /// Latency of a deletion (constant; Section 2.1.1).
  Duration delete_latency() const { return delete_latency_; }

  /// Latency of a match/action modification without priority change.
  Duration modify_latency() const { return modify_latency_; }

  Duration base_latency() const { return base_latency_; }

  /// Cost of programming one TCAM slot, without any entry movement. Used
  /// by batched updates.
  Duration slot_write_latency() const { return slot_write_latency_; }

  /// Latency of writing `batch_size` rules as one optimized batch into a
  /// table currently holding `occupancy_before` entries.
  ///
  /// Models the migration-step-2 optimizers the paper cites (Tango,
  /// RuleTris): a dependency-aware batch moves each existing entry at most
  /// once — the cost of a single worst-case insert — and then programs the
  /// new slots. This is what makes draining a full shadow table far
  /// cheaper than rule-by-rule reinsertion (Section 5.2).
  Duration batch_insert_latency(int occupancy_before, int batch_size) const;

  /// Latency of invalidating `batch_size` entries as one batch (emptying
  /// the shadow table, Figure 7 step 4). Deletions move nothing, so the
  /// batch costs one delete round plus a slot invalidation per extra
  /// entry.
  Duration batch_delete_latency(int batch_size) const;

  /// Sustained update rate when every insert shifts ~`occupancy` entries —
  /// the quantity Table 1 reports.
  double max_update_rate(int occupancy) const;

  /// Largest shift count whose insertion completes within `bound` — the
  /// inversion Hermes uses to size shadow tables (Sections 5, 7).
  /// Returns 0 when even a bare write exceeds the bound.
  int max_shifts_within(Duration bound) const;

 private:
  std::string name_;
  std::vector<CalibrationPoint> points_;
  Duration base_latency_;
  Duration delete_latency_;
  Duration modify_latency_;
  Duration slot_write_latency_;
};

/// The three commodity switches the paper simulates (Section 8.1.1).
/// Pica8 and Dell use the Table 1 measurements verbatim; the HP 5406zl —
/// whose numbers Table 1 omits — uses a flatter, higher-base profile
/// consistent with the He et al. measurements the paper cites.
const SwitchModel& pica8_p3290();
const SwitchModel& dell_8132f();
const SwitchModel& hp_5406zl();

/// All three, for "experiments are run across all three switch models".
std::vector<const SwitchModel*> all_switch_models();

/// Lookup by name ("pica8", "dell", "hp", case-insensitive prefixes of the
/// full names also accepted); nullptr when unknown.
const SwitchModel* find_switch_model(std::string_view name);

}  // namespace hermes::tcam
