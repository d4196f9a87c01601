// The operator-facing abstractions of Section 7.
//
// Network operators request guarantees per switch through a small API:
//
//   int    CreateTCAMQoS(switch_id, perf_guarantee, match_predicate)
//   bool   DeleteQoS(shadow_id)
//   bool   ModQoSConfig(shadow_id, perf_guarantee)
//   bool   ModQoSMatch(shadow_id, match_predicate)
//   double QoSOverheads(switch_id, perf_guarantee, match_predicate)
//
// CreateTCAMQoS returns a descriptor for later modification/deletion and
// exposes the max burst rate Hermes will support (Equation 2), which the
// Gate Keeper enforces by admission control.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "hermes/hermes_agent.h"

namespace hermes::core {

using SwitchId = int;
using ShadowId = int;
inline constexpr ShadowId kInvalidShadowId = -1;

/// What CreateTCAMQoS hands back to the operator.
struct QoSDescriptor {
  ShadowId id = kInvalidShadowId;
  SwitchId switch_id = -1;
  Duration guarantee = 0;
  int shadow_capacity = 0;
  double max_burst_rate = 0.0;  ///< Equation 2 (inserts/s)
  double tcam_overhead = 0.0;   ///< fraction of the TCAM spent
};

/// Manages Hermes deployments across a fleet of switches. One QoS config
/// per switch in this implementation (the single-table model of Section 3;
/// Section 6's multi-table extension would key configs by (switch, table)).
class QoSManager {
 public:
  /// Registers a switch eligible for Hermes configuration.
  void register_switch(SwitchId id, const tcam::SwitchModel& model,
                       int tcam_capacity);

  /// Creates a QoS configuration: carves the switch TCAM and instantiates
  /// a HermesAgent. Returns nullopt when the switch is unknown, already
  /// configured, or the guarantee is unsatisfiable.
  std::optional<QoSDescriptor> CreateTCAMQoS(SwitchId switch_id,
                                             Duration perf_guarantee,
                                             RulePredicate match_predicate);

  /// Tears down a QoS configuration (the switch reverts to a plain
  /// monolithic table on its next reconfiguration).
  bool DeleteQoS(ShadowId shadow_id);

  /// Re-sizes the shadow table for a new guarantee, keeping the
  /// guarantee predicate. Installed rules are replayed into the new
  /// carving.
  bool ModQoSConfig(ShadowId shadow_id, Duration perf_guarantee);

  /// Swaps the guarantee predicate.
  bool ModQoSMatch(ShadowId shadow_id, RulePredicate match_predicate);

  /// Pure what-if: the TCAM fraction a guarantee would cost on a switch,
  /// without configuring anything. Negative when unsatisfiable/unknown.
  double QoSOverheads(SwitchId switch_id, Duration perf_guarantee,
                      const RulePredicate& match_predicate) const;

  /// The live agent behind a descriptor (nullptr when deleted/unknown).
  HermesAgent* agent(ShadowId shadow_id);
  const QoSDescriptor* descriptor(ShadowId shadow_id) const;

 private:
  struct SwitchEntry {
    const tcam::SwitchModel* model = nullptr;
    int tcam_capacity = 0;
    ShadowId active = kInvalidShadowId;
  };
  struct QosEntry {
    QoSDescriptor descriptor;
    RulePredicate predicate;
    std::unique_ptr<HermesAgent> agent;
  };

  /// Carves `sw` for `guarantee` and `predicate` with a fresh agent,
  /// replays the old agent's installed rules (if any) into it, and
  /// refreshes the descriptor.
  static void carve(QosEntry& entry, const SwitchEntry& sw,
                    Duration guarantee, RulePredicate predicate);

  std::map<SwitchId, SwitchEntry> switches_;
  std::map<ShadowId, QosEntry> configs_;
  ShadowId next_shadow_id_ = 1;
};

}  // namespace hermes::core
