// The migration-policy seam (the decision half of the Rule Manager).
//
// The predictor seam (predictor.h) answers "how many arrivals come
// next?"; this seam answers "what should the Rule Manager DO about it?".
// Every epoch the agent assembles a PolicyState snapshot (shadow
// occupancy, corrected forecast, arrival trend, recent fault rate) and
// asks the configured MigrationPolicy for one MigrationAction. The
// paper's fixed trigger — migrate everything when occupancy + forecast
// crosses the watermark — becomes ThresholdMigrationPolicy, the default;
// learned policies (src/policy/q_policy.h) plug in through
// HermesConfig::policy_instance without touching the agent.
//
// Contract for implementations:
//   * decide() may mutate internal learning state but must be
//     deterministic in (construction parameters, call sequence) — no
//     wall clock, no unseeded RNG. Replays must stay bit-identical.
//   * feedback() delivers the reward signal for the PREVIOUS decision
//     (the epoch that just closed) before the next decide() call; pure
//     policies ignore it.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "hermes/config.h"
#include "net/time.h"

namespace hermes::core {

/// What the Rule Manager can do at an epoch boundary.
enum class MigrationAction : std::uint8_t {
  kHold = 0,            ///< leave the shadow table alone this epoch
  kMigrateSmall = 1,    ///< drain the top half of the shadow (by priority)
  kMigrateLarge = 2,    ///< drain the whole shadow (the paper's trigger)
  kExpandPartition = 3, ///< re-carve TCAM: grow the shadow slice at the
                        ///< main slice's expense (bounded by the agent)
};

/// Per-epoch snapshot the agent hands to decide().
struct PolicyState {
  Time now = 0;
  int shadow_occupancy = 0;
  int shadow_capacity = 0;
  /// Corrected forecast of next epoch's arrivals (GrowthEstimator).
  /// Filled only when the shadow holds rules, and 0 otherwise: the
  /// threshold rule holds on an empty shadow without reading it, and
  /// QPolicy never reads it.
  double predicted_next = 0;
  /// Last closed epoch's arrivals minus the epoch before (rising
  /// arrival rate shows up here before occupancy reflects it).
  double arrival_trend = 0;
  /// EWMA of write-retry events per epoch (0 without a fault plan).
  double recent_fault_rate = 0;
};

/// Reward signal for the epoch that just closed, delivered via
/// feedback() before the next decide().
struct PolicyFeedback {
  /// Mean controller-visible insert sojourn (completion - arrival) over
  /// the epoch's inserts, in microseconds; 0 when no insert landed.
  double mean_insert_latency_us = 0;
  /// Guarantee misses counted during the epoch.
  double violations = 0;
};

class MigrationPolicy {
 public:
  virtual ~MigrationPolicy() = default;

  /// One decision per epoch (per tick for Hermes-SIMPLE configs).
  virtual MigrationAction decide(const PolicyState& state) = 0;

  /// Reward for the previous decision; default no-op for pure policies.
  virtual void feedback(const PolicyFeedback& fb) { (void)fb; }

  virtual std::string_view name() const = 0;
};

/// The paper's fixed trigger, refactored behind the seam. Bit-identical
/// to the pre-seam HermesAgent::migration_due(): kHold on an empty
/// shadow; Hermes-SIMPLE compares occupancy against `simple_threshold`;
/// otherwise occupancy + corrected forecast against the watermark. Fires
/// only kMigrateLarge — the legacy trigger always drained everything.
class ThresholdMigrationPolicy final : public MigrationPolicy {
 public:
  ThresholdMigrationPolicy(double simple_threshold,
                           double migration_watermark);

  MigrationAction decide(const PolicyState& state) override;
  std::string_view name() const override { return "Threshold"; }

 private:
  double simple_threshold_;
  double migration_watermark_;
};

/// The policy an agent built from `config` consults:
/// config.policy_instance when set (how learned policies are injected),
/// otherwise a ThresholdMigrationPolicy over config.simple_threshold and
/// config.migration_watermark. Never null.
std::shared_ptr<MigrationPolicy> make_migration_policy(
    const HermesConfig& config);

}  // namespace hermes::core
