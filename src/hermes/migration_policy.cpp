#include "hermes/migration_policy.h"

namespace hermes::core {

ThresholdMigrationPolicy::ThresholdMigrationPolicy(double simple_threshold,
                                                   double migration_watermark)
    : simple_threshold_(simple_threshold),
      migration_watermark_(migration_watermark) {}

MigrationAction ThresholdMigrationPolicy::decide(const PolicyState& state) {
  // Keep the comparison order and arithmetic EXACTLY as the legacy
  // HermesAgent::migration_due() so replayed traces stay bit-identical
  // (tests/hermes/migration_policy_test.cpp holds the two against each
  // other on every consulted epoch).
  if (state.shadow_occupancy == 0) return MigrationAction::kHold;
  double capacity = static_cast<double>(state.shadow_capacity);
  if (simple_threshold_ >= 0) {
    // Hermes-SIMPLE (Section 8.5): plain occupancy threshold.
    return static_cast<double>(state.shadow_occupancy) >=
                   simple_threshold_ * capacity
               ? MigrationAction::kMigrateLarge
               : MigrationAction::kHold;
  }
  // Predictive trigger (Section 5.1): migrate when the corrected
  // forecast would push the shadow past its operating watermark.
  return static_cast<double>(state.shadow_occupancy) + state.predicted_next >=
                 migration_watermark_ * capacity
             ? MigrationAction::kMigrateLarge
             : MigrationAction::kHold;
}

std::shared_ptr<MigrationPolicy> make_migration_policy(
    const HermesConfig& config) {
  if (config.policy_instance) return config.policy_instance;
  return std::make_shared<ThresholdMigrationPolicy>(
      config.simple_threshold, config.migration_watermark);
}

}  // namespace hermes::core
