// Configuration for one Hermes-managed switch.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "net/rule.h"
#include "net/time.h"

namespace hermes::core {

class MigrationPolicy;  // migration_policy.h

/// Predicate selecting which rules receive the performance guarantee
/// (the `match-predicate` argument of CreateTCAMQoS, Section 7).
using RulePredicate = std::function<bool(const net::Rule&)>;

/// Predicate helpers.
RulePredicate match_all();
RulePredicate match_prefix_within(net::Prefix scope);
RulePredicate match_priority_at_least(int min_priority);

struct HermesConfig {
  /// The requested insertion guarantee (Section 7); shadow sizing derives
  /// from it when shadow_capacity == 0.
  Duration guarantee = from_millis(5);

  /// Explicit shadow-table size; 0 = derive from `guarantee` by inverting
  /// the switch latency model.
  int shadow_capacity = 0;

  /// Token-bucket admission rate (inserts/s) the guarantee covers; 0 =
  /// derive from Equation 2. Burst defaults to the shadow capacity.
  double token_rate = 0.0;
  double token_burst = 0.0;

  /// Prediction setup (Section 5.1). Defaults are the paper's final
  /// configuration: Cubic Spline with 100% Slack (Section 8.6).
  std::string predictor = "CubicSpline";
  std::string corrector = "Slack";
  double corrector_param = 1.0;

  /// Prediction/migration epoch: the Rule Manager closes an arrival-count
  /// sample and re-evaluates the migration trigger once per epoch. At the
  /// paper's 200-1000 upd/s rates a 25 ms epoch keeps per-epoch arrivals
  /// comparable to the shadow watermark, which is what makes the
  /// slack-inflated forecast a meaningful early-migration signal.
  Duration epoch = from_millis(25);

  /// Section 4.2: route lowest-priority rules straight to the main table
  /// (they append without shifting and partition the worst).
  bool lowest_priority_optimization = true;

  /// Which rules get guarantees; defaults to all.
  RulePredicate predicate;

  /// Disable the predictor and migrate only when occupancy crosses
  /// `simple_threshold` (fraction of shadow capacity) — the Hermes-SIMPLE
  /// baseline of Section 8.5. Negative = use the predictive trigger.
  double simple_threshold = -1.0;

  /// Migration-policy seam (migration_policy.h), the decision sibling of
  /// the predictor seam. When set, the agent consults this externally
  /// built policy (how the learned src/policy/ policies plug in, and how
  /// one policy is shared across training episodes); when null it uses
  /// ThresholdMigrationPolicy(simple_threshold, migration_watermark).
  /// Mirrors the RulePredicate precedent of holding behavior in config.
  std::shared_ptr<MigrationPolicy> policy_instance;

  // --- Ablation knobs (defaults = the full Hermes design) -----------------

  /// Shadow operating watermark: the predictive trigger fires when
  /// occupancy + corrected forecast crosses this fraction of the shadow
  /// capacity. Lower = emptier shadow = cheaper inserts, more migrations.
  double migration_watermark = 0.5;

  /// Migrate with one optimized batch write (Section 5.2's step-2
  /// optimizers); false = naive rule-by-rule reinsertion into main.
  bool batched_migration = true;
};

}  // namespace hermes::core
