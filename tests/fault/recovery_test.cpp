// Recovery-path tests: HermesAgent retry/backoff on failed shadow
// writes, fall-through to main after exhaustion, Rule Manager
// migration requeue, post-reset reconciliation, and the baselines'
// inline retries — all under deterministic FaultPlans.
#include <gtest/gtest.h>

#include <string>

#include "baselines/plain_switch.h"
#include "fault/fault_plan.h"
#include "hermes/hermes_agent.h"
#include "net/flow_mod_batch.h"
#include "tcam/switch_model.h"

namespace hermes::core {
namespace {

using net::Prefix;
using net::Rule;

constexpr int kShadowSlice = 0;
constexpr int kMainSlice = 1;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(port)};
}

HermesConfig test_config() {
  HermesConfig config;
  config.guarantee = from_millis(5);
  config.token_rate = 1e9;
  config.token_burst = 1e9;
  config.lowest_priority_optimization = false;
  return config;
}

int port_at(HermesAgent& agent, Time now, std::string_view addr) {
  const net::Rule* hit =
      agent.lookup_ptr(now, *net::Ipv4Address::parse(addr));
  return hit ? hit->action.port : -1;
}

fault::FaultPlanConfig slice_probs(double shadow_prob, double main_prob) {
  fault::FaultPlanConfig fc;
  fc.seed = 0x5AFE;
  fc.slice_overrides.push_back(
      {kShadowSlice, fault::SliceFaults{shadow_prob, 0, 0}});
  fc.slice_overrides.push_back(
      {kMainSlice, fault::SliceFaults{main_prob, 0, 0}});
  return fc;
}

TEST(AgentRecovery, RetriesRecoverFlakyShadowWrites) {
  fault::FaultPlan plan(slice_probs(0.5, 0.0));
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.asic().set_fault_plan(&plan);

  const int n = 30;
  for (int i = 0; i < n; ++i) {
    agent.insert(i * from_millis(1),
                 make_rule(1 + i, 10, std::to_string(10 + i) + ".0.0.0/8",
                           i % 8));
  }
  // Every rule is installed: flaky writes were retried into the shadow,
  // and any retry-exhausted insert fell through to the (healthy) main.
  EXPECT_EQ(agent.stats().failed_ops, 0u);
  EXPECT_GT(agent.stats().retries, 0u);
  EXPECT_GT(plan.write_failures(), 0u);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(port_at(agent, n * from_millis(1),
                      std::to_string(10 + i) + ".0.0.1"),
              i % 8)
        << "rule " << 1 + i;
  }
}

TEST(AgentRecovery, ExhaustionFallsThroughToMain) {
  fault::FaultPlan plan(slice_probs(1.0, 0.0));  // shadow never accepts
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.asic().set_fault_plan(&plan);

  const std::uint64_t n = 5;
  for (std::uint64_t i = 0; i < n; ++i) {
    agent.insert(static_cast<Time>(i) * from_millis(1),
                 make_rule(1 + i, 10, std::to_string(10 + i) + ".0.0.0/8", 3));
  }
  // Each insert burned the full retry budget against the shadow, missed
  // its guarantee, and landed in main instead.
  EXPECT_EQ(agent.stats().retries,
            n * static_cast<std::uint64_t>(HermesAgent::kInsertRetryLimit));
  EXPECT_EQ(agent.stats().violations, n);
  EXPECT_EQ(agent.stats().failed_ops, 0u);
  EXPECT_EQ(agent.shadow_occupancy(), 0);
  EXPECT_EQ(agent.main_occupancy(), static_cast<int>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_NE(agent.store().find(1 + i), nullptr);
    EXPECT_EQ(agent.store().find(1 + i)->placement, Placement::kMain);
  }
  EXPECT_EQ(port_at(agent, static_cast<Time>(n) * from_millis(1), "10.1.2.3"),
            3);
}

TEST(AgentRecovery, BatchExhaustionFallsThroughAfterTheLastAttempt) {
  // The batched form of the test above: one shadow batch burns the whole
  // retry budget. Each rule's main-table fallback starts only once the
  // last failed attempt has completed, and its RIT runs from arrival —
  // the per-op path's semantics.
  fault::FaultPlan plan(slice_probs(1.0, 0.0));
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.asic().set_fault_plan(&plan);

  net::FlowModBatch batch;
  batch.insert(make_rule(1, 10, "10.0.0.0/8", 1));
  batch.insert(make_rule(2, 10, "11.0.0.0/8", 2));
  agent.handle_batch(0, batch);

  EXPECT_EQ(agent.stats().retries,
            static_cast<std::uint64_t>(HermesAgent::kInsertRetryLimit));
  EXPECT_EQ(agent.stats().violations, 2u);
  EXPECT_EQ(agent.shadow_occupancy(), 0);
  EXPECT_EQ(agent.main_occupancy(), 2);
  const Time gave_up = agent.asic().busy_until(kShadowSlice);
  ASSERT_EQ(agent.rit_samples().size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.result(i).status, net::ModStatus::kApplied);
    EXPECT_GE(batch.result(i).completion, gave_up) << "mod " << i;
    EXPECT_EQ(agent.rit_samples()[i], batch.result(i).completion)
        << "mod " << i;
  }
  EXPECT_EQ(port_at(agent, gave_up, "10.1.2.3"), 1);
  EXPECT_EQ(port_at(agent, gave_up, "11.1.2.3"), 2);
}

TEST(AgentRecovery, MigrationRequeuesAndLaterSucceeds) {
  fault::FaultPlan plan(slice_probs(0.0, 1.0));  // main rejects everything
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.asic().set_fault_plan(&plan);

  agent.insert(0, make_rule(1, 20, "10.0.0.0/8", 1));
  agent.insert(0, make_rule(2, 10, "11.0.0.0/8", 2));
  ASSERT_EQ(agent.shadow_occupancy(), 2);

  Time t = from_millis(1);
  agent.migrate_now(t);

  // The migration batch failed against main; instead of only rolling
  // back, the run was re-queued with backoff and the rules stayed
  // shadow-resident (still serving traffic).
  EXPECT_EQ(agent.stats().rules_migrated, 0u);
  EXPECT_GT(agent.stats().migration_piece_failures, 0u);
  EXPECT_EQ(agent.stats().migration_requeues, 1u);
  EXPECT_EQ(agent.store().find(1)->placement, Placement::kShadow);
  EXPECT_EQ(port_at(agent, t, "10.1.2.3"), 1);

  // The switch heals (detach the plan); the re-queued run fires on the
  // next tick past its backoff deadline and drains the shadow.
  agent.asic().set_fault_plan(nullptr);
  agent.tick(t + from_millis(100));
  EXPECT_GE(agent.stats().rules_migrated, 2u);
  EXPECT_EQ(agent.store().find(1)->placement, Placement::kMain);
  EXPECT_EQ(agent.store().find(2)->placement, Placement::kMain);
  EXPECT_EQ(agent.shadow_occupancy(), 0);
  EXPECT_EQ(port_at(agent, t + from_millis(100), "10.1.2.3"), 1);
  EXPECT_EQ(port_at(agent, t + from_millis(100), "11.1.2.3"), 2);
}

TEST(AgentRecovery, ReconcileAfterResetRestoresBothSlices) {
  fault::FaultPlanConfig fc;
  fc.seed = 3;
  fc.resets = {from_millis(50)};
  fault::FaultPlan plan(fc);
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.asic().set_fault_plan(&plan);

  // A main-resident blocker, a shadow rule it partitions (two pieces),
  // and a disjoint shadow rule.
  agent.insert(0, make_rule(1, 50, "10.64.0.0/10", 5));
  agent.migrate_now(from_millis(1));
  ASSERT_EQ(agent.store().find(1)->placement, Placement::kMain);
  agent.insert(from_millis(2), make_rule(2, 10, "10.0.0.0/8", 1));
  agent.insert(from_millis(3), make_rule(3, 10, "11.0.0.0/8", 2));
  ASSERT_EQ(agent.store().find(2)->physical_ids.size(), 2u);

  // The reset wipes the hardware at the next channel activity; the
  // agent notices the epoch change on its next tick and reinstalls
  // everything from the RuleStore via the batch path.
  agent.tick(from_millis(60));

  EXPECT_EQ(plan.resets_fired(), 1u);
  EXPECT_EQ(agent.stats().reconcile_runs, 1u);
  EXPECT_EQ(agent.stats().reconcile_rules_reinstalled, 3u);
  EXPECT_GE(agent.stats().reconcile_pieces_reinstalled, 4u);
  EXPECT_EQ(agent.stats().reconcile_rules_lost, 0u);
  // Placements survive and every rule serves traffic again.
  EXPECT_EQ(agent.store().find(1)->placement, Placement::kMain);
  EXPECT_EQ(agent.store().find(2)->placement, Placement::kShadow);
  EXPECT_EQ(agent.store().find(3)->placement, Placement::kShadow);
  EXPECT_EQ(port_at(agent, from_millis(60), "10.64.0.1"), 5);
  EXPECT_EQ(port_at(agent, from_millis(60), "10.1.2.3"), 1);
  EXPECT_EQ(port_at(agent, from_millis(60), "10.200.0.1"), 1);
  EXPECT_EQ(port_at(agent, from_millis(60), "11.1.2.3"), 2);

  // Reconciliation leaves live state: later ops behave normally.
  agent.insert(from_millis(70), make_rule(4, 10, "12.0.0.0/8", 4));
  EXPECT_EQ(port_at(agent, from_millis(70), "12.1.2.3"), 4);
}

TEST(PlainRecovery, InlineRetriesLandFlakyInserts) {
  fault::FaultPlanConfig fc;
  fc.seed = 0xB0B;
  fc.default_slice.write_failure_prob = 0.3;
  fault::FaultPlan plan(fc);
  baselines::PlainSwitch sw(tcam::pica8_p3290(), 512);
  sw.set_fault_plan(&plan);

  const int n = 30;
  for (int i = 0; i < n; ++i) {
    sw.handle(i * from_millis(1),
              {net::FlowModType::kInsert,
               make_rule(1 + i, 10, std::to_string(10 + i) + ".0.0.0/8", 1)});
  }
  EXPECT_GT(plan.write_failures(), 0u);
  // Inline retries (no backoff) land all but pathologically unlucky
  // rules; at prob 0.3 and 3 retries the fixed seed loses none.
  EXPECT_GE(sw.occupancy(), n - 2);
}

TEST(PlainRecovery, PermanentFailureGivesUpAfterRetryBudget) {
  fault::FaultPlanConfig fc;
  fc.default_slice.write_failure_prob = 1.0;
  fault::FaultPlan plan(fc);
  baselines::PlainSwitch sw(tcam::pica8_p3290(), 512);
  sw.set_fault_plan(&plan);

  sw.handle(0, {net::FlowModType::kInsert,
                make_rule(1, 10, "10.0.0.0/8", 1)});
  EXPECT_EQ(sw.occupancy(), 0);
  // Original attempt + the bounded retry budget, nothing more.
  EXPECT_EQ(plan.write_failures(), 4u);
}

}  // namespace
}  // namespace hermes::core
