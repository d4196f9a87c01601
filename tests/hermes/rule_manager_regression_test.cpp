// Regression tests for two Rule Manager bookkeeping bugs:
//
//  1. run_migration trusted the migration batch blindly — it validated
//     `result.inserted == batch.size()` only with an assert (compiled out
//     in release builds) and then indexed and rebound EVERY planned piece.
//     A partially-applied batch left the agent's bookkeeping claiming
//     pieces the ASIC never accepted: lookups for the "migrated" rule
//     went dark and the overlap index diverged from the hardware.
//
//  2. `pieces_saved_by_merge` was credited during PLANNING, so a rule
//     whose optimized form never landed (skipped for lack of main-table
//     space) still inflated the optimizer-savings stat.
//
// Mid-batch failures are injected by pre-inserting a rule directly into
// the main ASIC slice whose id collides with a piece id the next
// migration will allocate (RuleStore::piece_id(mint, logical id), with
// the agent's mints sequential from 1).
#include <gtest/gtest.h>

#include "hermes/hermes_agent.h"
#include "tcam/switch_model.h"

namespace hermes::core {

// White-box seam (friend of HermesAgent): stages table states that are
// unreachable through the public API, because every public mutation path
// eagerly repartitions and keeps the overlap index in sync.
struct AgentTestPeer {
  /// Drops a main-resident rule from the agent's overlap index while
  /// leaving the ASIC table untouched — simulates stale partition
  /// bookkeeping ahead of a migration plan.
  static void forget_main_rule(HermesAgent& agent, net::RuleId pid,
                               const net::Prefix& match) {
    agent.main_index_.erase(pid, match);
  }
};

namespace {

using net::Prefix;
using net::Rule;

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
  config.batched_migration = true;
  return config;
}

int port_at(HermesAgent& agent, Time now, std::string_view addr) {
  const net::Rule* hit =
      agent.lookup_ptr(now, *net::Ipv4Address::parse(addr));
  return hit ? hit->action.port : -1;
}

void poison_main(HermesAgent& agent, net::RuleId id) {
  // Disjoint from every test prefix so it never influences partitioning;
  // only its id matters (duplicate-id insert rejection mid-batch).
  ASSERT_TRUE(agent.asic()
                  .apply(kMainSlice, {net::FlowModType::kInsert,
                                      make_rule(id, 99, "192.168.0.0/16", 9)})
                  .ok);
}

TEST(MigrationFailure, RejectedPieceIsNotIndexedOrRebound) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.insert(0, make_rule(1, 10, "10.0.0.0/8", 1));
  ASSERT_EQ(agent.shadow_occupancy(), 1);
  // The (unpartitioned) rule kept controller id 1 in the shadow table, so
  // the migration will allocate mint 1 for its fresh main piece.
  poison_main(agent, RuleStore::piece_id(1, 1));

  agent.migrate_now(from_millis(1));

  // The batch was rejected outright: nothing migrated, the failure is
  // surfaced, and the rule still serves traffic from the shadow table.
  EXPECT_EQ(agent.stats().rules_migrated, 0u);
  EXPECT_EQ(agent.stats().migration_piece_failures, 1u);
  EXPECT_EQ(agent.stats().migration_rollbacks, 0u);
  EXPECT_EQ(agent.main_occupancy(), 1);  // just the poison entry
  EXPECT_EQ(agent.shadow_occupancy(), 1);
  ASSERT_NE(agent.store().find(1), nullptr);
  EXPECT_EQ(agent.store().find(1)->placement, Placement::kShadow);
  EXPECT_EQ(port_at(agent, from_millis(1), "10.1.2.3"), 1);
}

TEST(MigrationFailure, PrefixOfBatchLandsRestStaysInShadow) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  // Plan order is by descending priority: R1's piece gets mint 1, R2's
  // gets mint 2 — poison the latter so the batch stops after R1.
  agent.insert(0, make_rule(1, 20, "10.0.0.0/8", 1));
  agent.insert(0, make_rule(2, 10, "11.0.0.0/8", 2));
  poison_main(agent, RuleStore::piece_id(2, 2));

  agent.migrate_now(from_millis(1));

  EXPECT_EQ(agent.stats().rules_migrated, 1u);
  EXPECT_EQ(agent.stats().migration_piece_failures, 1u);
  ASSERT_NE(agent.store().find(1), nullptr);
  ASSERT_NE(agent.store().find(2), nullptr);
  EXPECT_EQ(agent.store().find(1)->placement, Placement::kMain);
  EXPECT_EQ(agent.store().find(2)->placement, Placement::kShadow);
  // Both rules keep serving traffic, from their respective tables.
  EXPECT_EQ(port_at(agent, from_millis(1), "10.1.2.3"), 1);
  EXPECT_EQ(port_at(agent, from_millis(1), "11.1.2.3"), 2);
}

TEST(MigrationFailure, LandedSiblingPiecesAreRolledBack) {
  // A two-piece rule whose SECOND piece is rejected: the first piece is
  // already resident in main and must be deleted back out, or the main
  // table would serve a partial (hole-ridden) version of the rule once
  // the shadow copy drains in a later migration.
  HermesConfig config = test_config();
  config.predicate = [](const net::Rule& r) { return r.id < 100; };
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);

  // Blocker (id >= 100 fails the predicate, so it lands in main) cuts the
  // shadow-bound rule into two pieces: mints 1 and 2.
  agent.insert(0, make_rule(200, 50, "10.64.0.0/10", 5));
  agent.insert(0, make_rule(1, 10, "10.0.0.0/8", 1));
  ASSERT_EQ(agent.shadow_occupancy(), 2);
  // The migration re-materializes both pieces with the NEXT two mints;
  // poison the second so exactly one sibling lands first.
  poison_main(agent, RuleStore::piece_id(4, 1));

  agent.migrate_now(from_millis(1));

  EXPECT_EQ(agent.stats().rules_migrated, 0u);
  EXPECT_EQ(agent.stats().migration_piece_failures, 1u);
  EXPECT_EQ(agent.stats().migration_rollbacks, 1u);
  // Main holds only the blocker and the poison entry — the landed sibling
  // was deleted back out.
  EXPECT_EQ(agent.main_occupancy(), 2);
  ASSERT_NE(agent.store().find(1), nullptr);
  EXPECT_EQ(agent.store().find(1)->placement, Placement::kShadow);
  // Full coverage of the /8 remains: inside and outside the blocker.
  EXPECT_EQ(port_at(agent, from_millis(1), "10.64.0.1"), 5);
  EXPECT_EQ(port_at(agent, from_millis(1), "10.1.2.3"), 1);
  EXPECT_EQ(port_at(agent, from_millis(1), "10.200.0.1"), 1);
}

TEST(MergeSavings, NotCountedForRulesThatFailToMigrate) {
  // Shadow rule with 2 physical pieces whose optimized (merged) form is 1
  // piece, but a full main table keeps it from migrating. The optimizer
  // savings must NOT be credited for the planned-but-unapplied merge.
  HermesConfig config = test_config();
  config.predicate = [](const net::Rule& r) { return r.id < 100; };
  config.shadow_capacity = 4;  // total 8 => main capacity 4
  HermesAgent agent(tcam::pica8_p3290(), 8, config);

  agent.insert(0, make_rule(200, 50, "10.64.0.0/10", 5));  // -> main
  agent.insert(0, make_rule(1, 10, "10.0.0.0/8", 1));      // -> shadow, cut
  ASSERT_NE(agent.store().find(1), nullptr);
  ASSERT_EQ(agent.store().find(1)->physical_ids.size(), 2u);
  // Fill main to capacity with disjoint rules.
  for (net::RuleId id = 201; id <= 203; ++id)
    agent.insert(0, make_rule(id, 40,
                              std::to_string(id - 190) + ".0.0.0/8", 7));
  ASSERT_EQ(agent.main_occupancy(), 4);

  // Stage stale bookkeeping: the planner no longer sees the blocker, so
  // it plans a 1-piece merged form (a saving of 1) for rule 1.
  AgentTestPeer::forget_main_rule(agent, 200,
                                  *Prefix::parse("10.64.0.0/10"));

  agent.migrate_now(from_millis(1));

  // No room in main: the rule stayed behind, so no savings were realized.
  EXPECT_EQ(agent.stats().rules_migrated, 0u);
  EXPECT_EQ(agent.stats().pieces_saved_by_merge, 0u);
  ASSERT_NE(agent.store().find(1), nullptr);
  EXPECT_EQ(agent.store().find(1)->placement, Placement::kShadow);
}

TEST(MergeSavings, CountedWhenTheMergedFormLands) {
  // Positive control for the test above: with main-table room, the same
  // staging migrates the rule as 1 merged piece and credits the saving.
  HermesConfig config = test_config();
  config.predicate = [](const net::Rule& r) { return r.id < 100; };
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);

  agent.insert(0, make_rule(200, 50, "10.64.0.0/10", 5));
  agent.insert(0, make_rule(1, 10, "10.0.0.0/8", 1));
  ASSERT_EQ(agent.store().find(1)->physical_ids.size(), 2u);
  AgentTestPeer::forget_main_rule(agent, 200,
                                  *Prefix::parse("10.64.0.0/10"));

  agent.migrate_now(from_millis(1));

  EXPECT_EQ(agent.stats().rules_migrated, 1u);
  EXPECT_EQ(agent.stats().pieces_saved_by_merge, 1u);
  ASSERT_NE(agent.store().find(1), nullptr);
  EXPECT_EQ(agent.store().find(1)->placement, Placement::kMain);
  EXPECT_EQ(agent.store().find(1)->physical_ids.size(), 1u);
}

}  // namespace
}  // namespace hermes::core
