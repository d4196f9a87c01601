// Edge cases of the Hermes agent's correctness machinery: dependency
// chains across un-partitioning, deletion of migrated partitioned rules,
// redundant-rule materialization chains, and the Equation 2 admission
// contract.
#include <gtest/gtest.h>

#include <random>

#include "hermes/hermes_agent.h"
#include "tcam/switch_model.h"

namespace hermes::core {
namespace {

using net::Prefix;
using net::Rule;

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

TEST(AgentEdge, UnpartitionChainAcrossPriorityLevels) {
  // Three nested rules A (/26, prio 30) > B (/24, prio 20) > C (/16,
  // prio 10). B is cut against A; C is cut against both. Deleting A must
  // restore B's full /24 while keeping C cut against B; deleting B must
  // then restore C completely.
  HermesAgent agent(tcam::pica8_p3290(), 4000, test_config());
  agent.insert(0, make_rule(1, 30, "192.168.1.0/26", 1));
  agent.migrate_now(0);
  agent.insert(0, make_rule(2, 20, "192.168.1.0/24", 2));
  agent.migrate_now(0);
  agent.insert(0, make_rule(3, 10, "192.168.0.0/16", 3));
  agent.migrate_now(0);

  Time now = 0;
  EXPECT_EQ(port_at(agent, now, "192.168.1.5"), 1);     // A
  EXPECT_EQ(port_at(agent, now, "192.168.1.200"), 2);   // B's remainder
  EXPECT_EQ(port_at(agent, now, "192.168.7.1"), 3);     // C's remainder

  now = from_millis(1);
  agent.erase(now, 1);  // delete A
  EXPECT_EQ(port_at(agent, now, "192.168.1.5"), 2);     // B reclaims the /26
  EXPECT_EQ(port_at(agent, now, "192.168.7.1"), 3);
  EXPECT_EQ(port_at(agent, now, "192.168.1.200"), 2);

  now = from_millis(2);
  agent.erase(now, 2);  // delete B
  EXPECT_EQ(port_at(agent, now, "192.168.1.5"), 3);     // C reclaims everything
  EXPECT_EQ(port_at(agent, now, "192.168.1.200"), 3);
  EXPECT_EQ(port_at(agent, now, "10.1.1.1"), -1);

  now = from_millis(3);
  agent.erase(now, 3);
  EXPECT_EQ(port_at(agent, now, "192.168.1.5"), -1);
  EXPECT_EQ(agent.shadow_occupancy() + agent.main_occupancy(), 0);
}

TEST(AgentEdge, DeletePartitionedRuleAfterMigration) {
  // A rule partitioned in the shadow, migrated (pieces now in main), then
  // deleted: all pieces must disappear from the main table.
  HermesAgent agent(tcam::pica8_p3290(), 4000, test_config());
  agent.insert(0, make_rule(1, 30, "10.0.0.0/26", 1));
  agent.migrate_now(0);
  agent.insert(0, make_rule(2, 10, "10.0.0.0/24", 2));  // partitioned
  agent.migrate_now(from_millis(1));                    // pieces -> main
  ASSERT_EQ(agent.shadow_occupancy(), 0);
  ASSERT_GT(agent.main_occupancy(), 2);  // blocker + >1 pieces
  agent.erase(from_millis(2), 2);
  EXPECT_EQ(agent.main_occupancy(), 1);  // only the blocker remains
  EXPECT_EQ(port_at(agent, from_millis(2), "10.0.0.200"), -1);
  EXPECT_EQ(port_at(agent, from_millis(2), "10.0.0.5"), 1);
}

TEST(AgentEdge, RedundantRuleMaterializesAndCanBeDeleted) {
  HermesAgent agent(tcam::pica8_p3290(), 4000, test_config());
  agent.insert(0, make_rule(1, 30, "10.0.0.0/8", 1));
  agent.migrate_now(0);
  agent.insert(0, make_rule(2, 10, "10.1.0.0/16", 2));  // redundant
  EXPECT_EQ(agent.stats().redundant_inserts, 1u);
  // Deleting the still-immaterial redundant rule must be a clean no-op
  // on the tables but remove the logical record.
  agent.erase(from_millis(1), 2);
  EXPECT_FALSE(agent.store().contains(2));
  // Re-insert, materialize by deleting the blocker, then delete it.
  agent.insert(from_millis(2), make_rule(3, 10, "10.1.0.0/16", 3));
  agent.erase(from_millis(3), 1);
  EXPECT_EQ(port_at(agent, from_millis(3), "10.1.2.3"), 3);
  agent.erase(from_millis(4), 3);
  EXPECT_EQ(port_at(agent, from_millis(4), "10.1.2.3"), -1);
  EXPECT_EQ(agent.shadow_occupancy() + agent.main_occupancy(), 0);
}

TEST(AgentEdge, ChainedRedundancy) {
  // Redundant behind a blocker that is itself partitioned: deleting the
  // outer blocker materializes both layers correctly.
  HermesAgent agent(tcam::pica8_p3290(), 4000, test_config());
  agent.insert(0, make_rule(1, 40, "10.0.0.0/8", 1));
  agent.migrate_now(0);
  agent.insert(0, make_rule(2, 30, "10.1.0.0/16", 2));  // redundant under 1
  agent.insert(0, make_rule(3, 20, "10.1.1.0/24", 3));  // redundant under 1
  agent.erase(from_millis(1), 1);
  // Now 2 beats 3 inside 10.1.1.0/24 (higher priority).
  EXPECT_EQ(port_at(agent, from_millis(1), "10.1.1.9"), 2);
  EXPECT_EQ(port_at(agent, from_millis(1), "10.1.2.9"), 2);
  agent.erase(from_millis(2), 2);
  EXPECT_EQ(port_at(agent, from_millis(2), "10.1.1.9"), 3);
  EXPECT_EQ(port_at(agent, from_millis(2), "10.1.2.9"), -1);
}

TEST(AgentEdge, AdmittedRateIsSustainableWithoutViolations) {
  // The Equation 2 contract: a controller that stays at the advertised
  // burst rate never sees over-rate rejections or guarantee violations.
  HermesConfig config;
  config.guarantee = from_millis(5);
  HermesAgent agent(tcam::pica8_p3290(), 8192, config);
  double rate = agent.admitted_rate();
  ASSERT_GT(rate, 100);
  Duration gap = from_seconds(1.0 / (rate * 1.05));  // 5% above... inside
  gap = from_seconds(1.0 / (rate * 0.9));            // stay 10% under
  Time now = 0;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 2000; ++i) {
    Rule r{static_cast<net::RuleId>(i + 1),
           100 + static_cast<int>(rng() % 50),
           Prefix(net::Ipv4Address(0x0A000000u +
                                   (static_cast<std::uint32_t>(i) << 8)),
                  24),
           net::forward_to(1)};
    agent.insert(now, r);
    now += gap;
    agent.tick(now);
  }
  EXPECT_EQ(agent.gate_keeper().stats().over_rate, 0u);
  EXPECT_EQ(agent.stats().violations, 0u);
}

TEST(AgentEdge, BurstBeyondAdmittedRateFallsBackNotFails) {
  HermesConfig config;
  config.guarantee = from_millis(5);
  config.token_rate = 100;  // tiny contract
  config.token_burst = 10;
  HermesAgent agent(tcam::pica8_p3290(), 8192, config);
  Time now = 0;
  for (int i = 0; i < 200; ++i) {
    Rule r{static_cast<net::RuleId>(i + 1), 100 + i,
           Prefix(net::Ipv4Address(0x0A000000u +
                                   (static_cast<std::uint32_t>(i) << 8)),
                  24),
           net::forward_to(1)};
    agent.insert(now, r);  // all at t=0: way over-rate
  }
  // The first rule lands in the empty main table via the Section 4.2
  // shortcut (no token spent); 10 more are admitted (burst), the rest are
  // served best-effort via the main table.
  EXPECT_EQ(agent.gate_keeper().stats().lowest_priority, 1u);
  EXPECT_EQ(agent.gate_keeper().stats().guaranteed, 10u);
  EXPECT_EQ(agent.gate_keeper().stats().over_rate, 189u);
  EXPECT_EQ(agent.main_occupancy() + agent.shadow_occupancy(), 200);
  // Over-rate traffic is NOT a violation of the contract.
  EXPECT_EQ(agent.stats().violations, 0u);
}

TEST(AgentEdge, ModifyActionOnPartitionedRuleUpdatesAllPieces) {
  HermesAgent agent(tcam::pica8_p3290(), 4000, test_config());
  agent.insert(0, make_rule(1, 30, "10.0.0.0/26", 1));
  agent.migrate_now(0);
  agent.insert(0, make_rule(2, 10, "10.0.0.0/24", 2));  // pieces in shadow
  agent.modify(from_millis(1), make_rule(2, 10, "10.0.0.0/24", 9));
  EXPECT_EQ(port_at(agent, from_millis(1), "10.0.0.200"), 9);
  EXPECT_EQ(port_at(agent, from_millis(1), "10.0.0.128"), 9);
  EXPECT_EQ(port_at(agent, from_millis(1), "10.0.0.5"), 1);  // blocker kept
}

TEST(AgentEdge, EraseIsIdempotentOnTables) {
  HermesAgent agent(tcam::pica8_p3290(), 4000, test_config());
  agent.insert(0, make_rule(1, 10, "10.0.0.0/8", 1));
  agent.erase(from_millis(1), 1);
  agent.erase(from_millis(2), 1);  // second delete: failed op, no damage
  EXPECT_EQ(agent.stats().failed_ops, 1u);
  EXPECT_EQ(agent.shadow_occupancy() + agent.main_occupancy(), 0);
}

TEST(AgentEdge, StatsPiecesSavedByMergeAccumulates) {
  // A rule whose blocker disappears before migration: at migration time
  // re-partitioning produces FEWER pieces than installed, which the
  // optimizer counts as savings.
  HermesAgent agent(tcam::pica8_p3290(), 4000, test_config());
  agent.insert(0, make_rule(1, 30, "10.0.0.64/26", 1));
  agent.migrate_now(0);
  agent.insert(0, make_rule(2, 10, "10.0.0.0/24", 2));  // cut into pieces
  ASSERT_GT(agent.shadow_occupancy(), 1);
  agent.erase(from_millis(1), 1);  // blocker gone; un-partition restores
  agent.migrate_now(from_millis(2));
  EXPECT_EQ(agent.main_occupancy(), 1);  // single consolidated rule
  EXPECT_EQ(port_at(agent, from_millis(2), "10.0.0.70"), 2);
}

TEST(AgentEdge, LookupAcrossSlicesAfterPartialMigration) {
  // Some rules migrated, some still in shadow: the logical view stays
  // coherent.
  HermesConfig config = test_config();
  config.shadow_capacity = 64;
  HermesAgent agent(tcam::pica8_p3290(), 4000, config);
  for (int i = 0; i < 20; ++i)
    agent.insert(0, make_rule(static_cast<net::RuleId>(i + 1), 10 + i,
                              "10." + std::to_string(i) + ".0.0/16",
                              i + 1));
  agent.migrate_now(from_millis(1));
  for (int i = 20; i < 40; ++i)
    agent.insert(from_millis(2),
                 make_rule(static_cast<net::RuleId>(i + 1), 10 + i,
                           "10." + std::to_string(i) + ".0.0/16", i + 1));
  ASSERT_GT(agent.shadow_occupancy(), 0);
  ASSERT_GT(agent.main_occupancy(), 0);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(
        port_at(agent, from_millis(2), "10." + std::to_string(i) + ".1.1"),
        i + 1);
  }
}

TEST(AgentEdge, RepartitionIntoAFullShadowMovesTheRuleToMain) {
  // A full shadow cannot hold a rule's new cover next to its old one. When
  // a main insert cuts that rule, the rule moves to main instead of losing
  // the pieces the shadow would reject.
  HermesConfig config = test_config();
  config.shadow_capacity = 4;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  for (int i = 1; i <= 4; ++i)
    agent.insert(0, make_rule(static_cast<net::RuleId>(i), 10,
                              std::to_string(9 + i) + ".0.0.0/8", i));
  ASSERT_EQ(agent.shadow_occupancy(), agent.shadow_capacity());

  // The shadow is full, so this rule lands in main and cuts rule 1 in two.
  agent.insert(from_millis(1), make_rule(5, 50, "10.64.0.0/10", 5));
  ASSERT_EQ(agent.store().find(5)->placement, Placement::kMain);
  EXPECT_EQ(agent.store().find(1)->placement, Placement::kMain);
  EXPECT_EQ(agent.store().find(1)->physical_ids.size(), 2u);
  EXPECT_EQ(agent.shadow_occupancy(), 3);
  EXPECT_EQ(agent.stats().failed_ops, 0u);
  EXPECT_EQ(port_at(agent, from_millis(1), "10.1.2.3"), 1);
  EXPECT_EQ(port_at(agent, from_millis(1), "10.200.0.1"), 1);
  EXPECT_EQ(port_at(agent, from_millis(1), "10.64.0.1"), 5);
  for (int i = 2; i <= 4; ++i)
    EXPECT_EQ(
        port_at(agent, from_millis(1), std::to_string(9 + i) + ".1.2.3"), i);

  // The blocker was recorded: deleting it un-partitions rule 1 in main.
  agent.erase(from_millis(2), 5);
  EXPECT_EQ(agent.store().find(1)->physical_ids.size(), 1u);
  EXPECT_EQ(port_at(agent, from_millis(2), "10.64.0.1"), 1);
}

}  // namespace
}  // namespace hermes::core
