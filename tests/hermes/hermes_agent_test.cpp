#include "hermes/hermes_agent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>

#include "net/flow_mod_batch.h"
#include "tcam/switch_model.h"

namespace hermes::core {
namespace {

using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(port)};
}

HermesConfig test_config() {
  HermesConfig config;
  config.guarantee = from_millis(5);
  config.token_rate = 1e9;  // effectively unlimited unless a test says so
  config.token_burst = 1e9;
  return config;
}

const Rule* lookup_at(HermesAgent& agent, Time now, std::string_view addr) {
  return agent.lookup_ptr(now, *net::Ipv4Address::parse(addr));
}

TEST(HermesAgent, DerivesShadowSizeFromGuarantee) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  int shadow = agent.shadow_capacity();
  EXPECT_GT(shadow, 1);
  EXPECT_LT(shadow, 400);
  EXPECT_EQ(agent.main_capacity(), 2000 - shadow);
  // Shadow sizing must actually honor the guarantee.
  EXPECT_LE(tcam::pica8_p3290().insert_latency(shadow - 1), from_millis(5));
}

TEST(HermesAgent, ExplicitShadowCapacityWins) {
  HermesConfig config = test_config();
  config.shadow_capacity = 64;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  EXPECT_EQ(agent.shadow_capacity(), 64);
  EXPECT_NEAR(agent.tcam_overhead(), 64.0 / 2000.0, 1e-12);
}

TEST(HermesAgent, FirstRulesTakeLowestPriorityPathToMain) {
  // With an empty main table the Section 4.2 optimization routes the
  // first insert straight to main (free append).
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.insert(0, make_rule(1, 5, "10.0.0.0/8"));
  EXPECT_EQ(agent.main_occupancy(), 1);
  EXPECT_EQ(agent.shadow_occupancy(), 0);
  EXPECT_EQ(agent.stats().main_inserts, 1u);
}

TEST(HermesAgent, HigherPriorityRuleTakesGuaranteedPath) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.insert(0, make_rule(1, 5, "10.0.0.0/8"));       // main (lowest-prio)
  Time done = agent.insert(0, make_rule(2, 9, "11.0.0.0/8"));
  EXPECT_EQ(agent.shadow_occupancy(), 1);
  EXPECT_EQ(agent.stats().guaranteed_inserts, 1u);
  EXPECT_LE(done, from_millis(5));  // within the guarantee
}

TEST(HermesAgent, GuaranteedInsertLatencyBounded) {
  HermesAgent agent(tcam::dell_8132f(), 800, test_config());
  Time now = 0;
  // Ascending priorities: every insert is higher than everything before,
  // the worst case for a monolithic table.
  agent.insert(now, make_rule(1, 1, "10.0.0.0/8"));
  for (net::RuleId id = 2; id <= 40; ++id) {
    now += from_millis(10);
    Time done = agent.insert(
        now, make_rule(id, static_cast<int>(id), "10.0.0.0/8"));
    EXPECT_LE(done - now, from_millis(5)) << "rule " << id;
    agent.tick(now);
  }
  EXPECT_EQ(agent.stats().violations, 0u);
}

TEST(HermesAgent, Figure4EndToEnd) {
  // Higher-priority /26 in main, then a lower-priority /24 arrives. The
  // agent must partition it so lookups still prefer the /26.
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  agent.insert(0, make_rule(1, 10, "192.168.1.0/26", 1));
  agent.migrate_now(0);  // push it into the main table
  ASSERT_EQ(agent.main_occupancy(), 1);
  agent.insert(0, make_rule(2, 5, "192.168.1.0/24", 2));
  ASSERT_GE(agent.shadow_occupancy(), 2);  // partitioned pieces

  const Rule* hit = lookup_at(agent, 0, "192.168.1.5");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 1);  // the /26 must win
  hit = lookup_at(agent, 0, "192.168.1.200");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 2);  // outside the /26: /24 wins
}

TEST(HermesAgent, RedundantInsertIsDropped) {
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  agent.insert(0, make_rule(1, 10, "10.0.0.0/8", 1));
  agent.migrate_now(0);
  agent.insert(0, make_rule(2, 5, "10.1.0.0/16", 2));  // fully covered
  EXPECT_EQ(agent.stats().redundant_inserts, 1u);
  EXPECT_EQ(agent.shadow_occupancy(), 0);
  const Rule* hit = lookup_at(agent, 0, "10.1.2.3");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 1);
}

TEST(HermesAgent, DeleteBlockerUnpartitions) {
  // Figure 6: deleting the main rule must restore the partitioned rule's
  // full coverage.
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  agent.insert(0, make_rule(1, 10, "192.168.1.0/26", 1));
  agent.migrate_now(0);
  agent.insert(0, make_rule(2, 5, "192.168.1.0/24", 2));
  agent.erase(0, 1);  // delete the blocker
  EXPECT_GE(agent.stats().unpartitions, 1u);
  const Rule* hit = lookup_at(agent, 0, "192.168.1.5");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 2);  // /24 now owns the whole range
}

TEST(HermesAgent, DeleteBlockerMaterializesRedundantRule) {
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  agent.insert(0, make_rule(1, 10, "10.0.0.0/8", 1));
  agent.migrate_now(0);
  agent.insert(0, make_rule(2, 5, "10.1.0.0/16", 2));  // redundant
  EXPECT_FALSE(lookup_at(agent, 0, "10.1.9.9")->action.port == 2);
  agent.erase(0, 1);
  const Rule* hit = lookup_at(agent, 0, "10.1.9.9");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 2);  // materialized
  EXPECT_EQ(lookup_at(agent, 0, "10.2.0.1"), nullptr);
}

TEST(HermesAgent, MainInsertRepartitionsShadowResidents) {
  // Mirror of Figure 4: a lower-priority rule sits in the SHADOW table and
  // a higher-priority overlapping rule lands in MAIN afterwards (here via
  // the over-rate fallback). The shadow rule must be re-cut or its shadow
  // copy would mask the new higher-priority main rule.
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  config.token_rate = 0.001;  // one token, then everything is over-rate
  config.token_burst = 1;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  agent.insert(0, make_rule(1, 5, "192.168.0.0/16", 1));  // shadow (token)
  ASSERT_EQ(agent.shadow_occupancy(), 1);
  agent.insert(0, make_rule(2, 9, "192.168.2.0/24", 2));  // over-rate: main
  ASSERT_GE(agent.main_occupancy(), 1);
  EXPECT_GE(agent.stats().repartitions, 1u);
  const Rule* hit = lookup_at(agent, 0, "192.168.2.7");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 2);  // higher-priority main rule wins
  hit = lookup_at(agent, 0, "192.168.3.7");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 1);  // untouched remainder of the /16
}

// The shadow overlap scan re-cuts owners in the (address, length) order
// of their masked pieces and, on one prefix, highest priority first: B
// is re-cut before A although A arrived first, so B's new pieces carry
// the smaller mints (RuleStore::piece_id).
TEST(HermesAgent, SamePrefixShadowRulesRecutHighestPriorityFirst) {
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  config.predicate = [](const net::Rule& r) { return r.id < 100; };
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  agent.insert(0, make_rule(1, 3, "10.1.0.0/16", 1));  // A
  agent.insert(0, make_rule(2, 4, "10.1.0.0/16", 2));  // B
  ASSERT_EQ(agent.shadow_occupancy(), 2);
  agent.insert(0, make_rule(100, 9, "10.1.2.0/24", 9));  // main
  ASSERT_EQ(agent.store().find(100)->placement, Placement::kMain);
  EXPECT_EQ(agent.stats().repartitions, 2u);

  auto mints = [&](net::RuleId lid) {
    std::vector<net::RuleId> out;
    for (net::RuleId pid : agent.store().find(lid)->physical_ids) {
      EXPECT_EQ(RuleStore::owner_of(pid), lid);
      out.push_back(pid >> 32);
    }
    return out;
  };
  const std::vector<net::RuleId> a = mints(1);
  const std::vector<net::RuleId> b = mints(2);
  ASSERT_EQ(a.size(), 8u);
  ASSERT_EQ(b.size(), 8u);
  EXPECT_LT(*std::max_element(b.begin(), b.end()),
            *std::min_element(a.begin(), a.end()));
  EXPECT_EQ(lookup_at(agent, 0, "10.1.2.3")->action.port, 9);
  EXPECT_EQ(lookup_at(agent, 0, "10.1.3.3")->action.port, 2);
}

// Every shadow piece below the main rule's priority is a candidate for
// the cut, the lowest representable priority included.
TEST(HermesAgent, MainInsertRecutsAShadowRuleAtTheLowestPriority) {
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  config.predicate = [](const net::Rule& r) { return r.id < 100; };
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  agent.insert(0, make_rule(1, std::numeric_limits<int>::min(),
                            "10.0.0.0/8", 1));
  ASSERT_EQ(agent.shadow_occupancy(), 1);
  agent.insert(0, make_rule(100, 5, "10.1.0.0/16", 5));  // main
  EXPECT_EQ(agent.stats().repartitions, 1u);
  EXPECT_EQ(lookup_at(agent, 0, "10.1.2.3")->action.port, 5);
  EXPECT_EQ(lookup_at(agent, 0, "10.2.3.4")->action.port, 1);
}

TEST(HermesAgent, MigrationEmptiesShadowAndPreservesLookups) {
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  for (net::RuleId id = 1; id <= 20; ++id)
    agent.insert(0, make_rule(id, static_cast<int>(id),
                              "10." + std::to_string(id) + ".0.0/16",
                              static_cast<int>(id)));
  ASSERT_EQ(agent.shadow_occupancy(), 20);
  agent.migrate_now(from_millis(1));
  EXPECT_EQ(agent.shadow_occupancy(), 0);
  EXPECT_EQ(agent.main_occupancy(), 20);
  EXPECT_EQ(agent.stats().migrations, 1u);
  EXPECT_EQ(agent.stats().rules_migrated, 20u);
  for (net::RuleId id = 1; id <= 20; ++id) {
    const Rule* hit =
        lookup_at(agent, from_millis(1), "10." + std::to_string(id) + ".1.1");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->action.port, static_cast<int>(id));
  }
}

TEST(HermesAgent, PredictiveTickTriggersMigrationBeforeOverflow) {
  HermesConfig config = test_config();
  config.shadow_capacity = 32;
  config.epoch = from_millis(10);
  config.lowest_priority_optimization = false;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  Time now = 0;
  net::RuleId id = 1;
  // Steady stream: 10 rules per 10ms epoch (1000/s) against a 32-slot
  // shadow, spread across the epoch as a controller would send them.
  for (int epoch = 0; epoch < 40; ++epoch) {
    for (int k = 0; k < 10; ++k) {
      const net::RuleId rid = id++;
      agent.insert(now, make_rule(rid, static_cast<int>(rid % 50) + 1,
                                  "10.0.0.0/8"));
      now += from_millis(1);
    }
    agent.tick(now);
    ASSERT_LE(agent.shadow_occupancy(), 32);
  }
  EXPECT_GT(agent.stats().migrations, 2u);
  EXPECT_EQ(agent.stats().violations, 0u);
}

TEST(HermesAgent, SimpleThresholdModeMigratesOnOccupancy) {
  HermesConfig config = test_config();
  config.shadow_capacity = 10;
  config.simple_threshold = 0.5;
  config.epoch = from_millis(10);
  config.lowest_priority_optimization = false;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  for (net::RuleId id = 1; id <= 4; ++id)
    agent.insert(0, make_rule(id, 5, "10.0.0.0/8"));
  agent.tick(from_millis(10));
  EXPECT_EQ(agent.stats().migrations, 0u);  // 4 < 5 = 50% of 10
  agent.insert(from_millis(10), make_rule(9, 5, "10.0.0.0/8"));
  agent.tick(from_millis(20));
  EXPECT_EQ(agent.stats().migrations, 1u);
}

TEST(HermesAgent, ShadowOverflowCountsViolation) {
  HermesConfig config = test_config();
  config.shadow_capacity = 4;
  config.lowest_priority_optimization = false;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  for (net::RuleId id = 1; id <= 10; ++id)
    agent.insert(0, make_rule(id, 5, "10.0.0.0/8"));
  // 4 fit in the shadow; the rest spill into main as violations.
  EXPECT_EQ(agent.shadow_occupancy(), 4);
  EXPECT_EQ(agent.stats().violations, 6u);
  EXPECT_EQ(agent.main_occupancy(), 6);
}

TEST(HermesAgent, ActionOnlyModifyIsCheapAndCorrect) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.insert(0, make_rule(1, 5, "10.0.0.0/8", 1));
  Time start = from_millis(100);
  Time done = agent.modify(start, make_rule(1, 5, "10.0.0.0/8", 7));
  EXPECT_LE(done - start, from_millis(1));
  const Rule* hit = lookup_at(agent, done, "10.1.1.1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 7);
}

// An action-only modify leaves both overlap indexes alone, so a rule
// keeps its place among its prefix's rules. A, then B, share a prefix and
// a priority in main; A's action changes; C, lower and wider, is cut
// against the first of them in visit order, still A. (An index that
// re-appended A on the modify would cut C against B.) Deleting A then
// re-plans C against B: same cover, one no-op unpartition.
TEST(HermesAgent, ActionOnlyModifyKeepsOverlapOrder) {
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  agent.insert(0, make_rule(1, 10, "10.1.0.0/16", 1));  // A
  agent.insert(0, make_rule(2, 10, "10.1.0.0/16", 2));  // B
  agent.migrate_now(0);
  ASSERT_EQ(agent.main_occupancy(), 2);
  agent.modify(0, make_rule(1, 10, "10.1.0.0/16", 7));
  agent.insert(0, make_rule(3, 5, "10.0.0.0/8", 3));  // C
  ASSERT_EQ(agent.store().find(3)->placement, Placement::kShadow);
  EXPECT_EQ(agent.store().find(3)->cut_against,
            std::vector<net::RuleId>{1});
  EXPECT_EQ(lookup_at(agent, 0, "10.1.2.3")->action.port, 7);
  EXPECT_EQ(lookup_at(agent, 0, "10.2.3.4")->action.port, 3);

  agent.erase(0, 1);
  EXPECT_EQ(agent.stats().unpartitions, 1u);
  EXPECT_EQ(agent.store().find(3)->cut_against,
            std::vector<net::RuleId>{2});
  EXPECT_EQ(agent.shadow_occupancy(), 8);  // C's cover is unchanged
  EXPECT_EQ(lookup_at(agent, 0, "10.1.2.3")->action.port, 2);
  EXPECT_EQ(lookup_at(agent, 0, "10.2.3.4")->action.port, 3);
}

TEST(HermesAgent, PriorityModifyBecomesDeleteInsert) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.insert(0, make_rule(1, 5, "10.0.0.0/8", 1));
  std::uint64_t deletes_before = agent.stats().deletes;
  agent.modify(from_millis(1), make_rule(1, 9, "10.0.0.0/8", 1));
  EXPECT_EQ(agent.stats().deletes, deletes_before + 1);
  const Rule* hit = lookup_at(agent, from_millis(1), "10.1.1.1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 9);
}

TEST(HermesAgent, MatchModifyRepartitionsCorrectly) {
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);
  agent.insert(0, make_rule(1, 10, "192.168.1.0/26", 1));
  agent.migrate_now(0);
  agent.insert(0, make_rule(2, 5, "10.0.0.0/8", 2));
  // Move rule 2 onto the blocker's turf: it must get partitioned.
  agent.modify(from_millis(1), make_rule(2, 5, "192.168.1.0/24", 2));
  const Rule* hit = lookup_at(agent, from_millis(1), "192.168.1.5");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 1);
  hit = lookup_at(agent, from_millis(1), "192.168.1.200");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 2);
  EXPECT_EQ(lookup_at(agent, from_millis(1), "10.1.1.1"), nullptr);
}

TEST(HermesAgent, EraseMissingFails) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.erase(0, 42);
  EXPECT_EQ(agent.stats().failed_ops, 1u);
}

TEST(HermesAgent, ModifyMissingFails) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.modify(0, make_rule(42, 1, "10.0.0.0/8"));
  EXPECT_EQ(agent.stats().failed_ops, 1u);
}

TEST(HermesAgent, MainTableOverflowFailsTheOp) {
  // Total 8, shadow 2 -> main 6. Twelve disjoint priority-1 /32s: with
  // the lowest-priority optimization 6 append into main, 2 take the
  // shadow path once main is full, and the last 4 find both slices full.
  HermesConfig config = test_config();
  config.shadow_capacity = 2;
  HermesAgent agent(tcam::pica8_p3290(), 8, config);
  auto addr_of = [](net::RuleId id) {
    return net::Ipv4Address(0x0A000000u | static_cast<std::uint32_t>(id));
  };
  for (net::RuleId id = 1; id <= 12; ++id) {
    agent.insert(from_millis(static_cast<Time>(id)),
                 Rule{id, 1, Prefix(addr_of(id), 32),
                      net::forward_to(static_cast<int>(id))});
  }
  EXPECT_EQ(agent.stats().failed_ops, 4u);
  EXPECT_EQ(agent.store().size(), 8u);
  for (net::RuleId id = 1; id <= 8; ++id) {
    const Rule* hit = agent.lookup_ptr(from_millis(12), addr_of(id));
    ASSERT_NE(hit, nullptr) << "rule " << id;
    EXPECT_EQ(hit->id, id);
  }
  for (net::RuleId id = 9; id <= 12; ++id)
    EXPECT_EQ(agent.lookup_ptr(from_millis(12), addr_of(id)), nullptr)
        << "rule " << id;
}

// An unknown name must fail construction in every build type: the
// agent would otherwise run with a null estimator.
TEST(HermesAgent, UnknownPredictorNameThrows) {
  HermesConfig config = test_config();
  config.predictor = "NoSuchPredictor";
  EXPECT_THROW(HermesAgent(tcam::pica8_p3290(), 2000, config),
               std::invalid_argument);
}

TEST(HermesAgent, UnknownCorrectorNameThrows) {
  HermesConfig config = test_config();
  config.corrector = "NoSuchCorrector";
  EXPECT_THROW(HermesAgent(tcam::pica8_p3290(), 2000, config),
               std::invalid_argument);
}

TEST(HermesAgent, DuplicateInsertActsAsModify) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  agent.insert(0, make_rule(1, 5, "10.0.0.0/8", 1));
  agent.insert(from_millis(1), make_rule(1, 5, "10.0.0.0/8", 9));
  EXPECT_EQ(agent.stats().modifies, 1u);
  EXPECT_EQ(lookup_at(agent, from_millis(1), "10.1.1.1")->action.port, 9);
}

TEST(HermesAgent, RitSamplesRecorded) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  for (net::RuleId id = 1; id <= 5; ++id)
    agent.insert(0, make_rule(id, static_cast<int>(id), "10.0.0.0/8"));
  EXPECT_EQ(agent.rit_samples().size(), 5u);
  agent.clear_rit_samples();
  EXPECT_TRUE(agent.rit_samples().empty());
}

TEST(HermesAgent, StatsReferenceReadsLaterOperations) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  const AgentStats& stats = agent.stats();
  const GateKeeperStats& gate = agent.gate_keeper().stats();
  agent.insert(0, make_rule(1, 5, "10.0.0.0/8"));   // main (lowest-prio)
  agent.insert(0, make_rule(2, 9, "10.1.0.0/16"));  // guaranteed
  // No stats() call after the inserts: the references taken up front are
  // the counters themselves, not a snapshot.
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.main_inserts, 1u);
  EXPECT_EQ(stats.guaranteed_inserts, 1u);
  EXPECT_EQ(gate.lowest_priority, 1u);
  EXPECT_EQ(gate.guaranteed, 1u);
}

TEST(HermesAgent, Equation2RateIsPositiveAndFinite) {
  HermesAgent agent(tcam::pica8_p3290(), 2000, test_config());
  double rate = HermesAgent::derive_admitted_rate(
      tcam::pica8_p3290(), agent.shadow_capacity(), 1.5,
      agent.main_capacity() / 2);
  EXPECT_GT(rate, 0);
  EXPECT_LT(rate, 1e7);
  // More partitions per rule => lower supported rate (Equation 2).
  double rate_high_rp = HermesAgent::derive_admitted_rate(
      tcam::pica8_p3290(), agent.shadow_capacity(), 3.0,
      agent.main_capacity() / 2);
  EXPECT_LT(rate_high_rp, rate);
}

// --- The Section 4 guarantee, property-tested -------------------------------
//
// Whatever sequence of control-plane actions and migrations happens, the
// two tables must behave exactly like one monolithic table. The reference
// oracle keeps the logical rules and resolves lookups by highest priority
// (priorities are unique per rule so the oracle is deterministic).
//
// Each seed runs twice: once per-op, and once with every step sent as one
// handle_batch of 1-8 mixed mods, so partitioned multi-piece shadow
// batches face the same oracle.
struct OracleRun {
  std::uint64_t seed = 0;
  bool batched = false;
};

// The printed value names the run in ctest: the bare seed for per-op runs.
void PrintTo(const OracleRun& run, std::ostream* os) {
  *os << (run.batched ? "batched_" : "") << run.seed;
}

std::vector<OracleRun> oracle_runs() {
  std::vector<OracleRun> runs;
  for (bool batched : {false, true})
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
      runs.push_back({seed, batched});
  return runs;
}

class AgentEquivalence : public ::testing::TestWithParam<OracleRun> {};

TEST_P(AgentEquivalence, MatchesMonolithicOracle) {
  const OracleRun run = GetParam();
  std::mt19937_64 rng(run.seed);
  HermesConfig config = test_config();
  config.shadow_capacity = 48;
  config.epoch = from_millis(10);
  // Exercise both gate keeper paths.
  config.lowest_priority_optimization = (run.seed % 2) == 0;
  HermesAgent agent(tcam::pica8_p3290(), 4000, config);

  std::map<net::RuleId, Rule> reference;
  net::RuleId next_id = 1;
  int next_priority = 1;
  Time now = 0;

  auto check = [&](int samples) {
    for (int s = 0; s < samples; ++s) {
      net::Ipv4Address addr(static_cast<std::uint32_t>(rng()));
      const Rule* best = nullptr;
      for (const auto& [id, r] : reference) {
        if (!r.match.contains(addr)) continue;
        if (!best || r.priority > best->priority) best = &r;
      }
      const Rule* got = agent.lookup_ptr(now, addr);
      if (!best) {
        EXPECT_EQ(got, nullptr) << addr.to_string();
      } else {
        ASSERT_NE(got, nullptr) << addr.to_string();
        EXPECT_EQ(got->action.port, best->action.port)
            << addr.to_string() << " want rule " << best->id;
      }
    }
  };

  // One random control-plane action, applied to the reference at once.
  auto random_mod = [&]() -> net::FlowMod {
    int op = static_cast<int>(rng() % 10);
    if (op < 6 || reference.empty()) {
      // Insert: short prefixes make overlap (and partitioning) common.
      Rule r{next_id++, next_priority++,
             Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                    static_cast<int>(rng() % 12)),
             net::forward_to(static_cast<int>(rng() % 1000))};
      reference.emplace(r.id, r);
      return {net::FlowModType::kInsert, r};
    }
    auto it = reference.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng() % reference.size()));
    if (op < 8) {
      net::FlowMod del{net::FlowModType::kDelete, Rule{it->first, 0, {}, {}}};
      reference.erase(it);
      return del;
    }
    Rule updated = it->second;
    if (rng() % 2 == 0) {
      updated.action = net::forward_to(static_cast<int>(rng() % 1000));
    } else {
      updated.match =
          Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                 static_cast<int>(rng() % 12));
      updated.priority = next_priority++;
    }
    it->second = updated;
    return {net::FlowModType::kModify, updated};
  };

  for (int step = 0; step < 500; ++step) {
    now += from_micros(500);
    if (run.batched) {
      net::FlowModBatch batch;
      const int mods = 1 + static_cast<int>(rng() % 8);
      for (int m = 0; m < mods; ++m) batch.push(random_mod());
      agent.handle_batch(now, batch);
    } else {
      agent.handle(now, random_mod());
    }
    agent.tick(now);
    if (step % 25 == 0) check(40);
    ASSERT_LE(agent.shadow_occupancy(), agent.shadow_capacity());
  }
  // Force a final migration and re-verify.
  agent.migrate_now(now);
  check(400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgentEquivalence,
                         ::testing::ValuesIn(oracle_runs()));

}  // namespace
}  // namespace hermes::core
