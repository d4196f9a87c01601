// The MigrationPolicy seam must be a pure refactor of the legacy
// trigger: ThresholdMigrationPolicy's decisions reproduce
// HermesAgent::migration_due() bit-for-bit on live agent state, a
// default-configured agent behaves identically to one with an explicit
// Threshold policy_instance, and the new actions (migrate-small,
// expand-partition) obey their documented bounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "hermes/hermes_agent.h"
#include "hermes/migration_policy.h"
#include "tcam/switch_model.h"

namespace hermes::core {

// White-box seam (friend of HermesAgent) for the policy plumbing: the
// per-epoch PolicyState snapshot, the legacy trigger, and direct action
// application are all private by design.
struct AgentTestPeer {
  static PolicyState policy_state(const HermesAgent& agent, Time now) {
    return agent.policy_state(now);
  }
  static bool migration_due(const HermesAgent& agent) {
    return agent.migration_due();
  }
  static void apply(HermesAgent& agent, MigrationAction action, Time now) {
    agent.apply_policy_action(action, now);
  }
  static int expand_step(const HermesAgent& agent) {
    return agent.expand_step_;
  }
};

namespace {

using net::Prefix;
using net::Rule;

// splitmix64 finalizer: deterministic stream for the property drive.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rule make_rule(net::RuleId id, int priority, std::uint32_t addr,
               int length) {
  return Rule{id, priority, Prefix(net::Ipv4Address(addr), length),
              net::forward_to(static_cast<int>(id % 16))};
}

HermesConfig test_config() {
  HermesConfig config;
  config.shadow_capacity = 16;
  config.epoch = from_millis(10);
  config.token_rate = 1e9;
  config.token_burst = 1e9;
  return config;
}

std::shared_ptr<ThresholdMigrationPolicy> threshold_of(
    const HermesConfig& config) {
  return std::make_shared<ThresholdMigrationPolicy>(
      config.simple_threshold, config.migration_watermark);
}

// Drives `agent` with a deterministic bursty insert stream; calls
// `probe` just before each tick.
template <typename Probe>
void drive(HermesAgent& agent, std::uint64_t seed, int events,
           Probe&& probe) {
  Time now = 0;
  net::RuleId id = 1;
  for (int i = 0; i < events; ++i) {
    std::uint64_t h = mix(seed ^ mix(static_cast<std::uint64_t>(i)));
    bool burst = (h & 7) == 0;
    int count = burst ? static_cast<int>(1 + (h >> 8) % 20) : 1;
    for (int k = 0; k < count; ++k) {
      std::uint32_t addr = static_cast<std::uint32_t>(
          mix(h + static_cast<std::uint64_t>(k)) & 0xffffff00u);
      agent.insert(now, make_rule(id, static_cast<int>(1 + (h >> 3) % 30),
                                  (10u << 24) | (addr >> 8), 32));
      ++id;
      now += from_micros(200);
    }
    now += from_micros(500 + (h >> 16) % 5000);
    probe(now);
    agent.tick(now);
  }
}

// Property: on every pre-tick agent state, the refactored
// ThresholdMigrationPolicy decides exactly what migration_due() says —
// kMigrateLarge when due, kHold otherwise.
TEST(ThresholdPolicy, MatchesLegacyTriggerOnLiveState) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    HermesConfig config = test_config();
    HermesAgent agent(tcam::pica8_p3290(), 1024, config);
    auto policy = threshold_of(config);
    int checked = 0;
    int due = 0;
    drive(agent, seed, 120, [&](Time now) {
      bool legacy = AgentTestPeer::migration_due(agent);
      MigrationAction action =
          policy->decide(AgentTestPeer::policy_state(agent, now));
      ASSERT_EQ(action, legacy ? MigrationAction::kMigrateLarge
                               : MigrationAction::kHold)
          << "seed " << seed << " at t=" << now;
      ++checked;
      due += legacy ? 1 : 0;
    });
    // The stream must exercise both branches for the property to mean
    // anything.
    EXPECT_GT(due, 0) << "seed " << seed;
    EXPECT_LT(due, checked) << "seed " << seed;
  }
}

// Hermes-SIMPLE configs take the same seam; the plain occupancy
// threshold must survive the refactor too.
TEST(ThresholdPolicy, MatchesSimpleThreshold) {
  HermesConfig config = test_config();
  config.simple_threshold = 0.5;
  HermesAgent agent(tcam::pica8_p3290(), 1024, config);
  auto policy = threshold_of(config);
  drive(agent, 3, 80, [&](Time now) {
    ASSERT_EQ(policy->decide(AgentTestPeer::policy_state(agent, now)),
              AgentTestPeer::migration_due(agent)
                  ? MigrationAction::kMigrateLarge
                  : MigrationAction::kHold);
  });
}

// A default-configured agent (no policy_instance) and one explicitly
// given the Threshold policy must produce identical externally visible
// behavior over a whole run: the refactor is behavior-preserving.
TEST(ThresholdPolicy, ExplicitInstanceIsBitIdenticalToDefault) {
  HermesConfig plain = test_config();
  HermesConfig wired = test_config();
  wired.policy_instance = threshold_of(plain);

  HermesAgent a(tcam::pica8_p3290(), 1024, plain);
  HermesAgent b(tcam::pica8_p3290(), 1024, wired);
  drive(a, 11, 100, [](Time) {});
  drive(b, 11, 100, [](Time) {});

  const AgentStats& sa = a.stats();
  const AgentStats& sb = b.stats();
  EXPECT_EQ(sa.inserts, sb.inserts);
  EXPECT_EQ(sa.guaranteed_inserts, sb.guaranteed_inserts);
  EXPECT_EQ(sa.main_inserts, sb.main_inserts);
  EXPECT_EQ(sa.migrations, sb.migrations);
  EXPECT_EQ(sa.rules_migrated, sb.rules_migrated);
  EXPECT_EQ(sa.pieces_migrated, sb.pieces_migrated);
  EXPECT_EQ(sa.violations, sb.violations);
  EXPECT_EQ(a.shadow_occupancy(), b.shadow_occupancy());
  EXPECT_EQ(a.shadow_capacity(), b.shadow_capacity());
}

// The action tests need every insert on the shadow path: disable the
// lowest-priority append (which would route the first rule of an
// ascending-priority stream straight to main) and give each rule a
// distinct /32 so same-match redundancy cannot swallow occupancy.
HermesConfig action_config() {
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  return config;
}

// Migrate-small drains only the top half of the shadow (by priority),
// leaving the rest resident.
TEST(PolicyActions, MigrateSmallDrainsHalf) {
  HermesConfig config = action_config();
  HermesAgent agent(tcam::pica8_p3290(), 1024, config);
  for (net::RuleId id = 1; id <= 8; ++id)
    agent.insert(0, make_rule(id, static_cast<int>(id),
                              (10u << 24) + static_cast<std::uint32_t>(id),
                              32));
  ASSERT_EQ(agent.shadow_occupancy(), 8);

  AgentTestPeer::apply(agent, MigrationAction::kMigrateSmall,
                       from_millis(1));
  EXPECT_EQ(agent.shadow_occupancy(), 4);

  AgentTestPeer::apply(agent, MigrationAction::kMigrateLarge,
                       from_millis(2));
  EXPECT_EQ(agent.shadow_occupancy(), 0);
  EXPECT_EQ(agent.stats().rules_migrated, 8u);
}

// Migrate-small among equal-priority shadow rules takes the lowest ids,
// whatever order the rules arrived in: the migration order is total
// (priority descending, then logical id ascending), not hash order.
TEST(PolicyActions, MigrateSmallBreaksPriorityTiesByLowestId) {
  HermesConfig config = action_config();
  HermesAgent agent(tcam::pica8_p3290(), 1024, config);
  for (net::RuleId id : {6u, 2u, 8u, 1u, 7u, 3u, 5u, 4u})
    agent.insert(0, make_rule(id, 5,
                              (10u << 24) + static_cast<std::uint32_t>(id),
                              32));
  ASSERT_EQ(agent.shadow_occupancy(), 8);

  AgentTestPeer::apply(agent, MigrationAction::kMigrateSmall,
                       from_millis(1));
  for (net::RuleId id = 1; id <= 8; ++id) {
    ASSERT_NE(agent.store().find(id), nullptr);
    EXPECT_EQ(agent.store().find(id)->placement,
              id <= 4 ? Placement::kMain : Placement::kShadow)
        << "rule " << id;
  }
}

// Expand-partition is a bounded ratchet: each application grows the
// shadow slice by one step until twice the initial carve, then the
// action degrades to a plain full drain. It also always drains.
TEST(PolicyActions, ExpandPartitionIsBoundedAndDrains) {
  HermesConfig config = action_config();
  HermesAgent agent(tcam::pica8_p3290(), 1024, config);
  const int initial = agent.shadow_capacity();
  const int step = AgentTestPeer::expand_step(agent);
  ASSERT_GT(step, 0);

  agent.insert(0, make_rule(1, 5, (10u << 24) + 1, 32));
  ASSERT_EQ(agent.shadow_occupancy(), 1);

  Time now = from_millis(1);
  AgentTestPeer::apply(agent, MigrationAction::kExpandPartition, now);
  EXPECT_EQ(agent.shadow_capacity(), initial + step);
  EXPECT_EQ(agent.shadow_occupancy(), 0);  // composite: it drained too

  for (int i = 0; i < 64; ++i) {
    now += from_millis(1);
    AgentTestPeer::apply(agent, MigrationAction::kExpandPartition, now);
  }
  EXPECT_LE(agent.shadow_capacity(), 2 * initial);
  EXPECT_EQ(agent.shadow_capacity(), 2 * initial);
}

// Hold is a true no-op on the shadow table.
TEST(PolicyActions, HoldLeavesShadowAlone) {
  HermesConfig config = action_config();
  HermesAgent agent(tcam::pica8_p3290(), 1024, config);
  for (net::RuleId id = 1; id <= 5; ++id)
    agent.insert(0, make_rule(id, static_cast<int>(id),
                              (10u << 24) + static_cast<std::uint32_t>(id),
                              32));
  AgentTestPeer::apply(agent, MigrationAction::kHold, from_millis(1));
  EXPECT_EQ(agent.shadow_occupancy(), 5);
  EXPECT_EQ(agent.stats().migrations, 0u);
}

// The factory defaults to the threshold policy and honors policy_instance.
TEST(PolicyFactory, ResolvesThresholdAndInstanceWins) {
  HermesConfig config = test_config();
  auto by_default = make_migration_policy(config);
  ASSERT_NE(by_default, nullptr);
  EXPECT_EQ(by_default->name(), "Threshold");

  auto instance = threshold_of(config);
  config.policy_instance = instance;
  EXPECT_EQ(make_migration_policy(config), instance);
}

}  // namespace
}  // namespace hermes::core
