// Regression for the ShadowSwitch flush prefix assumption: the batch
// insert reports a PREFIX of the flush batch as landed, and the flush
// erases exactly that prefix from the software tier. Under a
// write-failure fault plan the batch truncates at arbitrary points —
// no rule may ever end up in NEITHER tier, and the per-entry residency
// verification (cache.flush_orphans) must never fire.
#include <gtest/gtest.h>

#include "baselines/shadow_switch.h"
#include "fault/fault_plan.h"
#include "tcam/switch_model.h"

namespace hermes::baselines {
namespace {

using net::FlowMod;
using net::FlowModType;
using net::Prefix;
using net::Rule;

Rule flow_rule(net::RuleId id, int priority) {
  return Rule{id, priority,
              Prefix(net::Ipv4Address(0x0A000000u |
                                      static_cast<std::uint32_t>(id)),
                     32),
              net::forward_to(static_cast<int>(id % 16))};
}

void expect_no_rule_lost(ShadowSwitchBackend& sw, Time now, net::RuleId first,
                         net::RuleId last) {
  for (net::RuleId id = first; id <= last; ++id) {
    const Rule* hit = sw.lookup_ptr(
        now, net::Ipv4Address(0x0A000000u | static_cast<std::uint32_t>(id)));
    ASSERT_NE(hit, nullptr) << "rule " << id << " lost from BOTH tiers";
    EXPECT_EQ(hit->id, id);
  }
}

TEST(ShadowFlushFault, TruncatedFlushKeepsEveryRuleInSomeTier) {
  fault::FaultPlanConfig fc;
  fc.seed = 42;
  fc.default_slice.write_failure_prob = 0.4;
  fault::FaultPlan plan(fc);

  ShadowSwitchBackend sw(tcam::pica8_p3290(), 2000);
  sw.set_fault_plan(&plan);
  Time now = 0;
  for (net::RuleId id = 1; id <= 64; ++id) {
    now += from_micros(100);
    sw.handle(now, {FlowModType::kInsert,
                    flow_rule(id, static_cast<int>(id % 7))});
  }
  // Several flush rounds under 40% write failures: each one truncates at
  // a fault-chosen point and retries the rest on the next round.
  for (int round = 0; round < 10; ++round) {
    now += from_millis(20);
    sw.flush(now);
    EXPECT_EQ(sw.tcam_occupancy() + sw.software_resident(), 64);
    expect_no_rule_lost(sw, now, 1, 64);
  }
  EXPECT_EQ(sw.hierarchy().flush_orphans(), 0u);
  EXPECT_TRUE(sw.asic().slice(0).check_invariant());
}

TEST(ShadowFlushFault, InterleavedChurnAndFaultyFlushes) {
  fault::FaultPlanConfig fc;
  fc.seed = 7;
  fc.default_slice.write_failure_prob = 0.3;
  fault::FaultPlan plan(fc);

  ShadowSwitchBackend sw(tcam::pica8_p3290(), 2000);
  sw.set_fault_plan(&plan);
  Time now = 0;
  net::RuleId next_id = 1;
  std::uint64_t state = 99;
  auto rng = [&] {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  };
  int live = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 8; ++i) {
      now += from_micros(100);
      sw.handle(now, {FlowModType::kInsert,
                      flow_rule(next_id++, static_cast<int>(rng() % 7))});
      ++live;
    }
    if (round % 3 == 2 && next_id > 4) {
      // Delete a rule from whatever tier it currently occupies.
      net::RuleId victim = 1 + rng() % (next_id - 1);
      // Read before the delete invalidates the pointer.
      const Rule* before = sw.lookup_ptr(
          now,
          net::Ipv4Address(0x0A000000u | static_cast<std::uint32_t>(victim)));
      const bool was_live = before != nullptr && before->id == victim;
      now += from_micros(100);
      sw.handle(now, {FlowModType::kDelete, Rule{victim, 0, {}, {}}});
      if (was_live) --live;
    }
    now += from_millis(20);
    sw.tick(now);
    ASSERT_EQ(sw.tcam_occupancy() + sw.software_resident(), live);
  }
  EXPECT_EQ(sw.hierarchy().flush_orphans(), 0u);
  EXPECT_TRUE(sw.asic().slice(0).check_invariant());
}

}  // namespace
}  // namespace hermes::baselines
