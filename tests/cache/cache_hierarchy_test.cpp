#include "cache/cache_hierarchy.h"

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "tcam/switch_model.h"

namespace hermes::cache {
namespace {

using net::FlowMod;
using net::FlowModType;
using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(port)};
}

CacheConfig cache_config(PolicyKind policy = PolicyKind::kFdrc) {
  CacheConfig c;
  c.policy = policy;
  c.verify_lookups = true;
  return c;
}

net::Ipv4Address addr_of(std::string_view text) {
  return *net::Ipv4Address::parse(text);
}

/// Drives the FDRC admission filter past its threshold: two miss-path
/// classifications make a rule promotable under every policy.
void touch(CacheHierarchy& h, Time now, net::Ipv4Address addr,
           int times = 2) {
  for (int i = 0; i < times; ++i) h.classify(now, addr);
}

TEST(CacheHierarchy, SoftwareTierIsInclusiveAndUnbounded) {
  CacheHierarchy h(tcam::pica8_p3290(), 4, cache_config());
  for (net::RuleId id = 1; id <= 100; ++id)
    h.handle(0, {FlowModType::kInsert,
                 Rule{id, 5, Prefix(net::Ipv4Address(
                                        static_cast<std::uint32_t>(id) << 8),
                                    32),
                      net::forward_to(1)}});
  EXPECT_EQ(h.total_rules(), 100u);
  EXPECT_EQ(h.software_resident(), 100);  // nothing promoted yet
  EXPECT_EQ(h.tcam_occupancy(), 0);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, PopularFlowIsPromotedAndHitsTcam) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.0.0.1/32", 7)});

  auto first = h.classify(0, addr_of("10.0.0.1"));
  ASSERT_NE(first.rule, nullptr);
  EXPECT_FALSE(first.tcam_hit);
  EXPECT_EQ(first.latency, CacheHierarchy::kSoftwareLatency);

  touch(h, 0, addr_of("10.0.0.1"));
  h.tick(from_millis(1));

  auto hit = h.classify(from_millis(1), addr_of("10.0.0.1"));
  ASSERT_NE(hit.rule, nullptr);
  EXPECT_TRUE(hit.tcam_hit);
  EXPECT_EQ(hit.latency, 0);
  EXPECT_EQ(hit.rule->action.port, 7);
  EXPECT_GE(h.promotions(), 1u);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, PromotionDragsDependencyClosureAlong) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  // The /16 is popular; the /32 inside it has HIGHER priority but no
  // traffic. Promoting the /16 alone would let a TCAM hit mask the /32.
  h.handle(0, {FlowModType::kInsert, make_rule(1, 4, "10.1.0.0/16", 1)});
  h.handle(0, {FlowModType::kInsert, make_rule(2, 9, "10.1.0.9/32", 2)});

  touch(h, 0, addr_of("10.1.5.5"));  // matches only the /16
  h.tick(from_millis(1));

  // Both must be TCAM-resident (or neither): the high-priority /32 wins
  // its own address, from the TCAM.
  auto res = h.classify(from_millis(1), addr_of("10.1.0.9"));
  ASSERT_NE(res.rule, nullptr);
  EXPECT_EQ(res.rule->id, 2u);
  EXPECT_EQ(h.tcam_occupancy(), 2);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, OversizedClosureAbortsPromotion) {
  CacheHierarchy h(tcam::pica8_p3290(), 64, cache_config());
  // A wide low-priority rule overlapped by more higher-priority /32s
  // than the closure limit allows.
  h.handle(0, {FlowModType::kInsert, make_rule(1, 1, "10.0.0.0/8", 1)});
  const auto last = static_cast<net::RuleId>(CacheHierarchy::kClosureLimit) + 1;
  for (net::RuleId id = 2; id <= last; ++id) {
    std::string p = "10.0.0." + std::to_string(id) + "/32";
    h.handle(0, {FlowModType::kInsert,
                 make_rule(id, 9, p, static_cast<int>(id))});
  }
  touch(h, 0, addr_of("10.9.9.9"));  // matches only the /8
  h.tick(from_millis(1));
  EXPECT_GE(h.promotion_aborts(), 1u);
  EXPECT_EQ(h.tcam_occupancy(), 0);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

// The closure and cascade queries stop as soon as a set passes
// `kClosureLimit`; these four pin both sides of each stop.

/// A /8 at priority 1 plus `n` higher-priority /32s under it, then one
/// promotion attempt for the /8 (its closure is the /8 plus every /32).
void promote_wide_rule(CacheHierarchy& h, int n) {
  h.handle(0, {FlowModType::kInsert, make_rule(1, 1, "10.0.0.0/8", 1)});
  for (int i = 0; i < n; ++i)
    h.handle(0, {FlowModType::kInsert,
                 make_rule(static_cast<net::RuleId>(2 + i), 9,
                           "10.0.0." + std::to_string(2 + i) + "/32")});
  touch(h, 0, addr_of("10.9.9.9"));  // matches only the /8
  h.tick(from_millis(1));
}

TEST(CacheHierarchy, ClosureOfExactlyTheLimitIsInstalled) {
  CacheHierarchy h(tcam::pica8_p3290(), 64, cache_config());
  promote_wide_rule(h, CacheHierarchy::kClosureLimit - 1);
  EXPECT_EQ(h.promotion_aborts(), 0u);
  EXPECT_EQ(h.tcam_occupancy(), CacheHierarchy::kClosureLimit);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, ClosureOneOverTheLimitAborts) {
  CacheHierarchy h(tcam::pica8_p3290(), 64, cache_config());
  promote_wide_rule(h, CacheHierarchy::kClosureLimit);
  EXPECT_EQ(h.promotion_aborts(), 1u);
  EXPECT_EQ(h.tcam_occupancy(), 0);
  EXPECT_TRUE(h.check_invariant());
}

/// Under LRU, caches a /8 at priority 9 and then `n` lower-priority /32s
/// under it, oldest first, so the /8 is the LRU victim and its demotion
/// cascade is itself plus the `n` /32s. A shadowed /32 can only enter
/// the TCAM in the closure of a wider visible rule: each one rides in
/// with a default route that is then deleted. Then a two-rule closure
/// elsewhere needs one slot more than the TCAM (capacity n + 2) has.
void cascade_from_wide_victim(CacheHierarchy& h, int n) {
  h.handle(0, {FlowModType::kInsert, make_rule(1, 9, "10.0.0.0/8", 1)});
  touch(h, 0, addr_of("10.9.9.9"));
  h.tick(0);
  net::RuleId next = 2;
  for (int i = 0; i < n; ++i) {
    h.handle(0, {FlowModType::kInsert,
                 make_rule(next++, 5,
                           "10.0.0." + std::to_string(2 + i) + "/32")});
    const net::RuleId route = next++;
    h.handle(0, {FlowModType::kInsert, make_rule(route, 1, "0.0.0.0/0")});
    touch(h, 0, addr_of("11.1.1.1"));  // matches only the default route
    h.tick(0);
    h.handle(0, {FlowModType::kDelete, Rule{route, 0, {}, {}}});
  }
  ASSERT_EQ(h.tcam_occupancy(), n + 1);
  h.handle(0, {FlowModType::kInsert, make_rule(next++, 5, "20.0.0.0/24")});
  h.handle(0, {FlowModType::kInsert, make_rule(next++, 6, "20.0.0.1/32")});
  touch(h, 0, addr_of("20.0.0.2"));  // matches only the /24
  h.tick(from_millis(1));
}

TEST(CacheHierarchy, CascadeOfExactlyTheLimitIsDemoted) {
  const int n = CacheHierarchy::kClosureLimit - 1;
  CacheHierarchy h(tcam::pica8_p3290(), n + 2, cache_config(PolicyKind::kLru));
  cascade_from_wide_victim(h, n);
  EXPECT_EQ(h.pins(), 0u);
  EXPECT_EQ(h.demotions(), static_cast<std::uint64_t>(n + 1));
  EXPECT_EQ(h.tcam_occupancy(), 2);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, CascadeOneOverTheLimitPinsTheVictim) {
  const int n = CacheHierarchy::kClosureLimit;
  CacheHierarchy h(tcam::pica8_p3290(), n + 2, cache_config(PolicyKind::kLru));
  cascade_from_wide_victim(h, n);
  EXPECT_EQ(h.pins(), 1u);
  // The next LRU victim, the oldest /32, leaves alone.
  EXPECT_EQ(h.demotions(), 1u);
  EXPECT_EQ(h.tcam_occupancy(), n + 2);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, InsertDemotesConflictingCachedRule) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.2.0.1/32", 1)});
  touch(h, 0, addr_of("10.2.0.1"));
  h.tick(from_millis(1));
  ASSERT_EQ(h.tcam_occupancy(), 1);

  // A new higher-priority overlapping software rule must evict the
  // cached /32 — otherwise TCAM hits on 10.2.0.1 would mask it.
  h.handle(from_millis(2),
           {FlowModType::kInsert, make_rule(2, 8, "10.2.0.0/16", 2)});
  EXPECT_EQ(h.tcam_occupancy(), 0);
  EXPECT_GE(h.demotions(), 1u);
  EXPECT_TRUE(h.check_invariant());

  auto res = h.classify(from_millis(3), addr_of("10.2.0.1"));
  ASSERT_NE(res.rule, nullptr);
  EXPECT_EQ(res.rule->id, 2u);
  EXPECT_EQ(h.dependency_violations(), 0u);
}

TEST(CacheHierarchy, EqualPriorityOverlapsAreCoResidentAndTieBreakByArrival) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.3.0.1/32", 1)});
  h.handle(0, {FlowModType::kInsert, make_rule(2, 5, "10.3.0.1/32", 2)});
  // Software answer: earliest arrival wins the tie.
  auto sw = h.classify(0, addr_of("10.3.0.1"));
  ASSERT_NE(sw.rule, nullptr);
  EXPECT_EQ(sw.rule->id, 1u);

  touch(h, 0, addr_of("10.3.0.1"));
  h.tick(from_millis(1));
  // Both promoted (>= closure), and the TCAM reproduces the tie-break.
  EXPECT_EQ(h.tcam_occupancy(), 2);
  auto hw = h.classify(from_millis(1), addr_of("10.3.0.1"));
  ASSERT_NE(hw.rule, nullptr);
  EXPECT_TRUE(hw.tcam_hit);
  EXPECT_EQ(hw.rule->id, 1u);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, EvictionKeepsOccupancyBoundedForEveryPolicy) {
  for (PolicyKind policy :
       {PolicyKind::kLru, PolicyKind::kLfu, PolicyKind::kFdrc}) {
    CacheHierarchy h(tcam::pica8_p3290(), 4, cache_config(policy));
    for (net::RuleId id = 1; id <= 32; ++id)
      h.handle(0, {FlowModType::kInsert,
                   Rule{id, 5,
                        Prefix(net::Ipv4Address(
                                   static_cast<std::uint32_t>(id) << 8),
                               32),
                        net::forward_to(1)}});
    Time now = 0;
    for (int round = 0; round < 8; ++round) {
      for (net::RuleId id = 1; id <= 32; ++id) {
        auto addr =
            net::Ipv4Address(static_cast<std::uint32_t>(id) << 8);
        touch(h, now, addr);
      }
      now += from_millis(1);
      h.tick(now);
      ASSERT_LE(h.tcam_occupancy(), 4) << policy_name(policy);
      ASSERT_TRUE(h.check_invariant()) << policy_name(policy);
    }
    EXPECT_GE(h.promotions(), 4u) << policy_name(policy);
    EXPECT_GE(h.demotions(), 1u) << policy_name(policy);
    EXPECT_EQ(h.dependency_violations(), 0u) << policy_name(policy);
  }
}

TEST(CacheHierarchy, DeleteRemovesFromBothTiers) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.4.0.1/32", 1)});
  touch(h, 0, addr_of("10.4.0.1"));
  h.tick(from_millis(1));
  ASSERT_EQ(h.tcam_occupancy(), 1);

  h.handle(from_millis(2), {FlowModType::kDelete, Rule{1, 0, {}, {}}});
  EXPECT_EQ(h.tcam_occupancy(), 0);
  EXPECT_EQ(h.total_rules(), 0u);
  EXPECT_EQ(h.classify(from_millis(3), addr_of("10.4.0.1")).rule, nullptr);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, ModifyRekeysAndStaysConsistent) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.5.0.1/32", 1)});
  touch(h, 0, addr_of("10.5.0.1"));
  h.tick(from_millis(1));
  ASSERT_EQ(h.tcam_occupancy(), 1);

  h.handle(from_millis(2),
           {FlowModType::kModify, make_rule(1, 6, "10.5.0.2/32", 3)});
  EXPECT_TRUE(h.check_invariant());
  EXPECT_EQ(h.classify(from_millis(3), addr_of("10.5.0.1")).rule, nullptr);
  auto res = h.classify(from_millis(3), addr_of("10.5.0.2"));
  ASSERT_NE(res.rule, nullptr);
  EXPECT_EQ(res.rule->action.port, 3);
  EXPECT_EQ(h.dependency_violations(), 0u);
}

TEST(CacheHierarchy, AsicResetLosesNoRules) {
  fault::FaultPlanConfig fc;
  fc.resets = {from_millis(5)};
  fault::FaultPlan plan(fc);

  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.set_fault_plan(&plan);
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.6.0.1/32", 1)});
  h.handle(0, {FlowModType::kInsert, make_rule(2, 5, "10.6.0.2/32", 2)});
  touch(h, 0, addr_of("10.6.0.1"));
  touch(h, 0, addr_of("10.6.0.2"));
  h.tick(from_millis(1));
  ASSERT_EQ(h.tcam_occupancy(), 2);

  // Past the reset: the wipe empties the TCAM tier but the inclusive
  // software tier still answers both flows; popularity refills the cache.
  auto res = h.classify(from_millis(6), addr_of("10.6.0.1"));
  ASSERT_NE(res.rule, nullptr);
  EXPECT_EQ(res.rule->id, 1u);
  EXPECT_EQ(h.total_rules(), 2u);
  EXPECT_TRUE(h.check_invariant());

  touch(h, from_millis(6), addr_of("10.6.0.2"));
  h.tick(from_millis(7));
  auto rehit = h.classify(from_millis(7), addr_of("10.6.0.2"));
  ASSERT_NE(rehit.rule, nullptr);
  EXPECT_TRUE(rehit.tcam_hit);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

}  // namespace
}  // namespace hermes::cache
