// Differential fuzz: the hierarchy under churn vs a monolithic software
// table. The hierarchy's cache mode must answer every classification
// exactly like one flat LookupEngine over the same rules — that is the
// whole point of the dependency-closure invariant. verify_lookups doubles
// the check inside the hierarchy (cache.dependency_violations), and the
// external oracle here catches anything the internal one is blind to
// (e.g. the software tier itself corrupting).
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/cache_hierarchy.h"
#include "fault/fault_plan.h"
#include "tcam/lookup_engine.h"
#include "tcam/switch_model.h"

namespace hermes::cache {
namespace {

using net::FlowMod;
using net::FlowModType;
using net::Prefix;
using net::Rule;

std::uint64_t next_state(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1Dull;
}

/// Monolithic reference: one flat engine + the rule map, mirroring the
/// hierarchy's software-tier stamping (modify = erase + insert with a
/// FRESH seq, exactly like CacheHierarchy::handle's decomposition).
class Oracle {
 public:
  void insert(const Rule& rule) {
    erase(rule.id);
    engine_.insert(rule, seq_);
    rules_.emplace(rule.id, rule);
    ++seq_;
  }
  void erase(net::RuleId id) {
    auto it = rules_.find(id);
    if (it == rules_.end()) return;
    engine_.erase(it->second);
    rules_.erase(it);
  }
  const net::Rule* lookup(net::Ipv4Address addr) const {
    return engine_.lookup(addr);
  }
  std::size_t size() const { return rules_.size(); }

 private:
  tcam::LookupEngine engine_;
  std::unordered_map<net::RuleId, Rule> rules_;
  std::uint64_t seq_ = 0;
};

/// Rules drawn from a small laminar universe (10.0.0.0/8 and below) so
/// overlaps, equal priorities, and closure chains all occur constantly.
Rule fuzz_rule(std::uint64_t& state, net::RuleId id) {
  static constexpr int kLengths[] = {8, 12, 16, 24, 32, 32, 32};
  int length = kLengths[next_state(state) % 7];
  std::uint32_t addr =
      0x0A000000u |
      (static_cast<std::uint32_t>(next_state(state)) & 0x0000FFFFu);
  int priority = static_cast<int>(next_state(state) % 8);
  int port = static_cast<int>(next_state(state) % 16);
  return Rule{id, priority, Prefix(net::Ipv4Address(addr), length),
              net::forward_to(port)};
}

net::Ipv4Address fuzz_addr(std::uint64_t& state) {
  return net::Ipv4Address(
      0x0A000000u |
      (static_cast<std::uint32_t>(next_state(state)) & 0x0000FFFFu));
}

/// With `faults` attached, the invariant is checked after every op, and
/// the plan must have failed a write and fired one reset into a TCAM
/// tier that held rules.
void run_fuzz(PolicyKind policy, std::uint64_t seed,
              fault::FaultPlan* faults = nullptr) {
  CacheConfig config;
  config.policy = policy;
  config.verify_lookups = true;
  CacheHierarchy h(tcam::pica8_p3290(), 32, config);
  h.set_fault_plan(faults);
  Oracle oracle;

  std::uint64_t state = seed;
  Time now = 0;
  constexpr int kOps = 6000;
  constexpr net::RuleId kIdSpace = 300;  // small: collisions guaranteed
  int wiped = 0;  // TCAM rules resident when the reset fired
  for (int op = 0; op < kOps; ++op) {
    now += from_micros(50);
    const int resident = h.tcam_occupancy();
    const std::uint64_t resets = faults ? faults->resets_fired() : 0;
    const std::uint64_t dice = next_state(state) % 100;
    net::RuleId id = 1 + next_state(state) % kIdSpace;
    if (dice < 45) {
      Rule r = fuzz_rule(state, id);
      h.handle(now, {FlowModType::kInsert, r});
      oracle.insert(r);
    } else if (dice < 65) {
      h.handle(now, {FlowModType::kDelete, Rule{id, 0, {}, {}}});
      oracle.erase(id);
    } else if (dice < 75) {
      Rule r = fuzz_rule(state, id);
      h.handle(now, {FlowModType::kModify, r});
      // The hierarchy's modify is erase + fresh insert; on an unknown id
      // the erase is a no-op and the insert creates the rule — mirror
      // exactly.
      oracle.erase(id);
      oracle.insert(r);
    } else {
      // Classification burst: drives hits, misses, and promotions.
      for (int i = 0; i < 4; ++i) {
        net::Ipv4Address addr = fuzz_addr(state);
        auto res = h.classify(now, addr);
        const net::Rule* want = oracle.lookup(addr);
        if (want == nullptr) {
          ASSERT_EQ(res.rule, nullptr) << "op " << op;
        } else {
          ASSERT_NE(res.rule, nullptr) << "op " << op;
          ASSERT_EQ(res.rule->id, want->id) << "op " << op;
        }
      }
    }
    if (op % 64 == 0) h.tick(now);
    if (faults != nullptr && faults->resets_fired() > resets) wiped = resident;
    if (faults != nullptr || op % 64 == 0) {
      ASSERT_TRUE(h.check_invariant())
          << policy_name(policy) << " op " << op;
    }
  }
  h.tick(now);
  EXPECT_TRUE(h.check_invariant());
  EXPECT_EQ(h.total_rules(), oracle.size());
  EXPECT_EQ(h.dependency_violations(), 0u) << policy_name(policy);
  // The churn must actually have exercised the cache machinery.
  EXPECT_GT(h.promotions(), 0u) << policy_name(policy);
  EXPECT_GT(h.promotion_aborts(), 0u) << policy_name(policy);
  EXPECT_GT(h.hits() + h.misses(), 0u);
  if (faults != nullptr) {
    // Every TCAM write is a promotion batch: a failed one truncated it.
    EXPECT_GT(faults->write_failures(), 0u);
    EXPECT_EQ(faults->resets_fired(), 1u);
    EXPECT_GT(wiped, 0);
  }
}

TEST(CacheOracleFuzz, LruMatchesMonolithicTable) {
  run_fuzz(PolicyKind::kLru, 0xC0FFEE01);
}

TEST(CacheOracleFuzz, LfuMatchesMonolithicTable) {
  run_fuzz(PolicyKind::kLfu, 0xC0FFEE02);
}

TEST(CacheOracleFuzz, FdrcMatchesMonolithicTable) {
  run_fuzz(PolicyKind::kFdrc, 0xC0FFEE03);
}

TEST(CacheOracleFuzz, FdrcSecondSeedMatchesMonolithicTable) {
  run_fuzz(PolicyKind::kFdrc, 0xDEADBEEF);
}

// Write failures truncate promotion batches, and one reset wipes the
// tier. The churn soon leaves no rule cacheable, so the reset comes
// early, just after a promotion round.
TEST(CacheOracleFuzz, FdrcUnderWriteFailuresAndAResetMatchesMonolithicTable) {
  fault::FaultPlanConfig fc;
  fc.seed = 0xFA17;
  fc.default_slice.write_failure_prob = 0.05;
  fc.resets = {from_micros(19'300)};
  fault::FaultPlan plan(fc);
  run_fuzz(PolicyKind::kFdrc, 0xC0FFEE04, &plan);
}

}  // namespace
}  // namespace hermes::cache
