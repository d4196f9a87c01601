// Regression tests for two ASIC data/control-plane bugs:
//
//  1. A priority-change modify decomposes into delete + insert; a failed
//     re-insert used to drop the rule permanently (the delete had already
//     landed), making every retry fail at the find. The fix restores the
//     original rule and counts `asic.modify_rollbacks`.
//  2. Data-plane lookups never applied pending scheduled resets, so a
//     lookup between the reset time and the next control-plane op
//     returned pre-reset rules. Every lookup now takes a clock and
//     applies the resets due by then first.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "tcam/asic.h"

namespace hermes::tcam {
namespace {

using net::FlowMod;
using net::FlowModType;
using net::forward_to;
using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), forward_to(port)};
}

fault::FaultPlanConfig always_fail_writes() {
  fault::FaultPlanConfig fc;
  fc.seed = 7;
  fc.default_slice.write_failure_prob = 1.0;
  return fc;
}

TEST(AsicModifyRollback, InjectedReinsertFailureRestoresOriginalRule) {
  obs::Registry reg;
  obs::attach(&reg);
  {
    Asic asic(pica8_p3290(), {100});
    Rule original = make_rule(1, 5, "10.0.0.0/8", /*port=*/3);
    ASSERT_TRUE(asic.apply(0, {FlowModType::kInsert, original}).ok);

    // Attach the plan only now, so the initial insert lands cleanly.
    fault::FaultPlan plan(always_fail_writes());
    asic.set_fault_plan(&plan);

    // Priority change => delete + insert; the insert draw fails.
    ApplyResult r;
    asic.submit(0, 0, {FlowModType::kModify, make_rule(1, 9, "10.0.0.0/8", 4)},
                &r);
    EXPECT_FALSE(r.ok);

    // Pre-fix behavior: the rule is GONE here (the erase landed, the
    // re-insert didn't) and the retry below fails at the find. Post-fix:
    // the original survives untouched.
    const net::Rule* kept = asic.slice(0).find_ptr(1);
    ASSERT_NE(kept, nullptr);
    EXPECT_EQ(kept->priority, 5);
    EXPECT_EQ(kept->action.port, 3);
    EXPECT_EQ(asic.channel_stats(0).injected_failures, 1u);

    // With the fault gone, the retry succeeds end-to-end.
    asic.set_fault_plan(nullptr);
    asic.submit(from_millis(1), 0,
                {FlowModType::kModify, make_rule(1, 9, "10.0.0.0/8", 4)}, &r);
    EXPECT_TRUE(r.ok);
    const net::Rule* moved = asic.slice(0).find_ptr(1);
    ASSERT_NE(moved, nullptr);
    EXPECT_EQ(moved->priority, 9);
    EXPECT_EQ(moved->action.port, 4);
  }
  obs::attach(nullptr);
  EXPECT_EQ(reg.counter_value("asic.modify_rollbacks"), 1u);
}

TEST(AsicModifyRollback, RollbackKeepsTableInvariantAndLookupSemantics) {
  Asic asic(pica8_p3290(), {100});
  // A stack of overlapping rules around the victim.
  ASSERT_TRUE(asic.apply(0, {FlowModType::kInsert,
                             make_rule(1, 8, "10.0.0.0/8", 1)}).ok);
  ASSERT_TRUE(asic.apply(0, {FlowModType::kInsert,
                             make_rule(2, 5, "10.1.0.0/16", 2)}).ok);
  ASSERT_TRUE(asic.apply(0, {FlowModType::kInsert,
                             make_rule(3, 2, "10.1.2.0/24", 3)}).ok);

  fault::FaultPlan plan(always_fail_writes());
  asic.set_fault_plan(&plan);
  ApplyResult r;
  asic.submit(0, 0, {FlowModType::kModify, make_rule(2, 9, "10.1.0.0/16", 2)},
              &r);
  EXPECT_FALSE(r.ok);
  asic.set_fault_plan(nullptr);

  EXPECT_TRUE(asic.slice(0).check_invariant());
  const net::Rule* restored = asic.slice(0).find_ptr(2);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->priority, 5);
  // The restored rule still classifies exactly as before the attempt:
  // had the failed modify dropped it, the /24 would win here instead.
  ASSERT_TRUE(asic.apply(0, {FlowModType::kDelete,
                             make_rule(1, 0, "0.0.0.0/0")}).ok);
  const net::Rule* hit =
      asic.lookup_ptr(0, net::Ipv4Address::from_octets(10, 1, 2, 5));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 2u);
  EXPECT_EQ(hit->priority, 5);
}

TEST(AsicModifyRollback, CleanModifyNeverRollsBack) {
  obs::Registry reg;
  obs::attach(&reg);
  {
    Asic asic(pica8_p3290(), {100});
    ASSERT_TRUE(asic.apply(0, {FlowModType::kInsert,
                               make_rule(1, 5, "10.0.0.0/8")}).ok);
    ApplyResult r;
    asic.submit(0, 0, {FlowModType::kModify, make_rule(1, 9, "10.0.0.0/8", 2)},
                &r);
    EXPECT_TRUE(r.ok);
    const net::Rule* moved = asic.slice(0).find_ptr(1);
    ASSERT_NE(moved, nullptr);
    EXPECT_EQ(moved->priority, 9);
  }
  obs::attach(nullptr);
  EXPECT_EQ(reg.counter_value("asic.modify_rollbacks"), 0u);
}

// The new modify draw site must not disturb existing fault schedules:
// in-place modifies, deletes, and modifies of absent rules burn no
// write-failure draw — only ops that reach the TCAM insert step do.
TEST(AsicModifyRollback, OnlyPriorityChangingModifiesBurnDraws) {
  Asic asic(pica8_p3290(), {100});
  fault::FaultPlanConfig fc;
  fc.seed = 11;
  fc.default_slice.write_failure_prob = 0.5;
  fault::FaultPlan plan(fc);
  asic.set_fault_plan(&plan);

  // Install under faults until one lands (insert draws are pre-existing
  // behavior).
  Time now = 0;
  ApplyResult r;
  do {
    now = asic.submit(now, 0,
                      {FlowModType::kInsert, make_rule(1, 5, "10.0.0.0/8")},
                      &r);
  } while (!r.ok);
  std::uint64_t draws_before = plan.draws(0);

  // Same-priority modify: in-place, no insert step, no draw.
  asic.submit(now, 0, {FlowModType::kModify, make_rule(1, 5, "10.0.0.0/8", 7)},
              &r);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(plan.draws(0), draws_before);

  // Modify of an absent rule: fails at the find, no draw.
  asic.submit(now, 0, {FlowModType::kModify, make_rule(99, 9, "11.0.0.0/8")},
              &r);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(plan.draws(0), draws_before);

  // Delete: no draw.
  asic.submit(now, 0, {FlowModType::kDelete, make_rule(1, 0, "0.0.0.0/0")},
              &r);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(plan.draws(0), draws_before);
}

// One slice, and two slices with the rule in the second: a lookup that
// walks past an empty slice must see the wipe too.
TEST(AsicResetVisibility, TimeThreadedLookupAppliesPendingResets) {
  struct Case {
    std::vector<int> slice_sizes;
    int slice;
  };
  for (const Case& c : {Case{{100}, 0}, Case{{64, 64}, 1}}) {
    SCOPED_TRACE(c.slice_sizes.size());
    Asic asic(pica8_p3290(), c.slice_sizes);
    ASSERT_TRUE(asic.apply(c.slice, {FlowModType::kInsert,
                                     make_rule(1, 5, "10.0.0.0/8")}).ok);

    fault::FaultPlanConfig fc;
    fc.seed = 3;
    fc.resets = {from_millis(1)};
    fault::FaultPlan plan(fc);
    asic.set_fault_plan(&plan);

    net::Ipv4Address addr = net::Ipv4Address::from_octets(10, 1, 2, 3);
    // Before the reset time the rule is visible.
    const net::Rule* before = asic.lookup_ptr(from_micros(500), addr);
    ASSERT_NE(before, nullptr);
    EXPECT_EQ(before->id, 1u);
    EXPECT_EQ(asic.reset_epoch(), 0);

    // Pre-fix behavior: a data-plane lookup after the scheduled reset —
    // with NO intervening control-plane op — still returned the rule.
    // Post-fix: the wipe is observed by the lookup itself.
    EXPECT_EQ(asic.lookup_ptr(from_millis(2), addr), nullptr);
    EXPECT_EQ(asic.reset_epoch(), 1);
    EXPECT_EQ(asic.total_occupancy(), 0);
  }
}

}  // namespace
}  // namespace hermes::tcam
