// Property tests for the consistent-update coordinator (src/update/):
// ez-Segway execution must never create a blackhole or loop instant for
// the in-flight flow — across commits, aborts (add and flip failures,
// including failures AFTER a gated removal landed), and cancels — while
// the naive two-phase baseline measurably loops on out-of-order reroutes
// and strands a mixed state on partial failure.
//
// The harness is a FakeFabric: per-switch rule tables keyed by rule id,
// uniform (per-switch overridable) apply latency, and scripted failures.
// Every completed operation feeds a ConsistencyChecker mirror that is
// re-traced at each change instant.
#include "update/update_coordinator.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/rule.h"
#include "net/update_plan.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "update/consistency_checker.h"

namespace hermes::update {
namespace {

constexpr Duration kLatency = 10;
constexpr Duration kSignal = 5;

/// Per-switch rule tables with scripted latency and failures. Rule ids
/// key the tables (one flow => at most one rule per switch here).
class FakeFabric {
 public:
  using Table = std::map<net::RuleId, net::Rule>;

  /// Every op on `sw` of this verb dispatched at or after `from` fails
  /// (rejected, table untouched).
  void fail(net::NodeId sw, net::FlowModType type, Time from = 0) {
    fail_[{sw, type}] = from;
  }
  /// Ops on `sw` complete after `latency` instead of the default.
  void set_latency(net::NodeId sw, Duration latency) {
    latency_[sw] = latency;
  }

  UpdateCoordinator::BatchDispatch batch_dispatch() {
    return [this](Time now, net::NodeId sw, net::FlowModBatch& batch) {
      for (std::size_t i = 0; i < batch.size(); ++i)
        batch.complete(i, now + latency_of(sw),
                       apply(now, sw, batch.mod(i)));
    };
  }

  Table& table(net::NodeId sw) { return tables_[sw]; }
  bool has_rule(net::NodeId sw, net::RuleId id) const {
    auto it = tables_.find(sw);
    return it != tables_.end() && it->second.count(id) > 0;
  }
  /// The single rule installed at `sw` (fails the test if not exactly 1).
  const net::Rule& only_rule(net::NodeId sw) const {
    const Table& t = tables_.at(sw);
    EXPECT_EQ(t.size(), 1u) << "switch " << sw;
    return t.begin()->second;
  }
  bool empty(net::NodeId sw) const {
    auto it = tables_.find(sw);
    return it == tables_.end() || it->second.empty();
  }

 private:
  Duration latency_of(net::NodeId sw) const {
    auto it = latency_.find(sw);
    return it == latency_.end() ? kLatency : it->second;
  }
  bool apply(Time now, net::NodeId sw, const net::FlowMod& mod) {
    auto failing = fail_.find({sw, mod.type});
    if (failing != fail_.end() && now >= failing->second) return false;
    Table& t = tables_[sw];
    switch (mod.type) {
      case net::FlowModType::kInsert:
        t[mod.rule.id] = mod.rule;
        return true;
      case net::FlowModType::kModify: {
        auto it = t.find(mod.rule.id);
        if (it == t.end()) return false;
        it->second = mod.rule;
        return true;
      }
      case net::FlowModType::kDelete:
        return t.erase(mod.rule.id) > 0;
    }
    return false;
  }

  std::unordered_map<net::NodeId, Table> tables_;
  std::unordered_map<net::NodeId, Duration> latency_;
  std::map<std::pair<net::NodeId, net::FlowModType>, Time> fail_;
};

net::Rule old_rule_for(net::NodeId node, net::NodeId successor) {
  return net::Rule{100 + static_cast<net::RuleId>(node), 1, {},
                   net::forward_to(static_cast<int>(successor))};
}

net::Rule new_rule_for(net::NodeId node, net::NodeId successor) {
  return net::Rule{200 + static_cast<net::RuleId>(node), 1, {},
                   net::forward_to(static_cast<int>(successor))};
}

/// Builds the rerouting request for old_path -> new_path with the
/// port-is-next-node convention, installs the old rules into the fabric,
/// and seeds the checker mirror with the old path.
UpdateCoordinator::TxnRequest make_request(const net::Path& old_path,
                                           const net::Path& new_path,
                                           FakeFabric& fabric,
                                           ConsistencyChecker& checker) {
  UpdateCoordinator::TxnRequest req;
  req.plan = net::plan_update(old_path, new_path);
  for (std::size_t i = 0; i + 1 < old_path.size(); ++i) {
    net::Rule rule = old_rule_for(old_path[i], old_path[i + 1]);
    req.old_rules.emplace(old_path[i], rule);
    fabric.table(old_path[i]).emplace(rule.id, rule);
  }
  for (std::size_t i = 0; i + 1 < new_path.size(); ++i)
    req.new_rules.emplace(new_path[i],
                          new_rule_for(new_path[i], new_path[i + 1]));
  checker.add_flow(0, old_path);
  return req;
}

struct ObservedOp {
  Time time = 0;
  net::NodeId sw = net::kInvalidNode;
  net::FlowModType type = net::FlowModType::kInsert;
  bool ok = false;
};

CoordinatorConfig segway_config() {
  CoordinatorConfig c;
  c.signal_delay = kSignal;
  return c;
}

/// One coordinator + fabric + checker wired together.
struct Harness {
  explicit Harness(CoordinatorConfig config = segway_config())
      : coordinator(events, fabric.batch_dispatch(), config) {
    coordinator.set_observer(
        [this](Time t, net::NodeId sw, const net::FlowMod& mod, bool ok) {
          ops.push_back({t, sw, mod.type, ok});
          checker.apply(0, sw, mod, ok);
        });
  }

  std::uint64_t run(const net::Path& old_path, const net::Path& new_path) {
    auto req = make_request(old_path, new_path, fabric, checker);
    std::uint64_t id = coordinator.begin(
        events.now(), std::move(req),
        [this](Time, const TxnOutcome& o) { outcome = o; });
    return id;
  }

  sim::EventQueue events;
  FakeFabric fabric;
  ConsistencyChecker checker;
  UpdateCoordinator coordinator;
  std::vector<ObservedOp> ops;
  TxnOutcome outcome;
};

TEST(UpdateCoordinator, InOrderCommitTimingAndFinalState) {
  Harness h;
  h.run({0, 1, 2, 3}, {0, 4, 5, 3});
  h.events.run_all();

  EXPECT_TRUE(h.outcome.committed);
  EXPECT_FALSE(h.outcome.cancelled);
  EXPECT_EQ(h.outcome.segments, 1);
  EXPECT_EQ(h.outcome.adds, 2);
  EXPECT_EQ(h.outcome.flips, 1);
  EXPECT_EQ(h.outcome.failed_ops, 0);
  EXPECT_EQ(h.outcome.rollback_flips, 0);
  // Adds land at kLatency; the barrier release pays one signal_delay; the
  // entry flip then takes another kLatency. Commit = last flip completion.
  EXPECT_EQ(h.outcome.done, kLatency + kSignal + kLatency);

  // Fabric converged to the pure-new state: entry keeps its rule id with
  // the new action, internals hold fresh rules, old internals are empty.
  EXPECT_EQ(h.fabric.only_rule(0).id, net::RuleId{100});
  EXPECT_EQ(h.fabric.only_rule(0).action, net::forward_to(4));
  EXPECT_EQ(h.fabric.only_rule(4).action, net::forward_to(5));
  EXPECT_EQ(h.fabric.only_rule(5).action, net::forward_to(3));
  EXPECT_TRUE(h.fabric.empty(1));
  EXPECT_TRUE(h.fabric.empty(2));

  EXPECT_EQ(h.checker.violation_instants(), 0);
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kDelivered);
  EXPECT_EQ(h.checker.next_hop(0).at(0), 4);
  EXPECT_GT(h.checker.checks(), 0);
}

TEST(UpdateCoordinator, OutOfOrderFlipWaitsForDownstreamSegments) {
  Harness h;
  // old 0-1-2-3, new 0-2-1-3: segment 2->1 is out-of-order and must flip
  // strictly after segment 1->3.
  h.run({0, 1, 2, 3}, {0, 2, 1, 3});
  h.events.run_all();

  EXPECT_TRUE(h.outcome.committed);
  EXPECT_EQ(h.outcome.flips, 3);
  EXPECT_EQ(h.outcome.adds, 0);
  // Independent flips complete at kLatency; segment 1's release then pays
  // signal_delay + kLatency on top of segment 2's completion.
  EXPECT_EQ(h.outcome.done, kLatency + kSignal + kLatency);

  Time flip_at_1 = 0, flip_at_2 = 0;
  for (const ObservedOp& op : h.ops) {
    if (op.type != net::FlowModType::kModify) continue;
    if (op.sw == 1) flip_at_1 = op.time;
    if (op.sw == 2) flip_at_2 = op.time;
  }
  EXPECT_GT(flip_at_1, 0);
  EXPECT_GT(flip_at_2, flip_at_1);  // the loop-freedom ordering

  EXPECT_EQ(h.checker.violation_instants(), 0);
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kDelivered);
  EXPECT_EQ(h.checker.next_hop(0).at(0), 2);
  EXPECT_EQ(h.checker.next_hop(0).at(2), 1);
  EXPECT_EQ(h.checker.next_hop(0).at(1), 3);
}

TEST(UpdateCoordinator, AddFailureRollsBackToExactOldState) {
  Harness h;
  h.fabric.fail(5, net::FlowModType::kInsert);
  h.run({0, 1, 2, 3}, {0, 4, 5, 3});
  h.events.run_all();

  EXPECT_FALSE(h.outcome.committed);
  EXPECT_FALSE(h.outcome.cancelled);
  EXPECT_EQ(h.outcome.failed_ops, 1);
  EXPECT_EQ(h.outcome.flips, 0);
  EXPECT_EQ(h.outcome.rollback_flips, 0);

  // Old state byte-for-byte: no flip ever fired, the sibling add was
  // deleted, old rules untouched.
  for (net::NodeId sw : {0, 1, 2})
    EXPECT_EQ(h.fabric.only_rule(sw), old_rule_for(sw, sw + 1));
  EXPECT_TRUE(h.fabric.empty(4));
  EXPECT_TRUE(h.fabric.empty(5));

  EXPECT_EQ(h.checker.violation_instants(), 0);
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kDelivered);
  EXPECT_EQ(h.checker.next_hop(0).at(0), 1);
}

TEST(UpdateCoordinator, FlipFailureUnflipsCommittedEntries) {
  Harness h;
  // old 0-1-2-3-4, new 0-5-2-6-4: two segments. Entry 0 flips fine;
  // entry 2's modify is rejected, forcing a rollback that un-flips 0.
  h.fabric.fail(2, net::FlowModType::kModify);
  h.run({0, 1, 2, 3, 4}, {0, 5, 2, 6, 4});
  h.events.run_all();

  EXPECT_FALSE(h.outcome.committed);
  EXPECT_EQ(h.outcome.failed_ops, 1);
  EXPECT_EQ(h.outcome.adds, 2);
  EXPECT_EQ(h.outcome.flips, 1);
  EXPECT_EQ(h.outcome.rollback_flips, 1);

  for (net::NodeId sw : {0, 1, 2, 3})
    EXPECT_EQ(h.fabric.only_rule(sw), old_rule_for(sw, sw + 1));
  EXPECT_TRUE(h.fabric.empty(5));
  EXPECT_TRUE(h.fabric.empty(6));

  EXPECT_EQ(h.checker.violation_instants(), 0);
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kDelivered);
}

TEST(UpdateCoordinator, LateFailureRestoresAlreadyRemovedRules) {
  Harness h;
  // Segment 0 (entry 0, add 5) completes fast, its removal gate clears,
  // and old rule 1 is DELETED — all long before segment 1's slow add
  // (node 6, latency 100) lets entry 2 flip... which then fails. The
  // rollback must re-install rule 1 BEFORE un-flipping entry 0, or the
  // restored old path would blackhole at 1.
  h.fabric.set_latency(6, 100);
  h.fabric.fail(2, net::FlowModType::kModify);
  h.run({0, 1, 2, 3, 4}, {0, 5, 2, 6, 4});

  // Sanity mid-run: the gated removal really does land first.
  h.events.run_until(60);
  EXPECT_TRUE(h.fabric.empty(1));
  h.events.run_all();

  EXPECT_FALSE(h.outcome.committed);
  EXPECT_EQ(h.outcome.rollback_flips, 1);

  // Pure old state again, including the re-installed rule at 1.
  for (net::NodeId sw : {0, 1, 2, 3})
    EXPECT_EQ(h.fabric.only_rule(sw), old_rule_for(sw, sw + 1));
  EXPECT_TRUE(h.fabric.empty(5));
  EXPECT_TRUE(h.fabric.empty(6));

  EXPECT_EQ(h.checker.violation_instants(), 0);
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kDelivered);
}

TEST(UpdateCoordinator, CancelMidFlightDeletesInstalledAdds) {
  Harness h;
  std::uint64_t id = h.run({0, 1, 2, 3}, {0, 4, 5, 3});
  // Let the adds dispatch (they complete at kLatency) and cancel while
  // they are in flight.
  h.events.run_until(kLatency / 2);
  h.coordinator.cancel(id);
  h.events.run_all();

  EXPECT_TRUE(h.outcome.cancelled);
  EXPECT_FALSE(h.outcome.committed);
  EXPECT_EQ(h.coordinator.active(), 0);

  for (net::NodeId sw : {0, 1, 2})
    EXPECT_EQ(h.fabric.only_rule(sw), old_rule_for(sw, sw + 1));
  EXPECT_TRUE(h.fabric.empty(4));
  EXPECT_TRUE(h.fabric.empty(5));
  EXPECT_EQ(h.checker.violation_instants(), 0);
}

TEST(UpdateCoordinator, ZeroSignalDelayCommitsAtAddPlusFlipLatency) {
  Harness h{CoordinatorConfig{}};
  h.run({0, 1, 2, 3}, {0, 4, 5, 3});
  h.events.run_all();
  EXPECT_TRUE(h.outcome.committed);
  // No signaling cost: barrier at kLatency, flip completes one kLatency
  // later.
  EXPECT_EQ(h.outcome.done, 2 * kLatency);
}

TEST(UpdateCoordinator, MetricsCountTransactionLifecycle) {
  obs::Registry registry;
  obs::attach(&registry);
  {
    Harness committed;
    committed.run({0, 1, 2, 3}, {0, 2, 1, 3});  // out-of-order, commits
    committed.events.run_all();

    Harness aborted;
    aborted.fabric.fail(5, net::FlowModType::kInsert);
    aborted.run({0, 1, 2, 3}, {0, 4, 5, 3});
    aborted.events.run_all();
  }
  obs::attach(nullptr);

  EXPECT_EQ(registry.counter_value("update.txns"), 2u);
  EXPECT_EQ(registry.counter_value("update.committed"), 1u);
  EXPECT_EQ(registry.counter_value("update.aborted"), 1u);
  EXPECT_EQ(registry.counter_value("update.cancelled"), 0u);
  EXPECT_EQ(registry.counter_value("update.out_of_order_txns"), 1u);
  EXPECT_EQ(registry.counter_value("update.flips"), 3u);
  EXPECT_EQ(registry.counter_value("update.adds"), 1u);  // sibling of the fail
  EXPECT_EQ(registry.counter_value("update.failed_ops"), 1u);
  EXPECT_EQ(registry.histogram_summary("update.segments").count, 2u);
  EXPECT_EQ(registry.histogram_summary("update.completion_ns").count, 1u);
}

CoordinatorConfig two_phase_config() {
  CoordinatorConfig c;
  c.strategy = Strategy::kTwoPhase;
  c.ctrl_rtt = 40;
  c.ctrl_send_gap = 2;
  return c;
}

TEST(UpdateCoordinator, TwoPhaseLoopsOnOutOfOrderRerouteWhereSegwayDoesNot) {
  // The same out-of-order reroute, both strategies. ez-Segway: zero
  // violation instants. Naive two-phase fires all flips as fast as it
  // can serialize them: entry 2 flips onto not-yet-flipped entry 1 and
  // the flow transiently loops.
  Harness segway;
  segway.run({0, 1, 2, 3}, {0, 2, 1, 3});
  segway.events.run_all();
  ASSERT_TRUE(segway.outcome.committed);
  EXPECT_EQ(segway.checker.violation_instants(), 0);

  Harness two_phase{two_phase_config()};
  two_phase.run({0, 1, 2, 3}, {0, 2, 1, 3});
  two_phase.events.run_all();
  ASSERT_TRUE(two_phase.outcome.committed);
  EXPECT_GT(two_phase.checker.loop_instants(), 0);
  // Both converge to the new path eventually...
  EXPECT_EQ(two_phase.checker.trace(0), net::ForwardTrace::kDelivered);
  EXPECT_EQ(two_phase.checker.next_hop(0).at(0), 2);
  // ...but the controller round-trips make two-phase slower too.
  EXPECT_GT(two_phase.outcome.done, segway.outcome.done);
}

TEST(UpdateCoordinator, TwoPhasePartialFlipFailureStrandsMixedState) {
  // Entry 1's flip (segment 1->3) is rejected after entries 0 and 2
  // already flipped. The naive controller gives up without rolling back:
  // the fabric is permanently 0->2->1->2... — a forwarding loop that is
  // neither the old nor the new path. This is exactly the inconsistency
  // ez-Segway's dependency order makes impossible (the failing entry
  // would have been flipped FIRST, before anything pointed at it).
  Harness h{two_phase_config()};
  h.fabric.fail(1, net::FlowModType::kModify);
  h.run({0, 1, 2, 3}, {0, 2, 1, 3});
  h.events.run_all();

  EXPECT_FALSE(h.outcome.committed);
  EXPECT_EQ(h.outcome.failed_ops, 1);
  EXPECT_EQ(h.outcome.rollback_flips, 0);  // no rollback protocol

  EXPECT_EQ(h.fabric.only_rule(0).action, net::forward_to(2));  // new
  EXPECT_EQ(h.fabric.only_rule(2).action, net::forward_to(1));  // new
  EXPECT_EQ(h.fabric.only_rule(1).action, net::forward_to(2));  // old
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kLoop);
  EXPECT_GT(h.checker.loop_instants(), 0);
}

/// The observed ops as (time, switch, verb, ok), for whole-timeline
/// comparisons.
using Op = std::tuple<Time, net::NodeId, net::FlowModType, bool>;
std::vector<Op> timeline(const std::vector<ObservedOp>& ops) {
  std::vector<Op> out;
  for (const ObservedOp& op : ops)
    out.emplace_back(op.time, op.sw, op.type, op.ok);
  return out;
}

constexpr auto kInsert = net::FlowModType::kInsert;
constexpr auto kModify = net::FlowModType::kModify;
constexpr auto kDelete = net::FlowModType::kDelete;

TEST(UpdateCoordinator, TwoPhaseCommitPaysRoundTripsAndRetiresOldRules) {
  // rtt 40, send gap 2, switch latency 10. Adds go out at 20 and 22 and
  // are acked at 50 and 52; the flip goes out at 72, lands at 82 (the
  // commit time) and is acked at 102; phase 3 then sends both removals
  // at 122 and 124.
  Harness h{two_phase_config()};
  h.run({0, 1, 2, 3}, {0, 4, 5, 3});
  h.events.run_all();

  EXPECT_TRUE(h.outcome.committed);
  EXPECT_FALSE(h.outcome.cancelled);
  EXPECT_EQ(h.outcome.adds, 2);
  EXPECT_EQ(h.outcome.flips, 1);
  EXPECT_EQ(h.outcome.failed_ops, 0);
  EXPECT_EQ(h.outcome.done, 82);
  EXPECT_EQ(timeline(h.ops),
            (std::vector<Op>{{30, 4, kInsert, true},
                             {32, 5, kInsert, true},
                             {82, 0, kModify, true},
                             {132, 1, kDelete, true},
                             {134, 2, kDelete, true}}));

  EXPECT_EQ(h.fabric.only_rule(0).id, net::RuleId{100});
  EXPECT_EQ(h.fabric.only_rule(0).action, net::forward_to(4));
  EXPECT_EQ(h.fabric.only_rule(4).action, net::forward_to(5));
  EXPECT_EQ(h.fabric.only_rule(5).action, net::forward_to(3));
  EXPECT_TRUE(h.fabric.empty(1));
  EXPECT_TRUE(h.fabric.empty(2));
  EXPECT_EQ(h.checker.violation_instants(), 0);
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kDelivered);
}

TEST(UpdateCoordinator, TwoPhaseAddFailureDeletesAddsAndIssuesNoFlip) {
  // The add at 5 is refused; at the add barrier (the last ack, 52) the
  // controller deletes the add that landed and aborts before any flip.
  Harness h{two_phase_config()};
  h.fabric.fail(5, kInsert);
  h.run({0, 1, 2, 3}, {0, 4, 5, 3});
  h.events.run_all();

  EXPECT_FALSE(h.outcome.committed);
  EXPECT_FALSE(h.outcome.cancelled);
  EXPECT_EQ(h.outcome.adds, 1);
  EXPECT_EQ(h.outcome.flips, 0);
  EXPECT_EQ(h.outcome.failed_ops, 1);
  EXPECT_EQ(h.outcome.done, 52);
  for (const ObservedOp& op : h.ops) EXPECT_NE(op.type, kModify);

  for (net::NodeId sw : {0, 1, 2})
    EXPECT_EQ(h.fabric.only_rule(sw), old_rule_for(sw, sw + 1));
  EXPECT_TRUE(h.fabric.empty(4));
  EXPECT_TRUE(h.fabric.empty(5));
  EXPECT_EQ(h.checker.violation_instants(), 0);
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kDelivered);
}

TEST(UpdateCoordinator, TwoPhaseCancelDuringAddPhaseDeletesLandedAdds) {
  // The add to 4 went out at 20; the cancel at 21 stops the add to 5
  // (due at 22). At 4's ack (50) the controller deletes it and stops.
  Harness h{two_phase_config()};
  std::uint64_t id = h.run({0, 1, 2, 3}, {0, 4, 5, 3});
  h.events.run_until(21);
  h.coordinator.cancel(id);
  h.events.run_all();

  EXPECT_TRUE(h.outcome.cancelled);
  EXPECT_FALSE(h.outcome.committed);
  EXPECT_EQ(h.outcome.adds, 1);
  EXPECT_EQ(h.outcome.flips, 0);
  EXPECT_EQ(h.outcome.done, 50);
  EXPECT_EQ(h.coordinator.active(), 0);
  for (const ObservedOp& op : h.ops) {
    EXPECT_NE(op.sw, 5);
    EXPECT_NE(op.type, kModify);
  }

  for (net::NodeId sw : {0, 1, 2})
    EXPECT_EQ(h.fabric.only_rule(sw), old_rule_for(sw, sw + 1));
  EXPECT_TRUE(h.fabric.empty(4));
  EXPECT_TRUE(h.fabric.empty(5));
  EXPECT_EQ(h.checker.violation_instants(), 0);
}

TEST(UpdateCoordinator, TwoPhaseCancelDuringFlipPhaseStopsTheFanOut) {
  // old 0-1-2-3-4, new 0-5-2-6-4. The flips are due at 72 (entry 0) and
  // 74 (entry 2); the cancel at 73 stops the second. The controller
  // still counts the first flip's ack (102), then deletes both adds. Like
  // its flip-phase failure, it does not un-flip: entry 0 is left
  // pointing at 5, whose add it just deleted.
  Harness h{two_phase_config()};
  std::uint64_t id = h.run({0, 1, 2, 3, 4}, {0, 5, 2, 6, 4});
  h.events.run_until(73);
  h.coordinator.cancel(id);
  h.events.run_all();

  EXPECT_TRUE(h.outcome.cancelled);
  EXPECT_FALSE(h.outcome.committed);
  EXPECT_EQ(h.outcome.adds, 2);
  EXPECT_EQ(h.outcome.flips, 1);
  EXPECT_EQ(h.outcome.done, 102);
  EXPECT_EQ(h.coordinator.active(), 0);
  int modifies = 0;
  for (const ObservedOp& op : h.ops) {
    if (op.type != kModify) continue;
    ++modifies;
    EXPECT_EQ(op.sw, 0);
    EXPECT_EQ(op.time, 82);
  }
  EXPECT_EQ(modifies, 1);

  EXPECT_EQ(h.fabric.only_rule(0).action, net::forward_to(5));
  for (net::NodeId sw : {1, 2, 3})
    EXPECT_EQ(h.fabric.only_rule(sw), old_rule_for(sw, sw + 1));
  EXPECT_TRUE(h.fabric.empty(5));
  EXPECT_TRUE(h.fabric.empty(6));
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kBlackhole);
}

TEST(UpdateCoordinator, CancelRightAfterBeginIssuesNothing) {
  struct Case {
    CoordinatorConfig config;
    net::Path new_path;
    Time done;  // when the cancel resolves
  };
  // kSegway resolves at once. kTwoPhase resolves when its first phase's
  // last send (adds at 20, 22; or, with no adds, flips at 20, 22, 24)
  // finds the transaction cancelled.
  const std::vector<Case> cases = {
      {segway_config(), {0, 4, 5, 3}, 0},
      {segway_config(), {0, 2, 1, 3}, 0},
      {two_phase_config(), {0, 4, 5, 3}, 22},
      {two_phase_config(), {0, 2, 1, 3}, 24},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "two_phase=" << (c.config.strategy == Strategy::kTwoPhase)
                 << " new_path[1]=" << c.new_path[1]);
    Harness h{c.config};
    std::uint64_t id = h.run({0, 1, 2, 3}, c.new_path);
    h.coordinator.cancel(id);
    h.events.run_all();

    EXPECT_TRUE(h.outcome.cancelled);
    EXPECT_FALSE(h.outcome.committed);
    EXPECT_EQ(h.outcome.adds, 0);
    EXPECT_EQ(h.outcome.flips, 0);
    EXPECT_EQ(h.outcome.done, c.done);
    EXPECT_EQ(h.coordinator.active(), 0);
    EXPECT_TRUE(h.ops.empty());
    for (net::NodeId sw : {0, 1, 2})
      EXPECT_EQ(h.fabric.only_rule(sw), old_rule_for(sw, sw + 1));
    EXPECT_TRUE(h.fabric.empty(4));
    EXPECT_TRUE(h.fabric.empty(5));
  }
}

TEST(UpdateCoordinator, RefusedUnflipReinsertsTheOldRule) {
  // old 0-1-2-3-4, new 0-5-2-6-4. Both flips go out at 15 and land at
  // 25: entry 0's succeeds, entry 2's is refused. From 20 on, entry 0
  // refuses modifies too (a reset wiped the flipped rule), so the
  // rollback's un-flip at 25 is refused at 35 and the coordinator
  // re-inserts the old rule instead (landing at 45).
  Harness h;
  h.fabric.fail(2, kModify);
  h.fabric.fail(0, kModify, 20);
  h.run({0, 1, 2, 3, 4}, {0, 5, 2, 6, 4});
  h.events.run_all();

  EXPECT_FALSE(h.outcome.committed);
  EXPECT_EQ(h.outcome.flips, 1);
  EXPECT_EQ(h.outcome.rollback_flips, 1);
  EXPECT_EQ(h.outcome.failed_ops, 2);  // entry 2's flip, entry 0's un-flip
  // Re-insert at 45, then one signal before the adds are deleted.
  EXPECT_EQ(h.outcome.done, 45 + kSignal);
  std::vector<Op> at_entry;
  for (const Op& op : timeline(h.ops))
    if (std::get<1>(op) == 0) at_entry.push_back(op);
  EXPECT_EQ(at_entry, (std::vector<Op>{{25, 0, kModify, true},
                                       {35, 0, kModify, false},
                                       {45, 0, kInsert, true}}));

  for (net::NodeId sw : {0, 1, 2, 3})
    EXPECT_EQ(h.fabric.only_rule(sw), old_rule_for(sw, sw + 1));
  EXPECT_TRUE(h.fabric.empty(5));
  EXPECT_TRUE(h.fabric.empty(6));
  EXPECT_EQ(h.checker.violation_instants(), 0);
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kDelivered);
}

TEST(UpdateCoordinator, RefusedRemovalIsCountedNotFatal) {
  // old 0-1-2-3-4, new 0-5-2-6-4, the add at 6 slow (lands at 100).
  // Entry 0 flips at 25, so old rule 1's removal goes out at 30 while
  // the transaction is still open, and is refused. The update is already
  // consistent there: the failure is counted and the transaction still
  // commits when entry 2 flips (115), leaving the unreachable rule at 1.
  Harness h;
  h.fabric.set_latency(6, 100);
  h.fabric.fail(1, kDelete);
  h.run({0, 1, 2, 3, 4}, {0, 5, 2, 6, 4});
  h.events.run_all();

  EXPECT_TRUE(h.outcome.committed);
  EXPECT_EQ(h.outcome.failed_ops, 1);
  EXPECT_EQ(h.outcome.done, 115);
  EXPECT_EQ(h.fabric.only_rule(1), old_rule_for(1, 2));
  EXPECT_TRUE(h.fabric.empty(3));
  EXPECT_EQ(h.fabric.only_rule(0).action, net::forward_to(5));
  EXPECT_EQ(h.fabric.only_rule(2).action, net::forward_to(6));
  EXPECT_EQ(h.checker.violation_instants(), 0);
  EXPECT_EQ(h.checker.trace(0), net::ForwardTrace::kDelivered);
}

TEST(UpdateCoordinator, RollbackDeleteReachesObserverAtItsCompletion) {
  // The add at 5 is refused at 10; the add at 4 (latency 30) lands at 30,
  // when the rollback deletes it. The observer sees that delete when it
  // completes (30 + 30), with the switch's verdict.
  for (bool refused : {false, true}) {
    SCOPED_TRACE(refused ? "delete refused" : "delete lands");
    Harness h;
    h.fabric.set_latency(4, 30);
    h.fabric.fail(5, kInsert);
    if (refused) h.fabric.fail(4, kDelete);
    h.run({0, 1, 2, 3}, {0, 4, 5, 3});
    h.events.run_all();

    EXPECT_FALSE(h.outcome.committed);
    EXPECT_EQ(h.outcome.done, 30);
    std::vector<Op> deletes;
    for (const Op& op : timeline(h.ops))
      if (std::get<2>(op) == kDelete) deletes.push_back(op);
    EXPECT_EQ(deletes, (std::vector<Op>{{60, 4, kDelete, !refused}}));
    EXPECT_EQ(h.fabric.empty(4), !refused);
    EXPECT_EQ(h.checker.violation_instants(), 0);
  }
}

}  // namespace
}  // namespace hermes::update
