// Mid-update switch reset / write-failure regression suite: the update
// coordinator driving REAL per-switch HermesBackends under deterministic
// FaultPlans. The pinned property is Hermes's "old-or-new, never a mix":
// whatever faults hit mid-transaction — a switch reset wiping its
// hardware tables, or an insert rejected past the retry budget — after
// the transaction resolves and reconciliation ticks run, the network
// forwards the flow along EITHER the complete old path or the complete
// new path. The naive two-phase baseline demonstrably violates this
// (partial first-install strands a mixed state), which is why the
// simulator runs kSegway.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/hermes_backend.h"
#include "fault/fault_plan.h"
#include "hermes/hermes_agent.h"
#include "net/update_plan.h"
#include "sim/event_queue.h"
#include "tcam/switch_model.h"
#include "update/update_coordinator.h"

namespace hermes::update {
namespace {

constexpr Time kBegin = from_millis(10);
const net::Ipv4Address kFlowAddr = *net::Ipv4Address::parse("10.0.0.1");

core::HermesConfig agent_config() {
  core::HermesConfig config;
  config.guarantee = from_millis(5);
  config.token_rate = 1e9;
  config.token_burst = 1e9;
  return config;
}

/// A fabric of real HermesBackends, one per switch, each with its own
/// (optional) FaultPlan, driven by an UpdateCoordinator.
struct ResetHarness {
  explicit ResetHarness(int num_switches, CoordinatorConfig config) {
    for (int sw = 0; sw < num_switches; ++sw) {
      backends.push_back(std::make_unique<baselines::HermesBackend>(
          tcam::pica8_p3290(), 2000, agent_config()));
      plans.push_back(nullptr);
    }
    coordinator = std::make_unique<UpdateCoordinator>(
        events,
        [this](Time now, net::NodeId sw, net::FlowModBatch& batch) {
          backends[static_cast<std::size_t>(sw)]->handle_batch(now, batch);
        },
        config);
  }

  /// Attaches `fault_config` as switch `sw`'s fault plan.
  void inject(net::NodeId sw, fault::FaultPlanConfig fault_config) {
    auto idx = static_cast<std::size_t>(sw);
    plans[idx] = std::make_unique<fault::FaultPlan>(fault_config);
    backends[idx]->set_fault_plan(plans[idx].get());
  }

  net::Rule rule_for(net::NodeId successor, net::RuleId id) const {
    return net::Rule{id, 1, net::Prefix(kFlowAddr, 32),
                     net::forward_to(static_cast<int>(successor))};
  }

  /// Installs the flow's rules along `path` directly (pre-transaction
  /// state) and returns the old_rules map for the TxnRequest.
  std::unordered_map<net::NodeId, net::Rule> seed_path(const net::Path& path) {
    std::unordered_map<net::NodeId, net::Rule> rules;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      net::Rule rule =
          rule_for(path[i + 1], 100 + static_cast<net::RuleId>(path[i]));
      backends[static_cast<std::size_t>(path[i])]->handle(
          0, {net::FlowModType::kInsert, rule});
      rules.emplace(path[i], rule);
    }
    return rules;
  }

  std::uint64_t reroute(const net::Path& old_path, const net::Path& new_path,
                        std::unordered_map<net::NodeId, net::Rule> old_rules) {
    UpdateCoordinator::TxnRequest req;
    req.plan = net::plan_update(old_path, new_path);
    req.old_rules = std::move(old_rules);
    for (std::size_t i = 0; i + 1 < new_path.size(); ++i)
      req.new_rules.emplace(
          new_path[i], rule_for(new_path[i + 1],
                                200 + static_cast<net::RuleId>(new_path[i])));
    return coordinator->begin(
        kBegin, std::move(req),
        [this](Time, const TxnOutcome& o) { outcome = o; });
  }

  /// Ticks every backend (applying due resets and running reconciliation).
  void tick_all(Time now) {
    for (auto& backend : backends) backend->tick(now);
  }

  /// The flow's next hop at `sw` per the data plane at `now` (-1 = none).
  int next_hop(net::NodeId sw, Time now) {
    const net::Rule* hit =
        backends[static_cast<std::size_t>(sw)]->lookup_ptr(now, kFlowAddr);
    return hit ? hit->action.port : -1;
  }

  /// True iff the data plane forwards the flow along exactly `path` and
  /// no switch outside it answers.
  ::testing::AssertionResult forwards_along(const net::Path& path, Time now) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      int port = next_hop(path[i], now);
      if (port != static_cast<int>(path[i + 1]))
        return ::testing::AssertionFailure()
               << "switch " << path[i] << " forwards to " << port
               << ", expected " << path[i + 1];
    }
    for (std::size_t sw = 0; sw < backends.size(); ++sw) {
      bool on_path = false;
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        if (path[i] == static_cast<net::NodeId>(sw)) on_path = true;
      if (on_path) continue;
      int port = next_hop(static_cast<net::NodeId>(sw), now);
      if (port != -1)
        return ::testing::AssertionFailure()
               << "off-path switch " << sw << " still answers (port " << port
               << ")";
    }
    return ::testing::AssertionSuccess();
  }

  sim::EventQueue events;
  std::vector<std::unique_ptr<baselines::HermesBackend>> backends;
  std::vector<std::unique_ptr<fault::FaultPlan>> plans;
  std::unique_ptr<UpdateCoordinator> coordinator;
  TxnOutcome outcome;
};

CoordinatorConfig segway_config() {
  CoordinatorConfig c;
  c.signal_delay = from_millis(1);
  return c;
}

CoordinatorConfig two_phase_config() {
  CoordinatorConfig c;
  c.strategy = Strategy::kTwoPhase;
  c.ctrl_rtt = from_millis(2);
  c.ctrl_send_gap = from_micros(10);
  return c;
}

TEST(UpdateReset, MidUpdateResetConvergesToNewPathAfterReconciliation) {
  // Reroute 0-1-2-3 -> 0-4-5-3. Switch 4's hardware resets AFTER the new
  // rule landed there; the coordinator (unaware) commits. Reconciliation
  // must reinstall the wiped rule from the RuleStore so the fabric ends
  // on the complete NEW path — never a committed path with a hole in it.
  ResetHarness h(6, segway_config());
  fault::FaultPlanConfig fc;
  fc.seed = 7;
  fc.resets = {kBegin + from_millis(2)};
  h.inject(4, fc);

  auto old_rules = h.seed_path({0, 1, 2, 3});
  h.reroute({0, 1, 2, 3}, {0, 4, 5, 3}, std::move(old_rules));
  h.events.run_all();

  ASSERT_TRUE(h.outcome.committed);
  EXPECT_EQ(h.outcome.failed_ops, 0);

  // Reconciliation tick: the reset is consumed at this channel activity
  // and the agent reinstalls everything it still owns.
  const Time settle = kBegin + from_millis(50);
  h.tick_all(settle);
  EXPECT_EQ(h.plans[4]->resets_fired(), 1u);
  const auto& stats = h.backends[4]->agent().stats();
  EXPECT_EQ(stats.reconcile_runs, 1u);
  EXPECT_GE(stats.reconcile_rules_reinstalled, 1u);

  EXPECT_TRUE(h.forwards_along({0, 4, 5, 3}, settle + 1));
}

TEST(UpdateReset, FailedAddPlusResetAbortsToCompleteOldPath) {
  // Switch 5 rejects its insert outright (write failures past the retry
  // budget on both slices) — the transaction aborts before any flip. An
  // unrelated reset also wipes old-path switch 1 mid-update. After the
  // rollback deletes the sibling add and reconciliation restores switch
  // 1, the fabric is back on the complete OLD path.
  ResetHarness h(6, segway_config());
  fault::FaultPlanConfig reject_fc;
  reject_fc.seed = 11;
  reject_fc.default_slice.write_failure_prob = 1.0;
  h.inject(5, reject_fc);
  fault::FaultPlanConfig reset_fc;
  reset_fc.seed = 13;
  reset_fc.resets = {kBegin + from_millis(1)};
  h.inject(1, reset_fc);

  auto old_rules = h.seed_path({0, 1, 2, 3});
  h.reroute({0, 1, 2, 3}, {0, 4, 5, 3}, std::move(old_rules));
  h.events.run_all();

  ASSERT_FALSE(h.outcome.committed);
  EXPECT_GE(h.outcome.failed_ops, 1);
  EXPECT_EQ(h.outcome.flips, 0);

  const Time settle = kBegin + from_millis(50);
  h.tick_all(settle);
  EXPECT_EQ(h.plans[1]->resets_fired(), 1u);
  EXPECT_EQ(h.backends[1]->agent().stats().reconcile_runs, 1u);

  EXPECT_TRUE(h.forwards_along({0, 1, 2, 3}, settle + 1));
}

TEST(UpdateReset, SegwayFirstInstallIsAllOrNothing) {
  // First install (no old rules): every flip is an insert. Switch 1
  // rejects its insert; the rollback must retire the inserts that DID
  // land, leaving the fabric empty — the "old" state for a first
  // install — rather than a partial path.
  ResetHarness h(4, segway_config());
  fault::FaultPlanConfig reject_fc;
  reject_fc.seed = 17;
  reject_fc.default_slice.write_failure_prob = 1.0;
  h.inject(1, reject_fc);

  const net::Path path{0, 1, 2, 3};
  h.reroute(path, path, /*old_rules=*/{});
  h.events.run_all();

  ASSERT_FALSE(h.outcome.committed);
  EXPECT_GE(h.outcome.failed_ops, 1);
  for (net::NodeId sw : {0, 1, 2})
    EXPECT_EQ(h.next_hop(sw, kBegin + from_millis(50)), -1)
        << "switch " << sw;
}

TEST(UpdateReset, TwoPhasePartialFirstInstallStrandsMixedState) {
  // Identical scenario under the naive two-phase controller: it fires
  // every insert, sees switch 1's failure, and simply gives up. Switches
  // 0 and 2 keep their new rules while 1 has none — a forwarding state
  // that is neither the empty old state nor the complete new path. This
  // mix is the regression kSegway exists to prevent.
  ResetHarness h(4, two_phase_config());
  fault::FaultPlanConfig reject_fc;
  reject_fc.seed = 17;
  reject_fc.default_slice.write_failure_prob = 1.0;
  h.inject(1, reject_fc);

  const net::Path path{0, 1, 2, 3};
  h.reroute(path, path, /*old_rules=*/{});
  h.events.run_all();

  ASSERT_FALSE(h.outcome.committed);
  const Time settle = kBegin + from_millis(50);
  EXPECT_EQ(h.next_hop(0, settle), 1);   // new rule stranded
  EXPECT_EQ(h.next_hop(2, settle), 3);   // new rule stranded
  EXPECT_EQ(h.next_hop(1, settle), -1);  // hole: the mix
}

}  // namespace
}  // namespace hermes::update
