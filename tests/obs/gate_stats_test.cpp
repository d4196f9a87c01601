// Cross-layer invariants of the admission counters on a replayed
// insertion trace: every insert makes exactly one Gate Keeper routing
// decision (GateKeeperStats), the routes map onto the agent's placement
// counters (AgentStats), and the process-attached aggregates agree with
// the per-instance stats they sum.
#include <gtest/gtest.h>

#include "hermes/hermes_agent.h"
#include "obs/metrics.h"
#include "tcam/switch_model.h"
#include "workloads/microbench.h"

namespace hermes::core {
namespace {

TEST(ObsGateStats, RejectionReasonCountersMatchAgentStatsOnReplay) {
  // Tight shadow + starved token bucket + no ticks (so no migration ever
  // frees the shadow): the replay must exercise the guaranteed path, the
  // over-rate rejection and the shadow-full rejection.
  HermesConfig config;
  config.guarantee = from_millis(5);
  config.shadow_capacity = 8;
  config.token_rate = 40;
  config.token_burst = 4;

  workloads::MicroBenchConfig mb;
  mb.count = 300;
  mb.rate = 1000;
  mb.overlap_rate = 0.0;  // single-piece partitions: exact equalities below
  mb.seed = 11;
  workloads::RuleTrace trace = workloads::microbench_trace(mb);

  // Components capture the attached registry at construction, so attach
  // before the agent is built.
  obs::Registry attached;
  obs::attach(&attached);
  HermesAgent agent(tcam::pica8_p3290(), 4096, config);
  for (const auto& event : trace) agent.handle(event.time, event.mod);
  obs::attach(nullptr);

  const AgentStats& stats = agent.stats();
  const GateKeeperStats& gate = agent.gate_keeper().stats();

  // The scenario must actually exercise the interesting routes.
  EXPECT_GT(gate.guaranteed, 0u);
  EXPECT_GT(gate.over_rate, 0u);
  EXPECT_GT(gate.shadow_full, 0u);

  // Every insert makes exactly one routing decision.
  EXPECT_EQ(gate.guaranteed + gate.unmatched + gate.over_rate +
                gate.lowest_priority + gate.shadow_full,
            stats.inserts);
  EXPECT_EQ(stats.inserts, trace.size());

  // With zero overlap every rule is a single piece, so a guaranteed route
  // never falls back on partition overflow and never dedups as redundant:
  // the route counters map 1:1 onto the agent's placement counters.
  EXPECT_EQ(stats.redundant_inserts, 0u);
  EXPECT_EQ(gate.guaranteed, stats.guaranteed_inserts);
  EXPECT_EQ(gate.unmatched + gate.over_rate + gate.lowest_priority +
                gate.shadow_full,
            stats.main_inserts);

  // The process-attached aggregates sum the per-instance stats:
  // tcam.inserts over both slices' TableStats, and one op-latency sample
  // per RIT sample.
  EXPECT_EQ(attached.counter_value("tcam.inserts"),
            agent.asic().slice(0).stats().inserts +
                agent.asic().slice(1).stats().inserts);
  EXPECT_EQ(attached.histogram_summary("agent.op_latency_ns").count,
            agent.rit_samples().size());
}

TEST(ObsGateStats, StandaloneGateKeeperCountsEachRoute) {
  HermesConfig config;
  GateKeeper gate(config, /*token_rate=*/1.0, /*token_burst=*/1.0);
  RouteContext ctx;
  ctx.shadow_free = 4;
  // A populated main table whose bottom sits below this rule's priority,
  // so the Section 4.2 lowest-priority append does not claim the insert.
  ctx.main_empty = false;
  ctx.main_min_priority = 1;
  net::Rule rule{1, 10, net::Prefix(net::Ipv4Address(0x0A000000u), 24),
                 net::forward_to(1)};
  EXPECT_EQ(gate.route_insert(0, rule, ctx), Route::kGuaranteed);
  // Bucket of one token: the second insert at the same instant is over
  // the agreed rate.
  EXPECT_EQ(gate.route_insert(0, rule, ctx), Route::kMainOverRate);
  EXPECT_EQ(gate.stats().guaranteed, 1u);
  EXPECT_EQ(gate.stats().over_rate, 1u);
}

}  // namespace
}  // namespace hermes::core
