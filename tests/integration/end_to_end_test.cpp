// Cross-module integration tests: workload generators -> backends ->
// semantics, the BGP pipeline end-to-end, full-simulator determinism,
// and the operator API driving a live workload.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "baselines/hermes_backend.h"
#include "baselines/plain_switch.h"
#include "hermes/qos_api.h"
#include "sim/simulation.h"
#include "tcam/switch_model.h"
#include "workloads/bgp.h"
#include "workloads/facebook.h"
#include "workloads/gravity.h"
#include "workloads/microbench.h"

namespace hermes {
namespace {

// Replays `trace` through a backend with periodic ticks; returns the time
// of the final tick.
Time replay(baselines::SwitchBackend& sw, const workloads::RuleTrace& trace) {
  Time tick = from_millis(1);
  for (const auto& event : trace) {
    while (tick <= event.time) {
      sw.tick(tick);
      tick += from_millis(1);
    }
    sw.handle(event.time, event.mod);
  }
  sw.tick(tick + from_millis(100));
  return tick + from_millis(100);
}

TEST(EndToEnd, MicrobenchThroughHermesMatchesMonolithicSemantics) {
  // The Section 4 guarantee, driven by the actual workload generator
  // (overlap-heavy) rather than the unit-test fuzzer.
  workloads::MicroBenchConfig mb;
  mb.count = 1500;
  mb.rate = 500;
  mb.overlap_rate = 0.8;
  mb.seed = 99;
  auto trace = workloads::microbench_trace(mb);

  core::HermesConfig config;
  config.token_rate = 1e9;
  config.token_burst = 1e9;
  baselines::HermesBackend hermes_sw(tcam::pica8_p3290(), 32768, config);
  const Time end = replay(hermes_sw, trace);

  // Reference: logical rules, highest priority wins; ties broken by the
  // physical table are acceptable, so compare priorities.
  std::vector<net::Rule> logical;
  for (const auto& event : trace) logical.push_back(event.mod.rule);
  std::mt19937_64 rng(5);
  for (int s = 0; s < 3000; ++s) {
    net::Ipv4Address addr(static_cast<std::uint32_t>(rng()));
    const net::Rule* best = nullptr;
    for (const net::Rule& r : logical) {
      if (!r.match.contains(addr)) continue;
      if (!best || r.priority > best->priority) best = &r;
    }
    const net::Rule* got = hermes_sw.lookup_ptr(end, addr);
    if (!best) {
      EXPECT_EQ(got, nullptr) << addr.to_string();
    } else {
      ASSERT_NE(got, nullptr) << addr.to_string();
      EXPECT_EQ(got->priority, best->priority) << addr.to_string();
    }
  }
}

TEST(EndToEnd, BgpPipelineFibMatchesRibBestPaths) {
  workloads::BgpFeedConfig config = workloads::nwax_portland();
  config.duration_s = 15;
  config.prefix_count = 400;
  auto feed = workloads::bgp_feed(config);

  workloads::Rib rib;
  baselines::HermesBackend router(tcam::pica8_p3290(), 8192, {});
  std::map<std::string, int> expected_fib;  // prefix -> peer
  Time tick = from_millis(1);
  for (const auto& update : feed) {
    while (tick <= update.time) {
      router.tick(tick);
      tick += from_millis(1);
    }
    if (auto mod = rib.apply(update)) {
      router.handle(update.time, *mod);
      if (mod->type == net::FlowModType::kDelete)
        expected_fib.erase(mod->rule.match.to_string());
      else
        expected_fib[mod->rule.match.to_string()] = mod->rule.action.port;
    }
  }
  // Longest-prefix-match semantics: probing each FIB prefix's base
  // address must forward to the peer of the LONGEST FIB prefix covering
  // it. (The physical hit may be a partition piece — a sub-prefix — but
  // pieces inherit the original's action.)
  int checked = 0;
  for (const auto& [prefix_str, peer] : expected_fib) {
    auto prefix = net::Prefix::parse(prefix_str);
    ASSERT_TRUE(prefix.has_value());
    net::Ipv4Address probe = prefix->address();
    // Reference LPM over the expected FIB.
    int best_len = -1;
    int best_peer = -1;
    for (const auto& [other_str, other_peer] : expected_fib) {
      auto other = net::Prefix::parse(other_str);
      if (other->contains(probe) && other->length() > best_len) {
        best_len = other->length();
        best_peer = other_peer;
      }
    }
    const net::Rule* hit = router.lookup_ptr(tick, probe);
    ASSERT_NE(hit, nullptr) << prefix_str;
    EXPECT_EQ(hit->action.port, best_peer) << prefix_str;
    ++checked;
  }
  EXPECT_GT(checked, 100);
}

TEST(EndToEnd, SimulatorIsDeterministic) {
  auto run_once = [] {
    net::Topology topo = net::fat_tree(4, 1e9);
    workloads::FacebookConfig fb;
    fb.job_count = 40;
    fb.duration_s = 5;
    fb.seed = 21;
    auto jobs = workloads::facebook_jobs(fb, topo.hosts());
    sim::SimConfig config;
    config.seed = 3;
    config.backend_factory = [](net::NodeId, const std::string&) {
      return std::make_unique<baselines::HermesBackend>(
          tcam::pica8_p3290(), 4096);
    };
    sim::Simulation simulation(topo, config);
    simulation.add_jobs(jobs);
    simulation.run();
    return simulation.job_results();
  };
  auto a = run_once();
  auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job_id, b[i].job_id);
    EXPECT_EQ(a[i].completion, b[i].completion);
  }
}

TEST(EndToEnd, QoSManagerDrivesLiveWorkload) {
  core::QoSManager manager;
  manager.register_switch(1, tcam::dell_8132f(), 4096);
  auto qos = manager.CreateTCAMQoS(1, from_millis(5), core::match_all());
  ASSERT_TRUE(qos.has_value());
  core::HermesAgent* agent = manager.agent(qos->id);

  workloads::MicroBenchConfig mb;
  mb.count = 800;
  mb.rate = qos->max_burst_rate / 2;  // stay inside the admitted rate
  mb.overlap_rate = 0.3;
  mb.seed = 31;
  auto trace = workloads::microbench_trace(mb);
  Time tick = from_millis(1);
  for (const auto& event : trace) {
    while (tick <= event.time) {
      agent->tick(tick);
      tick += from_millis(1);
    }
    agent->handle(event.time, event.mod);
  }
  // Inside the admitted envelope nothing is ever rejected over-rate and
  // the per-action guarantee holds (worst_guaranteed_latency tracks the
  // full multi-piece sojourn, so allow it a small queueing factor).
  EXPECT_EQ(agent->gate_keeper().stats().over_rate, 0u);
  EXPECT_EQ(agent->stats().violations, 0u);
  EXPECT_LE(agent->stats().worst_guaranteed_latency, 3 * from_millis(5));
}

TEST(EndToEnd, HermesAndPlainAgreeAfterMixedWorkloadWithDeletes) {
  // Insert/delete/modify stream generated from the microbench inserts;
  // both implementations must end with equivalent data planes.
  workloads::MicroBenchConfig mb;
  mb.count = 600;
  mb.rate = 2000;
  mb.overlap_rate = 0.5;
  mb.seed = 13;
  auto inserts = workloads::microbench_trace(mb);

  workloads::RuleTrace trace;
  std::mt19937_64 rng(17);
  std::vector<net::Rule> live;
  for (const auto& event : inserts) {
    trace.push_back(event);
    live.push_back(event.mod.rule);
    if (live.size() > 3 && rng() % 4 == 0) {
      std::size_t victim = rng() % live.size();
      net::FlowMod del{net::FlowModType::kDelete, live[victim]};
      trace.push_back({event.time, del});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (!live.empty() && rng() % 5 == 0) {
      std::size_t victim = rng() % live.size();
      live[victim].action = net::forward_to(static_cast<int>(rng() % 40));
      net::FlowMod mod{net::FlowModType::kModify, live[victim]};
      trace.push_back({event.time, mod});
    }
  }

  core::HermesConfig config;
  config.token_rate = 1e9;
  config.token_burst = 1e9;
  baselines::HermesBackend hermes_sw(tcam::pica8_p3290(), 32768, config);
  baselines::PlainSwitch plain_sw(tcam::pica8_p3290(), 32768);
  const Time end = replay(hermes_sw, trace);
  replay(plain_sw, trace);

  std::mt19937_64 probe_rng(23);
  for (int s = 0; s < 2000; ++s) {
    net::Ipv4Address addr(static_cast<std::uint32_t>(probe_rng()));
    const net::Rule* h = hermes_sw.lookup_ptr(end, addr);
    const net::Rule* p = plain_sw.lookup_ptr(end, addr);
    ASSERT_EQ(h != nullptr, p != nullptr) << addr.to_string();
    if (h) {
      EXPECT_EQ(h->priority, p->priority) << addr.to_string();
    }
  }
}

TEST(EndToEnd, GravityWorkloadOnAllIspTopologies) {
  for (auto topo_fn : {net::abilene, net::geant, net::quest}) {
    net::Topology topo = topo_fn();
    workloads::GravityConfig g;
    g.total_traffic_bps = 2e9;
    g.duration_s = 5;
    auto flows = workloads::gravity_flows(topo, g);
    sim::SimConfig config;
    config.backend_factory = [](net::NodeId, const std::string&) {
      return std::make_unique<baselines::HermesBackend>(
          tcam::pica8_p3290(), 4096);
    };
    sim::Simulation simulation(topo, config);
    simulation.add_flows(flows);
    simulation.run();
    EXPECT_EQ(simulation.flow_results().size(), flows.size());
  }
}

}  // namespace
}  // namespace hermes
