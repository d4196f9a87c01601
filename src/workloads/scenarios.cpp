#include "workloads/scenarios.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/splitmix.h"
#include "workloads/bgp.h"
#include "workloads/microbench.h"
#include "workloads/zipf.h"

namespace hermes::workloads {
namespace {

// Every scenario derives all randomness from hash(seed, counter), so a
// replay with the same (name, seed, scale) is bit-identical.
using net::splitmix64;

/// Counter-based uniform helpers bound to one seed.
struct Draws {
  std::uint64_t seed;
  std::uint64_t counter = 0;

  std::uint64_t next() { return splitmix64(seed ^ splitmix64(counter++)); }
  double uniform() {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

int scaled(int count, double scale) {
  return std::max(1, static_cast<int>(std::lround(count * scale)));
}

Time finish(RuleTrace& trace) {
  std::stable_sort(trace.begin(), trace.end(),
                   [](const RuleEvent& a, const RuleEvent& b) {
                     return a.time < b.time;
                   });
  return trace.empty() ? from_millis(50)
                       : trace.back().time + from_millis(50);
}

// --- bgp_storm -------------------------------------------------------------
// A synthetic BGPStream feed (Section 2.3 burst profile: calm base rate
// with >1000 upd/s burst episodes) reduced through the Rib to the FIB
// actions that actually hit the TCAM.
Scenario bgp_storm(std::uint64_t seed, double scale) {
  BgpFeedConfig config;
  config.prefix_count = scaled(2500, scale);
  config.peer_count = 8;
  config.duration_s = 3.0 * scale;
  config.base_rate = 300.0;
  config.burst_rate = 8000.0;
  config.burst_probability = 0.05;
  config.mean_burst_s = 0.12;
  config.withdraw_fraction = 0.25;
  config.seed = seed;

  Scenario s;
  s.name = "bgp_storm";
  s.trace = fib_trace(bgp_feed(config));
  s.horizon = finish(s.trace);
  return s;
}

// --- cluster_shift ---------------------------------------------------------
// LazyCtrl-style cluster-local traffic: rules live in per-cluster /16s
// (10.c.0.0/16); one cluster is "hot" at a time and the hot cluster
// rotates periodically — each rotation bursts inserts for the newly hot
// cluster while the previous cluster's rules drain out as deletes.
Scenario cluster_shift(std::uint64_t seed, double scale) {
  constexpr int kClusters = 6;
  // Each rotation bursts ~100 rules in ~17 ms at 6000/s — below the
  // ~6700/s shadow-write service rate (no queueing collapse), past a
  // drained 64-entry shadow but inside an expanded 128-entry one: exactly
  // the regime that separates policies — then stays calm for the rest of
  // the period so any overflow drains. Scale shrinks the number of
  // rotations, never the arrival rate.
  const int rules_per_shift = 100;
  const Time shift_period = from_millis(250);
  const int shifts = std::max(3, scaled(12, scale));

  Draws draws{splitmix64(seed ^ 0xc1057e25ULL)};
  Scenario s;
  s.name = "cluster_shift";
  net::RuleId next_id = 1;
  std::vector<std::vector<net::RuleId>> installed(kClusters);

  for (int shift = 0; shift < shifts; ++shift) {
    int hot = shift % kClusters;
    Time start = shift * shift_period;
    Duration gap = from_micros(167);  // ~6000 rules/s inside the burst

    // Burst: the newly hot cluster's flow rules arrive front-loaded at
    // the start of the period.
    for (int i = 0; i < rules_per_shift; ++i) {
      net::Rule rule;
      rule.id = next_id++;
      rule.priority = 8 + static_cast<int>(draws.below(24));
      std::uint32_t sub = static_cast<std::uint32_t>(draws.below(1u << 16));
      rule.match = net::Prefix(
          net::Ipv4Address((10u << 24) |
                           (static_cast<std::uint32_t>(hot) << 16) | sub),
          draws.uniform() < 0.3 ? 24 : 32);
      rule.action = net::forward_to(static_cast<int>(draws.below(32)));
      installed[static_cast<std::size_t>(hot)].push_back(rule.id);
      s.trace.push_back(
          {start + i * gap, {net::FlowModType::kInsert, rule}});
    }

    // Drain: the previously hot cluster's rules leave during the second
    // half (deletes are cheap; the churn is in the inserts above).
    int cold = (shift + kClusters - 1) % kClusters;
    std::vector<net::RuleId>& old =
        installed[static_cast<std::size_t>(cold)];
    if (shift > 0 && !old.empty()) {
      Time drain_start = start + shift_period / 2;
      Duration drain_gap =
          shift_period / (2 * static_cast<Duration>(old.size()) + 2);
      for (std::size_t i = 0; i < old.size(); ++i) {
        net::Rule rule;
        rule.id = old[i];
        s.trace.push_back({drain_start + static_cast<Duration>(i) * drain_gap,
                           {net::FlowModType::kDelete, rule}});
      }
      old.clear();
    }
  }
  s.horizon = finish(s.trace);
  return s;
}

// --- fault_sweep -----------------------------------------------------------
// A bursty MicroBench insertion stream over an imperfect substrate:
// write failures and channel stalls on every slice. Exercises the
// retry machinery and the fault-rate dimension of the policy state.
// Arrivals alternate calm (600/s) and burst (6000/s) phases — the burst
// rate stays below the shadow-write service rate so the tail reflects
// shadow-overflow plus fault-path costs, not open-loop queue collapse.
Scenario fault_sweep(std::uint64_t seed, double scale) {
  MicroBenchConfig config;
  config.count = scaled(2400, scale);
  config.rate = 1500.0;  // placeholder; arrivals are re-timed below
  config.overlap_rate = 0.1;
  config.priorities = PriorityPattern::kRandom;
  config.seed = seed;

  Scenario s;
  s.name = "fault_sweep";
  s.trace = microbench_trace(config);

  // Re-time the stream into calm/burst phases (counter-based draws, so
  // the phase layout is part of the deterministic trace).
  Draws draws{splitmix64(seed ^ 0x0fa5eULL)};
  Time t = 0;
  bool burst = false;
  int phase_left = 0;
  for (RuleEvent& ev : s.trace) {
    if (phase_left == 0) {
      burst = draws.uniform() < 0.35;
      phase_left = 40 + static_cast<int>(draws.below(120));
    }
    --phase_left;
    t += static_cast<Duration>(burst ? 1e9 / 6000.0 : 1e9 / 600.0);
    ev.time = t;
  }

  // Rolling occupancy window: a trailing delete keeps ~400 rules
  // resident, so per-insert cost stays bounded over the whole sweep.
  constexpr int kWindow = 400;
  std::size_t inserts = s.trace.size();
  for (std::size_t i = static_cast<std::size_t>(kWindow); i < inserts; ++i) {
    net::Rule victim;
    victim.id = s.trace[i - kWindow].mod.rule.id;
    s.trace.push_back(
        {s.trace[i].time, {net::FlowModType::kDelete, victim}});
  }
  s.horizon = finish(s.trace);

  fault::FaultPlanConfig faults;
  faults.seed = splitmix64(seed ^ 0xfa17ULL);
  faults.default_slice.write_failure_prob = 0.03;
  faults.default_slice.stall_min = from_micros(20);
  faults.default_slice.stall_max = from_micros(80);
  s.faults = faults;
  return s;
}

// --- multi_tenant_qos ------------------------------------------------------
// Multi-tenant Zipf mix: per-tenant defaults and aggregates install
// up-front, then /32 flow rules arrive in Zipf-popularity order with
// bursty arrivals (calm/burst phases) and a rolling occupancy window —
// the oldest flow rule leaves whenever the window overflows.
Scenario multi_tenant_qos(std::uint64_t seed, double scale) {
  ZipfConfig config;
  config.flows = 4000;
  config.tenants = 4;
  config.skew = 0.99;
  config.aggregates_per_tenant = 8;
  config.seed = seed;

  const int arrivals = scaled(2800, scale);
  const int window = scaled(900, scale);

  Scenario s;
  s.name = "multi_tenant_qos";
  std::vector<net::Rule> rules = make_zipf_rules(config);

  // Defaults + aggregates first (they carry ids >= kZipfAggregateIdBase
  // and low priorities), spaced out during a 50 ms warmup.
  std::vector<net::Rule> base;
  std::vector<net::Rule> flows;
  for (const net::Rule& r : rules)
    (r.id >= kZipfAggregateIdBase ? base : flows).push_back(r);
  for (std::size_t i = 0; i < base.size(); ++i)
    s.trace.push_back(
        {static_cast<Duration>(i) * from_millis(50) /
             (static_cast<Duration>(base.size()) + 1),
         {net::FlowModType::kInsert, base[i]}});

  // Flow arrivals: Zipf ranks over the per-tenant flow population, with
  // already-installed flows skipped (re-reference, no flow-mod) and a
  // rolling delete keeping at most `window` flow rules resident.
  Draws draws{splitmix64(seed ^ 0x9a05ULL)};
  ZipfGenerator zipf(static_cast<std::uint64_t>(config.flows / config.tenants),
                     config.skew, splitmix64(seed ^ 0x21afULL));
  std::vector<bool> resident(static_cast<std::size_t>(config.flows) + 1,
                             false);
  std::vector<net::RuleId> fifo;
  std::size_t fifo_head = 0;
  Time t = from_millis(50);
  int tenant = 0;
  bool burst = false;
  int phase_left = 0;
  for (int i = 0; i < arrivals; ++i) {
    if (phase_left == 0) {
      burst = draws.uniform() < 0.35;
      phase_left = 40 + static_cast<int>(draws.below(120));
    }
    --phase_left;
    double rate = burst ? 6000.0 : 600.0;
    t += static_cast<Duration>(1e9 / rate);
    std::uint64_t rank = zipf.next();
    std::size_t idx = static_cast<std::size_t>(tenant) *
                          static_cast<std::size_t>(config.flows /
                                                   config.tenants) +
                      rank;
    tenant = (tenant + 1) % config.tenants;
    if (idx >= flows.size() || resident[flows[idx].id]) continue;
    resident[flows[idx].id] = true;
    fifo.push_back(flows[idx].id);
    s.trace.push_back({t, {net::FlowModType::kInsert, flows[idx]}});
    if (fifo.size() - fifo_head > static_cast<std::size_t>(window)) {
      net::Rule victim;
      victim.id = fifo[fifo_head++];
      resident[victim.id] = false;
      s.trace.push_back({t, {net::FlowModType::kDelete, victim}});
    }
  }
  s.horizon = finish(s.trace);
  return s;
}

// --- reroute_storm ---------------------------------------------------------
// A stable installed base hit by repeated reroute storms: each storm
// re-prioritizes a random slice of the base with kModify flow-mods.
// Priority-changing modifies decompose into delete + insert in the TCAM
// (Section 4.1), so storms stress exactly the shift-heavy path.
Scenario reroute_storm(std::uint64_t seed, double scale) {
  const int base_rules = scaled(1200, scale);
  const int storms = 4;
  const double storm_fraction = 0.35;

  Draws draws{splitmix64(seed ^ 0x5707ULL)};
  Scenario s;
  s.name = "reroute_storm";

  // Base: disjoint /24s under 172.16.0.0/12, steady 2000/s arrivals.
  std::vector<net::Rule> base;
  base.reserve(static_cast<std::size_t>(base_rules));
  for (int i = 0; i < base_rules; ++i) {
    net::Rule rule;
    rule.id = static_cast<net::RuleId>(i + 1);
    rule.priority = 8 + static_cast<int>(draws.below(32));
    rule.match = net::Prefix(
        net::Ipv4Address((172u << 24) | (16u << 16) |
                         (static_cast<std::uint32_t>(i) << 8)),
        24);
    rule.action = net::forward_to(static_cast<int>(draws.below(32)));
    base.push_back(rule);
    s.trace.push_back({static_cast<Duration>(i) * from_micros(500),
                       {net::FlowModType::kInsert, rule}});
  }

  Time t = static_cast<Duration>(base_rules) * from_micros(500) +
           from_millis(100);
  for (int storm = 0; storm < storms; ++storm) {
    for (net::Rule& rule : base) {
      if (draws.uniform() >= storm_fraction) continue;
      rule.priority = 8 + static_cast<int>(draws.below(32));
      rule.action = net::forward_to(static_cast<int>(draws.below(32)));
      t += static_cast<Duration>(1e9 / 5000.0);  // 5000 modifies/s
      s.trace.push_back({t, {net::FlowModType::kModify, rule}});
    }
    t += from_millis(150);  // calm gap between storms
  }
  s.horizon = finish(s.trace);
  return s;
}

}  // namespace

std::vector<std::string> scenario_names() {
  return {"bgp_storm", "cluster_shift", "fault_sweep", "multi_tenant_qos",
          "reroute_storm"};
}

Scenario make_scenario(std::string_view name, std::uint64_t seed,
                       double scale) {
  if (name == "bgp_storm") return bgp_storm(seed, scale);
  if (name == "cluster_shift") return cluster_shift(seed, scale);
  if (name == "fault_sweep") return fault_sweep(seed, scale);
  if (name == "multi_tenant_qos") return multi_tenant_qos(seed, scale);
  if (name == "reroute_storm") return reroute_storm(seed, scale);
  assert(false && "unknown scenario name");
  return {};
}

}  // namespace hermes::workloads
