// Quickstart: carve a switch's TCAM with Hermes and watch insertion
// latency become flat and bounded.
//
//   $ ./quickstart
//
// Walks through the core API: pick a switch model, create a Hermes agent
// (or a whole QoS configuration via QoSManager), insert rules, observe
// latencies, and inspect the two tables.
#include <cstdio>

#include "hermes/hermes_agent.h"
#include "hermes/qos_api.h"
#include "tcam/switch_model.h"

using namespace hermes;

int main() {
  std::printf("=== Hermes quickstart ===\n\n");

  // 1. The switch: a Pica8 P-3290 model with a 4096-entry TCAM.
  const tcam::SwitchModel& model = tcam::pica8_p3290();
  std::printf("switch: %s (insert at occupancy 1000 costs %.1f ms)\n",
              model.name().c_str(),
              to_millis(model.insert_latency(1000)));

  // 2. Ask the operator API what a 5 ms guarantee costs, then create it.
  core::QoSManager manager;
  manager.register_switch(/*id=*/1, model, /*tcam_capacity=*/4096);
  double overhead =
      manager.QoSOverheads(1, from_millis(5), core::match_all());
  std::printf("a 5 ms guarantee costs %.1f%% of the TCAM\n",
              overhead * 100);

  auto qos = manager.CreateTCAMQoS(1, from_millis(5), core::match_all());
  if (!qos) {
    std::printf("CreateTCAMQoS failed\n");
    return 1;
  }
  std::printf("created QoS #%d: shadow=%d entries, admitted burst rate="
              "%.0f inserts/s\n\n",
              qos->id, qos->shadow_capacity, qos->max_burst_rate);

  core::HermesAgent& agent = *manager.agent(qos->id);

  // 3. Insert 2000 ascending-priority rules — the worst case for a plain
  //    TCAM (every insert shifts everything below it).
  Time now = 0;
  Duration worst = 0;
  for (int i = 0; i < 2000; ++i) {
    net::Rule rule{static_cast<net::RuleId>(i + 1), i + 1,
                   net::Prefix(net::Ipv4Address(0x0A000000u +
                                                (static_cast<std::uint32_t>(i)
                                                 << 8)),
                               24),
                   net::forward_to(i % 48)};
    Time done = agent.insert(now, rule);
    worst = std::max(worst, done - now);
    now += from_millis(2);    // 500 inserts/s
    agent.tick(now);          // let the Rule Manager migrate
  }

  std::printf("inserted 2000 rules at 500/s:\n");
  std::printf("  worst observed guaranteed-path latency: %.3f ms "
              "(guarantee: %.0f ms)\n",
              to_millis(agent.stats().worst_guaranteed_latency),
              to_millis(agent.guarantee()));
  std::printf("  worst completion including queueing:    %.3f ms\n",
              to_millis(worst));
  std::printf("  guarantee violations: %llu\n",
              static_cast<unsigned long long>(agent.stats().violations));
  std::printf("  shadow occupancy now: %d / %d, main table: %d rules\n",
              agent.shadow_occupancy(), agent.shadow_capacity(),
              agent.main_occupancy());
  std::printf("  migrations run by the Rule Manager: %llu\n\n",
              static_cast<unsigned long long>(agent.stats().migrations));

  // 4. Compare: the same insertion pattern on the unmodified switch.
  tcam::Asic plain(model, {4096});
  Duration plain_worst = 0;
  for (int i = 0; i < 2000; ++i) {
    net::Rule rule{static_cast<net::RuleId>(i + 1), i + 1,
                   net::Prefix(net::Ipv4Address(0x0A000000u +
                                                (static_cast<std::uint32_t>(i)
                                                 << 8)),
                               24),
                   net::forward_to(i % 48)};
    tcam::ApplyResult result;
    plain.apply(0, {net::FlowModType::kInsert, rule});
    result.latency = model.insert_latency(i);  // occupancy-deep insert
    plain_worst = std::max(plain_worst, result.latency);
  }
  std::printf("same pattern on the plain switch: worst insert %.1f ms "
              "(%.0fx worse)\n",
              to_millis(plain_worst),
              static_cast<double>(plain_worst) /
                  static_cast<double>(std::max<Duration>(
                      1, agent.stats().worst_guaranteed_latency)));

  // 5. Lookups see one logical table.
  const net::Rule* hit =
      agent.lookup_ptr(now, *net::Ipv4Address::parse("10.0.7.1"));
  if (hit)
    std::printf("\nlookup 10.0.7.1 -> %s (rule #%llu)\n",
                net::to_string(hit->action).c_str(),
                static_cast<unsigned long long>(hit->id));
  return 0;
}
