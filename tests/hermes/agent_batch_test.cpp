// HermesAgent::handle_batch: the whole-transaction entry point. A batch
// must be observationally equivalent to the per-op loop — same stored
// rules, same data-plane lookups — while admitting runs of fresh inserts
// under one Gate Keeper decision and one shadow ASIC batch.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "hermes/hermes_agent.h"
#include "net/flow_mod_batch.h"
#include "obs/metrics.h"
#include "tcam/switch_model.h"

namespace hermes::core {
namespace {

using net::FlowModBatch;
using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(port)};
}

HermesConfig test_config() {
  HermesConfig config;
  config.guarantee = from_millis(5);
  config.token_rate = 1e9;
  config.token_burst = 1e9;
  return config;
}

/// Same forwarding behavior at `addr` on both agents at `now`. Either
/// agent may serve the packet from a partition piece (piece ids differ),
/// so the comparison is on the action, which pieces preserve.
void expect_same_lookup(HermesAgent& a, HermesAgent& b, Time now,
                        net::Ipv4Address addr, std::uint64_t seed) {
  const Rule* ra = a.lookup_ptr(now, addr);
  const Rule* rb = b.lookup_ptr(now, addr);
  ASSERT_EQ(ra != nullptr, rb != nullptr)
      << "seed " << seed << " addr " << addr.to_string();
  if (ra) {
    EXPECT_EQ(ra->action.port, rb->action.port)
        << "seed " << seed << " addr " << addr.to_string();
  }
}

TEST(AgentBatch, SingletonBatchMatchesPerOpInsert) {
  HermesAgent batched(tcam::pica8_p3290(), 2000, test_config());
  HermesAgent sequential(tcam::pica8_p3290(), 2000, test_config());
  Rule r = make_rule(1, 9, "10.0.0.0/8");

  FlowModBatch batch;
  batch.insert(r);
  Time batch_done = batched.handle_batch(0, batch);
  Time seq_done = sequential.handle(0, {net::FlowModType::kInsert, r});

  // A one-mod run takes the exact per-op path: identical completion time,
  // placement, and counters.
  EXPECT_EQ(batch_done, seq_done);
  EXPECT_EQ(batch.result(0).status, net::ModStatus::kApplied);
  EXPECT_EQ(batch.result(0).completion, seq_done);
  EXPECT_EQ(batched.shadow_occupancy(), sequential.shadow_occupancy());
  EXPECT_EQ(batched.main_occupancy(), sequential.main_occupancy());
  EXPECT_EQ(batched.asic().slice(0).rules_view(),
            sequential.asic().slice(0).rules_view());
  EXPECT_EQ(batched.asic().slice(1).rules_view(),
            sequential.asic().slice(1).rules_view());
  EXPECT_EQ(batched.stats().inserts, sequential.stats().inserts);
  EXPECT_EQ(batched.stats().guaranteed_inserts,
            sequential.stats().guaranteed_inserts);
}

TEST(AgentBatch, FreshInsertRunIsOneShadowBatch) {
  // Histograms go to the process-attached registry, so attach one first.
  obs::Registry attached;
  obs::attach(&attached);
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  HermesAgent batched(tcam::pica8_p3290(), 2000, config);
  HermesAgent sequential(tcam::pica8_p3290(), 2000, config);

  FlowModBatch batch;
  std::vector<Rule> rules;
  for (int i = 0; i < 16; ++i) {
    Rule r = make_rule(static_cast<net::RuleId>(i + 1), 100 + i,
                       "10." + std::to_string(i) + ".0.0/16");
    rules.push_back(r);
    batch.insert(r);
  }
  Time batch_done = batched.handle_batch(0, batch);
  Time seq_done = 0;
  for (const Rule& r : rules)
    seq_done = std::max(
        seq_done, sequential.handle(0, {net::FlowModType::kInsert, r}));

  EXPECT_EQ(batch.applied_count(), 16u);
  EXPECT_EQ(batch.failed_count(), 0u);
  // The single-pass shadow write beats sixteen serialized inserts.
  EXPECT_LT(batch_done, seq_done);
  EXPECT_EQ(batch.barrier(), batch_done);
  // Same rules end up guaranteed, and the data plane agrees.
  EXPECT_EQ(batched.shadow_occupancy(), sequential.shadow_occupancy());
  EXPECT_EQ(batched.stats().guaranteed_inserts, 16u);
  for (const Rule& r : rules)
    expect_same_lookup(batched, sequential, 0, r.match.address(), 0);
  obs::attach(nullptr);
  // One batch decision and one shadow batch in the metrics.
  EXPECT_EQ(attached.histogram_summary("gate.batch_admitted").count, 1u);
  EXPECT_EQ(
      attached.histogram_summary("agent.shadow_batch_pieces").count, 1u);
}

TEST(AgentBatch, PartialTokenAdmissionSplitsDeterministically) {
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  config.token_rate = 0.0;  // only the burst exists
  config.token_burst = 2.0;
  HermesAgent agent(tcam::pica8_p3290(), 2000, config);

  FlowModBatch batch;
  for (int i = 0; i < 4; ++i)
    batch.insert(make_rule(static_cast<net::RuleId>(i + 1), 100 + i,
                           "10." + std::to_string(i) + ".0.0/16"));
  agent.handle_batch(0, batch);

  // First two (batch order) admitted to the shadow slice, the tail falls
  // back to main over-rate — but every mod still applies.
  EXPECT_EQ(batch.applied_count(), 4u);
  EXPECT_EQ(agent.shadow_occupancy(), 2);
  EXPECT_EQ(agent.main_occupancy(), 2);
  EXPECT_EQ(agent.stats().guaranteed_inserts, 2u);
  EXPECT_EQ(agent.stats().main_inserts, 2u);
  EXPECT_TRUE(agent.asic().slice(0).contains(1));
  EXPECT_TRUE(agent.asic().slice(0).contains(2));
  EXPECT_TRUE(agent.asic().slice(1).contains(3));
  EXPECT_TRUE(agent.asic().slice(1).contains(4));
}

TEST(AgentBatch, RunBreaksOnDeletesModifiesAndDuplicates) {
  HermesConfig config = test_config();
  config.lowest_priority_optimization = false;
  HermesAgent batched(tcam::pica8_p3290(), 2000, config);
  HermesAgent sequential(tcam::pica8_p3290(), 2000, config);

  FlowModBatch batch;
  batch.insert(make_rule(1, 101, "10.1.0.0/16", 1));
  batch.insert(make_rule(2, 102, "10.2.0.0/16", 1));
  batch.erase(1);                                    // breaks the run
  batch.insert(make_rule(1, 103, "10.3.0.0/16", 2));  // fresh again
  batch.insert(make_rule(2, 104, "10.4.0.0/16", 2));  // duplicate: per-op
  batch.modify(make_rule(2, 105, "10.4.0.0/16", 3));
  batch.erase(99);                                   // missing id

  Time barrier = batched.handle_batch(0, batch);
  for (const net::FlowMod& mod : batch.mods())
    sequential.handle(0, mod);

  EXPECT_EQ(batch.result(0).status, net::ModStatus::kApplied);
  EXPECT_EQ(batch.result(2).status, net::ModStatus::kApplied);  // delete of 1
  EXPECT_EQ(batch.result(3).status, net::ModStatus::kApplied);
  EXPECT_EQ(batch.result(4).status, net::ModStatus::kApplied);
  EXPECT_EQ(batch.result(6).status, net::ModStatus::kFailed);  // id 99
  EXPECT_EQ(batch.barrier(), barrier);

  EXPECT_EQ(batched.store().size(), sequential.store().size());
  EXPECT_EQ(batched.stats().deletes, sequential.stats().deletes);
  EXPECT_EQ(batched.stats().modifies, sequential.stats().modifies);
  for (std::string_view addr :
       {"10.1.1.1", "10.2.1.1", "10.3.1.1", "10.4.1.1"}) {
    expect_same_lookup(batched, sequential, 0, *net::Ipv4Address::parse(addr),
                       0);
  }
}

TEST(AgentBatch, RandomizedMixedBatchesMatchPerOpLookups) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed));
    HermesConfig config = test_config();
    config.lowest_priority_optimization = (seed % 2) == 0;
    HermesAgent batched(tcam::pica8_p3290(), 2000, config);
    HermesAgent sequential(tcam::pica8_p3290(), 2000, config);

    // Distinct priorities keep the data-plane winner well-defined even
    // when placements differ between the two paths.
    std::uniform_int_distribution<int> id_dist(1, 20);
    std::uniform_int_distribution<int> octet(0, 19);
    std::uniform_int_distribution<int> kind(0, 9);
    std::uniform_int_distribution<int> size_dist(2, 24);

    Time now = 0;
    for (int round = 0; round < 3; ++round) {
      FlowModBatch batch;
      int n = size_dist(rng);
      for (int i = 0; i < n; ++i) {
        auto id = static_cast<net::RuleId>(id_dist(rng));
        int k = kind(rng);
        if (k < 7) {
          Rule r{id, static_cast<int>(100 + id),
                 Prefix(net::Ipv4Address(
                            0x0A000000u |
                            (static_cast<std::uint32_t>(octet(rng)) << 16)),
                        16),
                 net::forward_to(static_cast<int>(id))};
          batch.insert(r);
        } else if (k < 9) {
          batch.erase(id);
        } else {
          Rule r{id, static_cast<int>(100 + id),
                 Prefix(net::Ipv4Address(
                            0x0A000000u |
                            (static_cast<std::uint32_t>(octet(rng)) << 16)),
                        16),
                 net::forward_to(static_cast<int>(id) + 100)};
          batch.modify(r);
        }
      }
      FlowModBatch twin = batch;
      batched.handle_batch(now, batch);
      for (const net::FlowMod& mod : twin.mods()) sequential.handle(now, mod);
      now += from_millis(50);
      batched.tick(now);
      sequential.tick(now);
    }

    ASSERT_EQ(batched.store().size(), sequential.store().size())
        << "seed " << seed;
    for (int o = 0; o < 20; ++o) {
      expect_same_lookup(
          batched, sequential, now,
          net::Ipv4Address(0x0A000000u |
                           (static_cast<std::uint32_t>(o) << 16) | 0x0101u),
          seed);
    }
  }
}

}  // namespace
}  // namespace hermes::core
