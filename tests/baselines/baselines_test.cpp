#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "baselines/espres.h"
#include "baselines/hermes_backend.h"
#include "baselines/plain_switch.h"
#include "baselines/tango.h"
#include "tcam/switch_model.h"

namespace hermes::baselines {
namespace {

using net::FlowMod;
using net::FlowModType;
using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(port)};
}

FlowMod ins(const Rule& r) { return {FlowModType::kInsert, r}; }
FlowMod del(net::RuleId id) {
  return {FlowModType::kDelete, Rule{id, 0, {}, {}}};
}

const Rule* lookup_at(SwitchBackend& sw, Time now, std::string_view addr) {
  return sw.lookup_ptr(now, *net::Ipv4Address::parse(addr));
}

// --- PlainSwitch -------------------------------------------------------------

TEST(PlainSwitch, RecordsRitPerInsert) {
  PlainSwitch sw(tcam::pica8_p3290(), 2000);
  sw.handle(0, ins(make_rule(1, 1, "10.0.0.0/8")));
  sw.handle(from_millis(1), ins(make_rule(2, 2, "11.0.0.0/8")));
  sw.handle(from_millis(2), del(1));
  EXPECT_EQ(sw.rit_samples().size(), 2u);
  EXPECT_EQ(sw.occupancy(), 1);
}

TEST(PlainSwitch, AscendingPriorityInsertsDegrade) {
  // The Section 2 pathology: every insert lands above all previous ones.
  PlainSwitch sw(tcam::pica8_p3290(), 2000);
  Time now = 0;
  for (int i = 1; i <= 400; ++i) {
    now = sw.handle(now, ins(make_rule(static_cast<net::RuleId>(i), i,
                                       "10.0.0.0/8")));
  }
  const auto& rit = sw.rit_samples();
  // Early inserts are fast, late ones slow: at least 20x degradation.
  EXPECT_GT(rit.back(), 20 * rit.front());
}

// --- ESPRES -------------------------------------------------------------------

TEST(Espres, BatchesUntilWindowCloses) {
  EspresSwitch sw(tcam::pica8_p3290(), 2000, from_millis(10));
  sw.handle(0, ins(make_rule(1, 1, "10.0.0.0/8")));
  sw.handle(from_millis(1), ins(make_rule(2, 2, "11.0.0.0/8")));
  EXPECT_EQ(sw.occupancy(), 0);  // still pending
  sw.tick(from_millis(5));
  EXPECT_EQ(sw.occupancy(), 0);  // window not closed yet
  sw.tick(from_millis(10));
  EXPECT_EQ(sw.occupancy(), 2);
  EXPECT_EQ(sw.rit_samples().size(), 2u);
}

TEST(Espres, ReorderingBeatsPlainOnAscendingBatch) {
  // A burst of ascending-priority inserts: plain pays quadratic shifting,
  // ESPRES reorders the batch to descending and pays none (intra-batch).
  PlainSwitch plain(tcam::pica8_p3290(), 2000);
  EspresSwitch espres(tcam::pica8_p3290(), 2000, from_millis(1));
  Time t_plain = 0;
  for (int i = 1; i <= 200; ++i)
    t_plain = plain.handle(0, ins(make_rule(static_cast<net::RuleId>(i), i,
                                            "10.0.0.0/8")));
  for (int i = 1; i <= 200; ++i)
    espres.handle(0, ins(make_rule(static_cast<net::RuleId>(i), i,
                                   "10.0.0.0/8")));
  Time t_espres = espres.flush(from_millis(1));
  EXPECT_LT(t_espres, t_plain / 5);
  EXPECT_EQ(espres.occupancy(), 200);
}

TEST(Espres, DeletesPassThroughImmediately) {
  EspresSwitch sw(tcam::pica8_p3290(), 2000, from_millis(10));
  sw.handle(0, ins(make_rule(1, 1, "10.0.0.0/8")));
  sw.flush(0);
  Time done = sw.handle(from_millis(1), del(1));
  EXPECT_EQ(sw.occupancy(), 0);
  EXPECT_LT(done - from_millis(1), from_millis(1));
}

TEST(Espres, LookupSeesOnlyFlushedRules) {
  EspresSwitch sw(tcam::pica8_p3290(), 2000, from_millis(10));
  sw.handle(0, ins(make_rule(1, 1, "10.0.0.0/8", 7)));
  EXPECT_EQ(lookup_at(sw, 0, "10.1.1.1"), nullptr);
  sw.flush(from_millis(10));
  const Rule* hit = lookup_at(sw, from_millis(10), "10.1.1.1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 7);
}

TEST(Espres, InsertOfAHeldIdReplacesIt) {
  // Re-inserting an installed id, or queueing one id twice in a window,
  // must not cut the window's batch insert short at the duplicate.
  EspresSwitch sw(tcam::pica8_p3290(), 2000, from_millis(10));
  sw.handle(0, ins(make_rule(1, 5, "10.0.0.0/8", 1)));
  sw.flush(from_millis(10));
  sw.handle(from_millis(11), ins(make_rule(1, 5, "10.0.0.0/8", 7)));
  sw.handle(from_millis(11), ins(make_rule(2, 5, "12.0.0.0/8", 2)));
  sw.handle(from_millis(12), ins(make_rule(3, 5, "13.0.0.0/8", 3)));
  sw.handle(from_millis(12), ins(make_rule(3, 5, "13.0.0.0/8", 4)));
  const Time now = from_millis(21);
  sw.flush(now);
  EXPECT_EQ(sw.occupancy(), 3);
  const Rule* hit = lookup_at(sw, now, "10.1.1.1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 7);
  EXPECT_NE(lookup_at(sw, now, "12.1.1.1"), nullptr);
  hit = lookup_at(sw, now, "13.1.1.1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 4);
}

// --- Tango ---------------------------------------------------------------------

TEST(Tango, AggregatesSiblingPrefixes) {
  TangoSwitch sw(tcam::pica8_p3290(), 2000, from_millis(1));
  // Four sibling /18s, same priority and action: one /16 in the TCAM.
  for (std::uint32_t i = 0; i < 4; ++i) {
    Rule r{i + 1, 5,
           Prefix(net::Ipv4Address(0x0A000000u | (i << 14)), 18),
           net::forward_to(3)};
    sw.handle(0, ins(r));
  }
  sw.flush(from_millis(1));
  EXPECT_EQ(sw.occupancy(), 1);
  EXPECT_EQ(sw.rules_saved_by_aggregation(), 3u);
  const Rule* hit = lookup_at(sw, from_millis(1), "10.0.200.1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 3);
}

TEST(Tango, DoesNotAggregateAcrossActions) {
  TangoSwitch sw(tcam::pica8_p3290(), 2000, from_millis(1));
  sw.handle(0, ins(make_rule(1, 5, "10.0.0.0/17", 1)));
  sw.handle(0, ins(make_rule(2, 5, "10.0.128.0/17", 2)));
  sw.flush(from_millis(1));
  EXPECT_EQ(sw.occupancy(), 2);
  EXPECT_EQ(lookup_at(sw, from_millis(1), "10.0.1.1")->action.port, 1);
  EXPECT_EQ(lookup_at(sw, from_millis(1), "10.0.200.1")->action.port, 2);
}

TEST(Tango, DeleteSplitsAggregate) {
  TangoSwitch sw(tcam::pica8_p3290(), 2000, from_millis(1));
  sw.handle(0, ins(make_rule(1, 5, "10.0.0.0/17", 3)));
  sw.handle(0, ins(make_rule(2, 5, "10.0.128.0/17", 3)));
  sw.flush(from_millis(1));
  ASSERT_EQ(sw.occupancy(), 1);  // aggregated to /16
  sw.handle(from_millis(2), del(1));
  EXPECT_EQ(sw.occupancy(), 1);  // survivor reinstated as /17
  EXPECT_EQ(lookup_at(sw, from_millis(2), "10.0.1.1"), nullptr);
  const Rule* hit = lookup_at(sw, from_millis(2), "10.0.200.1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 3);
}

TEST(Tango, DeleteOfPendingRuleCancelsIt) {
  TangoSwitch sw(tcam::pica8_p3290(), 2000, from_millis(10));
  sw.handle(0, ins(make_rule(1, 5, "10.0.0.0/8")));
  sw.handle(from_millis(1), del(1));
  sw.flush(from_millis(10));
  EXPECT_EQ(sw.occupancy(), 0);
}

TEST(Tango, SecondInsertOfAQueuedIdReplacesIt) {
  // Two copies of id 1 in one window must leave one physical entry, so
  // deleting id 1 clears it.
  TangoSwitch sw(tcam::pica8_p3290(), 2000, from_millis(10));
  sw.handle(0, ins(make_rule(1, 5, "10.0.0.0/8", 1)));
  sw.handle(0, ins(make_rule(1, 5, "10.0.0.0/8", 7)));
  sw.handle(0, ins(make_rule(2, 5, "12.0.0.0/8", 2)));
  sw.flush(from_millis(10));
  const Rule* hit = lookup_at(sw, from_millis(10), "10.1.1.1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 7);
  sw.handle(from_millis(11), del(1));
  EXPECT_EQ(sw.occupancy(), 1);
  EXPECT_EQ(lookup_at(sw, from_millis(11), "10.1.1.1"), nullptr);
}

TEST(Tango, ModifyReinstallsDirectly) {
  TangoSwitch sw(tcam::pica8_p3290(), 2000, from_millis(1));
  sw.handle(0, ins(make_rule(1, 5, "10.0.0.0/8", 1)));
  sw.flush(from_millis(1));
  sw.handle(from_millis(2),
            {FlowModType::kModify, make_rule(1, 5, "10.0.0.0/8", 9)});
  const Rule* hit = lookup_at(sw, from_millis(2), "10.1.1.1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 9);
}

TEST(Tango, AggregationHelpsDataCenterStylePrefixes) {
  // Contiguous per-rack blocks aggregate well; scattered ISP-style
  // prefixes do not — the Figure 11 contrast.
  TangoSwitch dc(tcam::pica8_p3290(), 4000, from_millis(1));
  TangoSwitch isp(tcam::pica8_p3290(), 4000, from_millis(1));
  std::mt19937_64 rng(1);
  for (std::uint32_t i = 0; i < 64; ++i) {
    dc.handle(0, ins(Rule{i + 1, 5,
                          Prefix(net::Ipv4Address(0x0A000000u | (i << 8)),
                                 24),
                          net::forward_to(1)}));
    isp.handle(0, ins(Rule{i + 1, 5,
                           Prefix(net::Ipv4Address(
                                      static_cast<std::uint32_t>(rng())),
                                  24),
                           net::forward_to(1)}));
  }
  dc.flush(from_millis(1));
  isp.flush(from_millis(1));
  EXPECT_LT(dc.occupancy(), 8);    // 64 contiguous /24s collapse
  EXPECT_GT(isp.occupancy(), 48);  // random /24s rarely pair up
}

// --- Hermes adapters -------------------------------------------------------------

TEST(HermesBackend, AdaptsAgentInterface) {
  HermesBackend sw(tcam::pica8_p3290(), 2000);
  Time done = sw.handle(0, ins(make_rule(1, 5, "10.0.0.0/8", 4)));
  EXPECT_GE(done, 0);
  sw.tick(from_millis(10));
  const Rule* hit = lookup_at(sw, from_millis(10), "10.1.1.1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 4);
  EXPECT_EQ(sw.rit_samples().size(), 1u);
  sw.clear_rit_samples();
  EXPECT_TRUE(sw.rit_samples().empty());
  EXPECT_EQ(sw.name(), "Hermes");
}

TEST(HermesBackend, SimpleVariantUsesThreshold) {
  core::HermesConfig base;
  base.lowest_priority_optimization = false;  // force the shadow path
  auto sw = make_hermes_simple(tcam::pica8_p3290(), 2000, 0.0, base);
  EXPECT_EQ(sw->name(), "Hermes-SIMPLE");
  sw->handle(0, ins(make_rule(1, 9, "10.0.0.0/8")));
  sw->handle(0, ins(make_rule(2, 8, "11.0.0.0/8")));
  sw->tick(from_millis(10));
  // Threshold 0: any occupancy triggers migration at the epoch tick.
  EXPECT_GE(sw->agent().stats().migrations, 1u);
  EXPECT_EQ(sw->agent().shadow_occupancy(), 0);
}

TEST(Factory, MakesAllKinds) {
  for (const char* kind : {"plain", "espres", "tango", "hermes"}) {
    auto sw = make_backend(kind, tcam::dell_8132f(), 750);
    ASSERT_NE(sw, nullptr) << kind;
  }
  EXPECT_EQ(make_backend("devoflow", tcam::dell_8132f(), 750), nullptr);
}

// All backends must agree with each other on pure lookup semantics for
// non-overlapping rule sets (sanity cross-check).
TEST(AllBackends, AgreeOnDisjointRuleSets) {
  std::vector<std::unique_ptr<SwitchBackend>> switches;
  for (const char* kind : {"plain", "espres", "tango", "hermes"})
    switches.push_back(make_backend(kind, tcam::pica8_p3290(), 2000));
  for (int i = 0; i < 32; ++i) {
    Rule r{static_cast<net::RuleId>(i + 1), i + 1,
           Prefix(net::Ipv4Address(static_cast<std::uint32_t>(i) << 24), 8),
           net::forward_to(i)};
    for (auto& sw : switches) sw->handle(0, ins(r));
  }
  const Time now = from_millis(100);
  for (auto& sw : switches) sw->tick(now);
  std::mt19937_64 rng(7);
  for (int s = 0; s < 200; ++s) {
    net::Ipv4Address addr(static_cast<std::uint32_t>(rng()));
    const Rule* expect = switches[0]->lookup_ptr(now, addr);
    for (std::size_t k = 1; k < switches.size(); ++k) {
      const Rule* got = switches[k]->lookup_ptr(now, addr);
      ASSERT_EQ(expect != nullptr, got != nullptr)
          << switches[k]->name() << " " << addr.to_string();
      if (expect) {
        EXPECT_EQ(expect->action.port, got->action.port)
            << switches[k]->name();
      }
    }
  }
}

}  // namespace
}  // namespace hermes::baselines
