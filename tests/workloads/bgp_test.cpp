#include "workloads/bgp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace hermes::workloads {
namespace {

using net::Prefix;

BgpUpdate announce(double t_s, std::string_view prefix, int peer,
                   int local_pref = 100, int as_path = 3) {
  return BgpUpdate{from_seconds(t_s), *Prefix::parse(prefix), peer, false,
                   local_pref, as_path};
}

BgpUpdate withdraw(double t_s, std::string_view prefix, int peer) {
  return BgpUpdate{from_seconds(t_s), *Prefix::parse(prefix), peer, true,
                   0, 0};
}

TEST(Rib, FirstAnnouncementInstallsFibRule) {
  Rib rib;
  auto mod = rib.apply(announce(0, "10.0.0.0/16", 1));
  ASSERT_TRUE(mod.has_value());
  EXPECT_EQ(mod->type, net::FlowModType::kInsert);
  EXPECT_EQ(mod->rule.match.to_string(), "10.0.0.0/16");
  EXPECT_EQ(mod->rule.action.port, 1);
  EXPECT_EQ(mod->rule.priority, 16);  // LPM encoding
}

TEST(Rib, WorseRouteDoesNotPercolate) {
  Rib rib;
  rib.apply(announce(0, "10.0.0.0/16", 1, 200, 2));
  // Lower local-pref: RIB grows but FIB unchanged.
  auto mod = rib.apply(announce(1, "10.0.0.0/16", 2, 100, 2));
  EXPECT_FALSE(mod.has_value());
  EXPECT_EQ(rib.updates_seen(), 2u);
  EXPECT_EQ(rib.fib_changes(), 1u);
}

TEST(Rib, BetterRouteModifiesNextHop) {
  Rib rib;
  rib.apply(announce(0, "10.0.0.0/16", 1, 100, 3));
  auto mod = rib.apply(announce(1, "10.0.0.0/16", 2, 200, 3));
  ASSERT_TRUE(mod.has_value());
  EXPECT_EQ(mod->type, net::FlowModType::kModify);
  EXPECT_EQ(mod->rule.action.port, 2);
}

TEST(Rib, TieBreaksByAsPathThenPeer) {
  Rib rib;
  rib.apply(announce(0, "10.0.0.0/16", 3, 100, 4));
  auto shorter = rib.apply(announce(1, "10.0.0.0/16", 5, 100, 2));
  ASSERT_TRUE(shorter.has_value());
  EXPECT_EQ(shorter->rule.action.port, 5);  // shorter AS path wins
  auto tie = rib.apply(announce(2, "10.0.0.0/16", 1, 100, 2));
  ASSERT_TRUE(tie.has_value());
  EXPECT_EQ(tie->rule.action.port, 1);  // equal: lowest peer id wins
}

TEST(Rib, WithdrawOfBestFailsOver) {
  Rib rib;
  rib.apply(announce(0, "10.0.0.0/16", 1, 200, 3));
  rib.apply(announce(1, "10.0.0.0/16", 2, 100, 3));
  auto mod = rib.apply(withdraw(2, "10.0.0.0/16", 1));
  ASSERT_TRUE(mod.has_value());
  EXPECT_EQ(mod->type, net::FlowModType::kModify);
  EXPECT_EQ(mod->rule.action.port, 2);
}

TEST(Rib, WithdrawOfBackupIsInvisible) {
  Rib rib;
  rib.apply(announce(0, "10.0.0.0/16", 1, 200, 3));
  rib.apply(announce(1, "10.0.0.0/16", 2, 100, 3));
  EXPECT_FALSE(rib.apply(withdraw(2, "10.0.0.0/16", 2)).has_value());
}

TEST(Rib, LastWithdrawDeletesFibRule) {
  Rib rib;
  rib.apply(announce(0, "10.0.0.0/16", 1));
  auto mod = rib.apply(withdraw(1, "10.0.0.0/16", 1));
  ASSERT_TRUE(mod.has_value());
  EXPECT_EQ(mod->type, net::FlowModType::kDelete);
  EXPECT_EQ(rib.fib_size(), 0u);
}

TEST(Rib, WithdrawOfUnknownIsNoop) {
  Rib rib;
  EXPECT_FALSE(rib.apply(withdraw(0, "10.0.0.0/16", 1)).has_value());
}

TEST(Rib, ReAnnouncementSamePathIsRibOnly) {
  Rib rib;
  rib.apply(announce(0, "10.0.0.0/16", 1, 100, 3));
  EXPECT_FALSE(rib.apply(announce(1, "10.0.0.0/16", 1, 100, 3)).has_value());
}

TEST(Rib, StableRuleIdPerPrefix) {
  Rib rib;
  auto first = rib.apply(announce(0, "10.0.0.0/16", 1));
  auto gone = rib.apply(withdraw(1, "10.0.0.0/16", 1));
  auto back = rib.apply(announce(2, "10.0.0.0/16", 2));
  ASSERT_TRUE(first && gone && back);
  EXPECT_EQ(first->rule.id, gone->rule.id);
  EXPECT_EQ(first->rule.id, back->rule.id);
}

TEST(BgpFeed, DeterministicAndOrdered) {
  BgpFeedConfig config;
  config.duration_s = 5;
  auto a = bgp_feed(config);
  auto b = bgp_feed(config);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].prefix, b[i].prefix);
    if (i > 0) {
      EXPECT_GE(a[i].time, a[i - 1].time);
    }
  }
}

TEST(BgpFeed, HasCalmPeriodsAndTailBursts) {
  // Section 2.3: "generally low update rates except at the tail where
  // updates occur with high frequency (over 1000 updates per second)".
  BgpFeedConfig config;
  config.duration_s = 60;
  config.seed = 7;
  auto feed = bgp_feed(config);
  ASSERT_GT(feed.size(), 100u);
  // Bucket into 100ms windows and look at the rate distribution.
  std::vector<int> buckets(601, 0);
  for (const BgpUpdate& u : feed) {
    auto idx = static_cast<std::size_t>(to_seconds(u.time) * 10);
    if (idx < buckets.size()) ++buckets[idx];
  }
  std::sort(buckets.begin(), buckets.end());
  double median_rate = buckets[buckets.size() / 2] * 10.0;
  double p99_rate = buckets[buckets.size() * 99 / 100] * 10.0;
  EXPECT_LT(median_rate, 200.0);
  EXPECT_GT(p99_rate, 1000.0);
}

TEST(BgpFeed, PresetsDiffer) {
  auto eq = equinix_chicago();
  auto nw = nwax_portland();
  EXPECT_GT(eq.prefix_count, nw.prefix_count);
  EXPECT_GT(eq.burst_rate, nw.burst_rate);
  auto rv = route_views_oregon();
  auto tx = telxatl_atlanta();
  EXPECT_NE(rv.seed, tx.seed);
}

TEST(FibTrace, OnlyFibChangesSurvive) {
  BgpFeedConfig config;
  config.duration_s = 20;
  config.seed = 3;
  auto feed = bgp_feed(config);
  Rib rib;
  for (const BgpUpdate& u : feed) rib.apply(u);
  auto trace = fib_trace(feed);
  EXPECT_EQ(trace.size(), rib.fib_changes());
  // Heavy churn on hot prefixes means many RIB updates never reach the
  // FIB: percolation strictly below 1.
  EXPECT_LT(rib.fib_percolation_rate(), 0.95);
  EXPECT_GT(rib.fib_percolation_rate(), 0.05);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].time, trace[i - 1].time);
}

}  // namespace
}  // namespace hermes::workloads
