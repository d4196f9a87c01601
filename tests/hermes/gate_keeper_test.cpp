#include "hermes/gate_keeper.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace hermes::core {
namespace {

using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(1)};
}

RouteContext busy_context() {
  RouteContext ctx;
  ctx.shadow_free = 10;
  ctx.pieces_needed = 1;
  ctx.main_min_priority = 5;
  ctx.main_empty = false;
  ctx.main_full = false;
  return ctx;
}

TEST(TokenBucket, StartsFullAndDrains) {
  TokenBucket bucket(10.0, 3.0);
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0));  // burst exhausted
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket bucket(10.0, 1.0);  // 1 token per 100ms
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(from_millis(50)));
  EXPECT_TRUE(bucket.try_take(from_millis(100)));
}

TEST(TokenBucket, RefillCapsAtBurst) {
  TokenBucket bucket(1000.0, 2.0);
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  // After a long idle period only `burst` tokens are available.
  Time later = from_seconds(10);
  EXPECT_NEAR(bucket.available(later), 2.0, 1e-9);
  EXPECT_TRUE(bucket.try_take(later));
  EXPECT_TRUE(bucket.try_take(later));
  EXPECT_FALSE(bucket.try_take(later));
}

TEST(TokenBucket, AvailableDoesNotConsume) {
  TokenBucket bucket(1.0, 5.0);
  EXPECT_NEAR(bucket.available(0), 5.0, 1e-9);
  EXPECT_NEAR(bucket.available(0), 5.0, 1e-9);
}

TEST(GateKeeper, GuaranteedWhenEverythingFits) {
  HermesConfig config;
  GateKeeper gk(config, 1000, 100);
  auto route = gk.route_insert(0, make_rule(1, 9, "10.0.0.0/8"),
                               busy_context());
  EXPECT_EQ(route, Route::kGuaranteed);
  EXPECT_EQ(gk.stats().guaranteed, 1u);
}

TEST(GateKeeper, PredicateMismatchGoesToMain) {
  HermesConfig config;
  config.predicate = match_prefix_within(*Prefix::parse("10.0.0.0/8"));
  GateKeeper gk(config, 1000, 100);
  EXPECT_EQ(gk.route_insert(0, make_rule(1, 9, "11.0.0.0/8"),
                            busy_context()),
            Route::kMainUnmatched);
  EXPECT_EQ(gk.route_insert(0, make_rule(2, 9, "10.1.0.0/16"),
                            busy_context()),
            Route::kGuaranteed);
  EXPECT_EQ(gk.stats().unmatched, 1u);
}

TEST(GateKeeper, OverRateGoesToMain) {
  HermesConfig config;
  GateKeeper gk(config, /*rate=*/1.0, /*burst=*/1.0);
  EXPECT_EQ(gk.route_insert(0, make_rule(1, 9, "10.0.0.0/8"),
                            busy_context()),
            Route::kGuaranteed);
  EXPECT_EQ(gk.route_insert(0, make_rule(2, 9, "10.0.0.0/9"),
                            busy_context()),
            Route::kMainOverRate);
  EXPECT_EQ(gk.stats().over_rate, 1u);
}

TEST(GateKeeper, LowestPriorityOptimizationBypassesShadow) {
  // Section 4.2: a rule at/below the main table's bottom appends with no
  // shifting — route it to main and do not spend a token.
  HermesConfig config;
  GateKeeper gk(config, 1.0, 1.0);
  RouteContext ctx = busy_context();  // main_min_priority = 5
  EXPECT_EQ(gk.route_insert(0, make_rule(1, 5, "10.0.0.0/8"), ctx),
            Route::kMainLowestPrio);
  EXPECT_EQ(gk.route_insert(0, make_rule(2, 3, "10.0.0.0/8"), ctx),
            Route::kMainLowestPrio);
  // Tokens untouched: a guaranteed insert still succeeds afterwards.
  EXPECT_EQ(gk.route_insert(0, make_rule(3, 9, "10.0.0.0/8"), ctx),
            Route::kGuaranteed);
  EXPECT_EQ(gk.stats().lowest_priority, 2u);
}

TEST(GateKeeper, LowestPriorityIntoEmptyMain) {
  HermesConfig config;
  GateKeeper gk(config, 1000, 100);
  RouteContext ctx = busy_context();
  ctx.main_empty = true;
  EXPECT_EQ(gk.route_insert(0, make_rule(1, 99, "10.0.0.0/8"), ctx),
            Route::kMainLowestPrio);
}

TEST(GateKeeper, OptimizationDisabledByConfig) {
  HermesConfig config;
  config.lowest_priority_optimization = false;
  GateKeeper gk(config, 1000, 100);
  RouteContext ctx = busy_context();
  EXPECT_EQ(gk.route_insert(0, make_rule(1, 3, "10.0.0.0/8"), ctx),
            Route::kGuaranteed);
}

TEST(GateKeeper, OptimizationSkippedWhenMainFull) {
  HermesConfig config;
  GateKeeper gk(config, 1000, 100);
  RouteContext ctx = busy_context();
  ctx.main_full = true;
  EXPECT_EQ(gk.route_insert(0, make_rule(1, 3, "10.0.0.0/8"), ctx),
            Route::kGuaranteed);
}

TEST(GateKeeper, ShadowFullIsLastResort) {
  HermesConfig config;
  GateKeeper gk(config, 1000, 100);
  RouteContext ctx = busy_context();
  ctx.shadow_free = 0;
  EXPECT_EQ(gk.route_insert(0, make_rule(1, 9, "10.0.0.0/8"), ctx),
            Route::kMainShadowFull);
  EXPECT_EQ(gk.stats().shadow_full, 1u);
}

TEST(GateKeeper, ShadowFullRejectionDoesNotBurnToken) {
  // Regression: route_insert used to take the token BEFORE the
  // shadow-capacity check, so a burst against a full shadow drained the
  // bucket without admitting anything — and a later insert that would
  // have fit was bounced as over-rate. Tokens pay for shadow capacity
  // actually consumed, so the rejection must leave the bucket alone.
  HermesConfig config;
  GateKeeper gk(config, /*rate=*/1.0, /*burst=*/1.0);
  RouteContext full = busy_context();
  full.shadow_free = 0;
  EXPECT_EQ(gk.route_insert(0, make_rule(1, 9, "10.0.0.0/8"), full),
            Route::kMainShadowFull);
  // The single burst token must still be there: with shadow space back,
  // the next insert is guaranteed (the old code returned kMainOverRate).
  EXPECT_EQ(gk.route_insert(0, make_rule(2, 9, "10.0.0.0/8"),
                            busy_context()),
            Route::kGuaranteed);
  EXPECT_EQ(gk.stats().shadow_full, 1u);
  EXPECT_EQ(gk.stats().over_rate, 0u);
}

TEST(GateKeeper, ShadowTooSmallForPiecesDoesNotBurnToken) {
  // Same leak, multi-piece variant: pieces_needed > shadow_free.
  HermesConfig config;
  GateKeeper gk(config, 1.0, 1.0);
  RouteContext cramped = busy_context();
  cramped.shadow_free = 2;
  cramped.pieces_needed = 3;
  EXPECT_EQ(gk.route_insert(0, make_rule(1, 9, "10.0.0.0/8"), cramped),
            Route::kMainShadowFull);
  EXPECT_EQ(gk.route_insert(0, make_rule(2, 9, "10.0.0.0/8"),
                            busy_context()),
            Route::kGuaranteed);
}

TEST(GateKeeper, SustainedRateIsAdmitted) {
  // Sending exactly at the token rate must never be rejected.
  HermesConfig config;
  GateKeeper gk(config, 100.0, 5.0);
  RouteContext ctx = busy_context();
  Time t = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(gk.route_insert(t, make_rule(static_cast<net::RuleId>(i + 1),
                                           9, "10.0.0.0/8"),
                              ctx),
              Route::kGuaranteed)
        << "at op " << i;
    t += from_millis(10);  // 100/s
  }
}

TEST(GateKeeper, BurstAboveRateOverflowsBucket) {
  HermesConfig config;
  GateKeeper gk(config, 100.0, 5.0);
  RouteContext ctx = busy_context();
  int rejected = 0;
  for (int i = 0; i < 50; ++i) {
    if (gk.route_insert(0, make_rule(static_cast<net::RuleId>(i + 1), 9,
                                     "10.0.0.0/8"),
                        ctx) == Route::kMainOverRate)
      ++rejected;
  }
  EXPECT_EQ(rejected, 45);  // burst of 5 admitted, rest over-rate
}

TEST(TokenBucket, TryTakeNMatchesSequentialTakes) {
  TokenBucket batched(10.0, 7.0);
  TokenBucket sequential(10.0, 7.0);
  Time now = from_millis(123);
  EXPECT_EQ(batched.try_take_n(now, 4), 4);
  int taken = 0;
  for (int i = 0; i < 4; ++i) taken += sequential.try_take(now) ? 1 : 0;
  EXPECT_EQ(taken, 4);
  EXPECT_NEAR(batched.available(now), sequential.available(now), 1e-9);
}

TEST(TokenBucket, TryTakeNPartialTake) {
  TokenBucket bucket(0.0, 2.5);  // no refill: only the burst is there
  EXPECT_EQ(bucket.try_take_n(0, 5), 2);  // floor(2.5)
  EXPECT_EQ(bucket.try_take_n(0, 5), 0);
  EXPECT_NEAR(bucket.available(0), 0.5, 1e-9);
}

TEST(TokenBucket, TryTakeNZeroOrNegativeIsFree) {
  TokenBucket bucket(0.0, 3.0);
  EXPECT_EQ(bucket.try_take_n(0, 0), 0);
  EXPECT_EQ(bucket.try_take_n(0, -4), 0);
  EXPECT_NEAR(bucket.available(0), 3.0, 1e-9);
}

TEST(GateKeeperBatch, MatchesSequentialRoutesWhenTokensAmple) {
  HermesConfig config;
  GateKeeper batched(config, 1000, 100);
  GateKeeper sequential(config, 1000, 100);
  RouteContext ctx = busy_context();
  std::vector<Rule> rules;
  for (int i = 0; i < 8; ++i)
    rules.push_back(make_rule(static_cast<net::RuleId>(i + 1),
                              (i % 2) ? 9 : 3, "10.0.0.0/8"));
  std::vector<Route> got = batched.route_insert_batch(0, rules, ctx);
  ASSERT_EQ(got.size(), rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i)
    EXPECT_EQ(got[i], sequential.route_insert(0, rules[i], ctx))
        << "rule " << i;
  EXPECT_EQ(batched.stats().guaranteed, sequential.stats().guaranteed);
  EXPECT_EQ(batched.stats().lowest_priority,
            sequential.stats().lowest_priority);
}

TEST(GateKeeperBatch, OneTokenEvaluationSplitsDeterministically) {
  HermesConfig config;
  // rate 0: only the burst of 2.5 tokens ever exists, so of 4 candidates
  // exactly floor(2.5) = 2 can be guaranteed.
  obs::Registry attached;  // batch decisions are a process-attached metric
  obs::attach(&attached);
  GateKeeper gk(config, /*rate=*/0.0, /*burst=*/2.5);
  RouteContext ctx = busy_context();
  std::vector<Rule> rules;
  for (int i = 0; i < 4; ++i)
    rules.push_back(make_rule(static_cast<net::RuleId>(i + 1), 9,
                              "10.0.0.0/8"));
  std::vector<Route> routes = gk.route_insert_batch(0, rules, ctx);
  // Deterministic prefix split: the FIRST `taken` candidates in batch
  // order stay guaranteed, the tail goes over-rate.
  EXPECT_EQ(routes[0], Route::kGuaranteed);
  EXPECT_EQ(routes[1], Route::kGuaranteed);
  EXPECT_EQ(routes[2], Route::kMainOverRate);
  EXPECT_EQ(routes[3], Route::kMainOverRate);
  obs::attach(nullptr);
  EXPECT_EQ(gk.stats().guaranteed, 2u);
  EXPECT_EQ(gk.stats().over_rate, 2u);
  EXPECT_EQ(attached.histogram_summary("gate.batch_admitted").count,
            1u);  // ONE batch decision, not four
}

TEST(GateKeeperBatch, NonTokenFallbacksDoNotSpendTokens) {
  HermesConfig config;
  config.predicate = match_prefix_within(*Prefix::parse("10.0.0.0/8"));
  GateKeeper gk(config, /*rate=*/0.0, /*burst=*/1.0);
  RouteContext ctx = busy_context();
  std::vector<Rule> rules;
  rules.push_back(make_rule(1, 9, "11.0.0.0/8"));   // unmatched
  rules.push_back(make_rule(2, 5, "10.0.0.0/8"));   // lowest-prio append
  rules.push_back(make_rule(3, 9, "10.0.0.0/9"));   // token candidate
  std::vector<Route> routes = gk.route_insert_batch(0, rules, ctx);
  EXPECT_EQ(routes[0], Route::kMainUnmatched);
  EXPECT_EQ(routes[1], Route::kMainLowestPrio);
  // The single token goes to the only real candidate, not the fallbacks.
  EXPECT_EQ(routes[2], Route::kGuaranteed);
  EXPECT_EQ(gk.stats().unmatched, 1u);
  EXPECT_EQ(gk.stats().lowest_priority, 1u);
  EXPECT_EQ(gk.stats().guaranteed, 1u);
}

TEST(GateKeeperBatch, RunningShadowFreeViewAcrossTheBatch) {
  HermesConfig config;
  config.lowest_priority_optimization = false;
  GateKeeper gk(config, 1000, 100);
  RouteContext ctx = busy_context();
  ctx.shadow_free = 5;
  ctx.pieces_needed = 2;  // each rule claims 2 shadow slots
  std::vector<Rule> rules;
  for (int i = 0; i < 4; ++i)
    rules.push_back(make_rule(static_cast<net::RuleId>(i + 1), 9,
                              "10.0.0.0/8"));
  std::vector<Route> routes = gk.route_insert_batch(0, rules, ctx);
  // 5 free slots at 2 pieces each: rules 0 and 1 fit (4 slots), rule 2
  // would need slots 5..6 and spills, as does rule 3.
  EXPECT_EQ(routes[0], Route::kGuaranteed);
  EXPECT_EQ(routes[1], Route::kGuaranteed);
  EXPECT_EQ(routes[2], Route::kMainShadowFull);
  EXPECT_EQ(routes[3], Route::kMainShadowFull);
  EXPECT_EQ(gk.stats().shadow_full, 2u);
}

TEST(TokenBucket, HugeBurstTakeIsClamped) {
  // Regression (fails pre-fix under UBSan): try_take_n used to cast
  // floor(tokens_) straight to int, which is UB once the burst exceeds
  // INT_MAX. The count must be clamped in double space before narrowing.
  TokenBucket bucket(0.0, 1e18);
  EXPECT_EQ(bucket.try_take_n(0, 5), 5);
  EXPECT_EQ(bucket.try_take_n(0, 3), 3);
  // The bucket level stays astronomically high; only 8 tokens ever left.
  EXPECT_GT(bucket.available(0), 9e17);
}

TEST(GateKeeperBatch, OverRateRulesDoNotHoldShadowSlots) {
  // Regression (fails pre-fix): the old two-pass batch algorithm let every
  // capacity-eligible rule claim its shadow slots in pass 1, then bumped
  // token-starved candidates to kMainOverRate in pass 2 WITHOUT releasing
  // the claimed slots. Later rules in the same transaction then saw
  // kMainShadowFull where the sequential per-op oracle admits them:
  // shadow_free=2, one token, three candidates used to yield
  // [Guaranteed, OverRate, ShadowFull] instead of the per-op sequence
  // [Guaranteed, OverRate, OverRate].
  HermesConfig config;
  config.lowest_priority_optimization = false;
  GateKeeper batched(config, /*rate=*/0.0, /*burst=*/1.0);
  GateKeeper sequential(config, 0.0, 1.0);
  RouteContext ctx = busy_context();
  ctx.shadow_free = 2;
  std::vector<Rule> rules;
  for (int i = 0; i < 3; ++i)
    rules.push_back(
        make_rule(static_cast<net::RuleId>(i + 1), 9, "10.0.0.0/8"));
  std::vector<Route> got = batched.route_insert_batch(0, rules, ctx);
  // Differential oracle: the per-op path with shadow_free updated between
  // calls, exactly as the agent would consume capacity rule by rule.
  RouteContext seq_ctx = ctx;
  ASSERT_EQ(got.size(), rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    Route want = sequential.route_insert(0, rules[i], seq_ctx);
    if (want == Route::kGuaranteed) seq_ctx.shadow_free -= seq_ctx.pieces_needed;
    EXPECT_EQ(got[i], want) << "rule " << i;
  }
  EXPECT_EQ(got[2], Route::kMainOverRate);  // NOT kMainShadowFull
  EXPECT_EQ(batched.stats().shadow_full, 0u);
  EXPECT_EQ(batched.stats().over_rate, 2u);
}

TEST(GateKeeperBatch, DifferentialVsPerOpAcrossMixedBatches) {
  // Broader differential sweep over shadow pressure x token budget: the
  // batch decision sequence must equal calling route_insert per rule with
  // the capacity view updated between calls.
  for (int shadow_free = 0; shadow_free <= 6; ++shadow_free) {
    for (double burst = 0.0; burst <= 5.0; burst += 1.0) {
      HermesConfig config;
      GateKeeper batched(config, 0.0, burst);
      GateKeeper sequential(config, 0.0, burst);
      RouteContext ctx = busy_context();
      ctx.shadow_free = shadow_free;
      ctx.pieces_needed = 2;
      std::vector<Rule> rules;
      for (int i = 0; i < 6; ++i)
        rules.push_back(make_rule(static_cast<net::RuleId>(i + 1),
                                  (i % 3 == 0) ? 5 : 9, "10.0.0.0/8"));
      std::vector<Route> got = batched.route_insert_batch(0, rules, ctx);
      RouteContext seq_ctx = ctx;
      ASSERT_EQ(got.size(), rules.size());
      for (std::size_t i = 0; i < rules.size(); ++i) {
        Route want = sequential.route_insert(0, rules[i], seq_ctx);
        if (want == Route::kGuaranteed)
          seq_ctx.shadow_free -= seq_ctx.pieces_needed;
        EXPECT_EQ(got[i], want) << "shadow_free=" << shadow_free
                                << " burst=" << burst << " rule " << i;
      }
    }
  }
}

TEST(GateKeeperBatch, EmptyBatchIsANoOp) {
  HermesConfig config;
  obs::Registry attached;
  obs::attach(&attached);
  GateKeeper gk(config, 0.0, 1.0);
  EXPECT_TRUE(gk.route_insert_batch(0, {}, busy_context()).empty());
  obs::attach(nullptr);
  EXPECT_EQ(gk.stats().guaranteed, 0u);
  // No token was consumed and no batch decision was recorded.
  EXPECT_NEAR(gk.bucket().available(0), 1.0, 1e-9);
  EXPECT_EQ(attached.histogram_summary("gate.batch_admitted").count, 0u);
}

TEST(Predicates, Helpers) {
  auto all = match_all();
  EXPECT_TRUE(all(make_rule(1, 0, "0.0.0.0/0")));
  auto scoped = match_prefix_within(*Prefix::parse("10.0.0.0/8"));
  EXPECT_TRUE(scoped(make_rule(1, 0, "10.2.0.0/16")));
  EXPECT_FALSE(scoped(make_rule(1, 0, "11.0.0.0/16")));
  EXPECT_FALSE(scoped(make_rule(1, 0, "0.0.0.0/0")));
  auto prio = match_priority_at_least(5);
  EXPECT_TRUE(prio(make_rule(1, 5, "10.0.0.0/8")));
  EXPECT_FALSE(prio(make_rule(1, 4, "10.0.0.0/8")));
}

}  // namespace
}  // namespace hermes::core
