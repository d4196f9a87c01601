#include "hermes/gate_keeper.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/trace.h"

namespace hermes::core {

RulePredicate match_all() {
  return [](const net::Rule&) { return true; };
}

RulePredicate match_prefix_within(net::Prefix scope) {
  return [scope](const net::Rule& r) { return scope.contains(r.match); };
}

RulePredicate match_priority_at_least(int min_priority) {
  return [min_priority](const net::Rule& r) {
    return r.priority >= min_priority;
  };
}

TokenBucket::TokenBucket(double rate, double burst)
    : rate_(rate), burst_(burst), tokens_(burst) {
  assert(rate >= 0 && burst >= 0);
}

void TokenBucket::refill(Time now) {
  if (now <= last_refill_) return;
  double elapsed_s = to_seconds(now - last_refill_);
  tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_);
  last_refill_ = now;
}

bool TokenBucket::try_take(Time now) {
  refill(now);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  return false;
}

int TokenBucket::try_take_n(Time now, int n) {
  if (n <= 0) return 0;
  refill(now);
  // Compare in double space before narrowing: floor(tokens_) exceeds
  // INT_MAX for large bursts, and casting such a value to int is UB. The
  // cast only happens on the branch where whole < n, so it always fits.
  double whole = std::floor(tokens_);
  int taken = whole < static_cast<double>(n) ? static_cast<int>(whole) : n;
  tokens_ -= static_cast<double>(taken);
  return taken;
}

double TokenBucket::available(Time now) const {
  double elapsed_s = now > last_refill_ ? to_seconds(now - last_refill_) : 0;
  return std::min(burst_, tokens_ + elapsed_s * rate_);
}

GateKeeper::GateKeeper(const HermesConfig& config, double token_rate,
                       double token_burst)
    : config_(&config), bucket_(token_rate, token_burst) {}

void GateKeeper::note_route(Time now, Route route) {
  switch (route) {
    case Route::kGuaranteed: ++stats_.guaranteed; break;
    case Route::kMainUnmatched: ++stats_.unmatched; break;
    case Route::kMainOverRate: ++stats_.over_rate; break;
    case Route::kMainLowestPrio: ++stats_.lowest_priority; break;
    case Route::kMainShadowFull: ++stats_.shadow_full; break;
  }
  obs::trace_event(
      obs::admission_event(now, static_cast<std::uint8_t>(route)));
}

template <typename TakeToken>
Route GateKeeper::admit(const net::Rule& rule, const RouteContext& ctx,
                        int shadow_free, TakeToken&& take_token) const {
  if (config_->predicate && !config_->predicate(rule))
    return Route::kMainUnmatched;
  // Section 4.2: a rule at or below the bottom of the main table appends
  // without shifting — inserting it into the shadow table would only
  // waste guaranteed capacity and maximize partitioning.
  if (config_->lowest_priority_optimization && !ctx.main_full &&
      (ctx.main_empty || rule.priority <= ctx.main_min_priority))
    return Route::kMainLowestPrio;
  // Shadow-capacity check BEFORE the token bucket: a shadow-full
  // rejection takes the main-table path and must not burn admitted-rate
  // budget — tokens pay only for shadow capacity actually consumed.
  // (Consuming first would silently under-admit subsequent guaranteed
  // inserts and skew the Equation 2 admitted-rate accounting.)
  if (ctx.pieces_needed > shadow_free) return Route::kMainShadowFull;
  return take_token() ? Route::kGuaranteed : Route::kMainOverRate;
}

Route GateKeeper::route_insert(Time now, const net::Rule& rule,
                               const RouteContext& ctx) {
  Route route = admit(rule, ctx, ctx.shadow_free,
                      [&] { return bucket_.try_take(now); });
  note_route(now, route);
  return route;
}

std::vector<Route> GateKeeper::route_insert_batch(
    Time now, std::span<const net::Rule> rules, const RouteContext& ctx) {
  if (rules.empty()) return {};  // no decision made, nothing recorded
  std::vector<Route> routes(rules.size(), Route::kMainUnmatched);
  // The token budget for the whole transaction is known up front: the
  // whole tokens the bucket holds at `now`, clamped to the batch size so
  // the double->int narrowing is always in range. Knowing the budget
  // before the capacity pass matters for correctness: a rule that routes
  // kMainOverRate must not hold shadow slots (the per-op path consumes
  // nothing for over-rate rules), otherwise later rules in the same batch
  // see kMainShadowFull where the sequential oracle admits them.
  double whole_tokens = std::floor(bucket_.available(now));
  int budget =
      whole_tokens < static_cast<double>(rules.size())
          ? static_cast<int>(std::max(whole_tokens, 0.0))
          : static_cast<int>(rules.size());
  // One pass in batch order against a running capacity view: a rule
  // becomes guaranteed only while both shadow slots AND token budget
  // remain, and only then claims ctx.pieces_needed slots. The split under
  // token shortage is deterministic: the FIRST `budget` eligible rules
  // stay guaranteed, the tail routes kMainOverRate without touching the
  // capacity view.
  int shadow_free = ctx.shadow_free;
  int taken = 0;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    routes[i] = admit(rules[i], ctx, shadow_free, [&] {
      if (taken >= budget) return false;
      shadow_free -= ctx.pieces_needed;
      ++taken;
      return true;
    });
  }
  // ONE token-bucket debit for the transaction (the bucket is consulted
  // last in the per-op path too: rules rejected for other reasons burn no
  // budget). `taken <= budget <= floor(available)` so the debit succeeds
  // in full.
  int debited = bucket_.try_take_n(now, taken);
  assert(debited == taken);
  (void)debited;
  for (Route route : routes) note_route(now, route);
  batch_admitted_.record(static_cast<std::uint64_t>(taken));
  return routes;
}

}  // namespace hermes::core
