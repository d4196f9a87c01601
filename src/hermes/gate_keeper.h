// The Gate Keeper (Section 3): admission control and insertion routing.
//
// Every flow-mod passes through the Gate Keeper, which decides whether the
// rule takes the guaranteed path (shadow table) or falls back to the main
// table. Fallbacks happen when (a) the rule does not match the configured
// guarantee predicate, (b) the Section 4.2 lowest-priority optimization
// applies, (c) the shadow table cannot absorb the rule, or (d) the
// controller exceeds the agreed rate (token bucket). The token bucket is
// consulted LAST so that rejections for other reasons never consume
// admitted-rate budget.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hermes/config.h"
#include "net/rule.h"
#include "net/time.h"
#include "obs/metrics.h"

namespace hermes::core {

/// Continuous-refill token bucket.
class TokenBucket {
 public:
  /// `rate` tokens per second, capacity `burst` tokens (starts full).
  TokenBucket(double rate, double burst);

  /// Takes one token if available at `now`; false = over-rate.
  bool try_take(Time now);

  /// Takes up to `n` tokens in ONE evaluation at `now` (one refill, one
  /// debit) and returns how many were taken: min(n, floor(tokens)).
  /// Equivalent to n successive try_take(now) calls — refill at a fixed
  /// `now` is idempotent — but makes batch admission a single decision.
  int try_take_n(Time now, int n);

  /// Tokens available at `now` (without consuming).
  double available(Time now) const;

 private:
  void refill(Time now);

  double rate_;
  double burst_;
  double tokens_;
  Time last_refill_ = 0;
};

/// Why the Gate Keeper routed a rule where it did.
enum class Route : std::uint8_t {
  kGuaranteed,       ///< shadow table, guarantee applies
  kMainUnmatched,    ///< predicate did not select the rule
  kMainOverRate,     ///< token bucket empty: over the agreed rate
  kMainLowestPrio,   ///< Section 4.2 optimization: bottom-of-table append
  kMainShadowFull,   ///< shadow table cannot absorb the rule (violation)
};

/// Facts about current table state the routing decision depends on.
struct RouteContext {
  int shadow_free = 0;        ///< free slots in the shadow table
  int pieces_needed = 1;      ///< partitions this rule requires
  int main_min_priority = 0;  ///< lowest priority currently in main
  bool main_empty = true;
  bool main_full = false;
};

/// Per-reason admission totals: the Gate Keeper's own counters, updated
/// in place by each routing decision (stats() returns a reference).
struct GateKeeperStats {
  std::uint64_t guaranteed = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t over_rate = 0;
  std::uint64_t lowest_priority = 0;
  std::uint64_t shadow_full = 0;
};

class GateKeeper {
 public:
  GateKeeper(const HermesConfig& config, double token_rate,
             double token_burst);

  /// Routing decision for an insertion arriving at `now`.
  Route route_insert(Time now, const net::Rule& rule,
                     const RouteContext& ctx);

  /// Routing decisions for a whole batch arriving at `now`, under ONE
  /// token-bucket evaluation (the transaction is one controller request,
  /// so it debits admitted-rate budget once, not per rule).
  ///
  /// The token budget (whole tokens available at `now`, clamped to the
  /// batch size) is fixed up front; per-rule checks then run in batch
  /// order against a running view of `ctx` where only rules that route
  /// kGuaranteed claim `ctx.pieces_needed` shadow slots. A rule bumped to
  /// kMainOverRate consumes neither tokens nor capacity — exactly like
  /// the per-op path — so the batch decision sequence equals calling
  /// route_insert per rule with `shadow_free` updated between calls.
  /// Under token shortage the split is deterministic: the FIRST `budget`
  /// eligible rules (batch order) stay guaranteed, the rest route
  /// kMainOverRate. Per-reason counters and per-rule admission trace
  /// events match the per-op path.
  std::vector<Route> route_insert_batch(Time now,
                                        std::span<const net::Rule> rules,
                                        const RouteContext& ctx);

  /// Live totals (take a copy if you need a frozen reading).
  const GateKeeperStats& stats() const { return stats_; }
  const TokenBucket& bucket() const { return bucket_; }

 private:
  /// The admission chain, in order: the guarantee predicate, the §4.2
  /// lowest-priority append, shadow capacity against `shadow_free`, and
  /// last `take_token()` — so a rule rejected for any other reason burns
  /// no admitted-rate budget.
  template <typename TakeToken>
  Route admit(const net::Rule& rule, const RouteContext& ctx,
              int shadow_free, TakeToken&& take_token) const;

  /// Counts one routing decision under its reason and traces it.
  void note_route(Time now, Route route);

  const HermesConfig* config_;
  TokenBucket bucket_;
  GateKeeperStats stats_;
  // Guaranteed rules per batch decision, aggregated across Gate Keepers in
  // the process-attached registry (a detached no-op when none is).
  obs::Histogram batch_admitted_ =
      obs::attached_histogram("gate.batch_admitted");
};

}  // namespace hermes::core
