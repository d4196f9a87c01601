// Rule-cache hierarchy benchmark: the millions-of-flows regime the FDRC
// refactor targets. Two phases:
//
//   * policy  — cache::CacheHierarchy in kCache mode under the Zipf
//     multi-tenant workload (src/workloads/zipf.h), one run per
//     (eviction policy, TCAM size). The logical table is far larger than
//     the TCAM; the question is which policy keeps the popular head
//     TCAM-resident. Reported per run: TCAM hit ratio over the measured
//     window, modeled mean data-plane latency per packet, promotion /
//     demotion churn, real ns per classify, and the dependency-violation
//     counter (verify_lookups is ON — every lookup is differentially
//     checked against the monolithic software table, so a nonzero count
//     is a correctness bug and the bench exits 1).
//
//   * backend — admission behavior at overflow: HermesAgent (rejects at
//     main-table capacity) vs ShadowSwitchBackend (its software tier
//     takes the overflow), both offered the same oversubscribed rule set.
//     Reported: accepted fraction and data-plane reachability.
//
// Derived metrics (CI-gated, machine-independent — all are ratios of
// modeled or counted quantities):
//   * fdrc_vs_lru_hit_improvement / fdrc_vs_lfu_hit_improvement — FDRC's
//     best-over-sizes hit-ratio advantage; the acceptance bar is > 1.
//   * miss_path_latency_ratio — FDRC mean modeled latency per packet over
//     the pure-software slow-path cost (lower is better; 1.0 would mean
//     the cache never hits).
//   * dependency_violation_free_rate — 1.0 iff every run of every policy
//     kept cache.dependency_violations at zero.
//
// Usage: bench_cache [--smoke] [output.json]
//   (--smoke shrinks flows/sizes/probes to CI scale; default output
//    BENCH_cache.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "cache/cache_hierarchy.h"
#include "baselines/shadow_switch.h"
#include "hermes/hermes_agent.h"
#include "report.h"
#include "tcam/switch_model.h"
#include "workloads/zipf.h"

namespace hermes::bench {
namespace {

// Process CPU time, not wall clock (see bench_hotpath.cpp).
struct Clock {
  struct time_point {
    std::int64_t ns;
  };
  static time_point now() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return {static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec};
#else
    return {std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count()};
#endif
  }
};

struct PolicyRun {
  std::string policy;
  int cache_size = 0;
  double hit_ratio = 0.0;
  double mean_latency_ns = 0.0;
  std::uint64_t violations = 0;
};

/// One (policy, size) run: install the full Zipf rule set, warm the
/// cache, then measure hit ratio / latency / churn over a fixed window.
PolicyRun run_policy(const workloads::ZipfConfig& wc,
                     const std::vector<net::Rule>& rules,
                     cache::PolicyKind policy, int cache_size, int warm_probes,
                     int probes) {
  cache::CacheConfig config;
  config.policy = policy;
  config.verify_lookups = true;
  cache::CacheHierarchy h(tcam::pica8_p3290(), cache_size, config);

  Time now = 0;
  for (const net::Rule& r : rules) {
    now += from_micros(1);
    h.handle(now, {net::FlowModType::kInsert, r});
  }

  workloads::ZipfTraffic traffic(wc);
  auto drive = [&](int count) {
    for (int i = 0; i < count; ++i) {
      now += from_micros(1);
      h.classify(now, traffic.next());
      if (i % 256 == 0) h.tick(now);
    }
  };
  drive(warm_probes);

  const std::uint64_t hits0 = h.hits(), misses0 = h.misses();
  const std::uint64_t promo0 = h.promotions(), demo0 = h.demotions();
  // Modeled latency is accumulated by hand (classify returns it); the
  // real-time clock around the same loop gives actual ns per classify.
  std::int64_t modeled = 0;
  auto start = Clock::now();
  for (int i = 0; i < probes; ++i) {
    now += from_micros(1);
    auto res = h.classify(now, traffic.next());
    modeled += res.latency;
    if (i % 256 == 0) h.tick(now);
  }
  double real_ns = static_cast<double>(Clock::now().ns - start.ns) /
                   static_cast<double>(probes);

  const std::uint64_t window_hits = h.hits() - hits0;
  const std::uint64_t window_total = window_hits + (h.misses() - misses0);
  PolicyRun run;
  run.policy = std::string(cache::policy_name(policy));
  run.cache_size = cache_size;
  run.hit_ratio = window_total == 0
                      ? 0.0
                      : static_cast<double>(window_hits) /
                            static_cast<double>(window_total);
  run.mean_latency_ns =
      static_cast<double>(modeled) / static_cast<double>(probes);
  run.violations = h.dependency_violations();
  double churn = static_cast<double>((h.promotions() - promo0) +
                                     (h.demotions() - demo0)) *
                 1000.0 / static_cast<double>(probes);

  std::printf(
      "  %-4s size=%5d  hit=%.4f  modeled=%8.1f ns  churn=%6.2f/kpkt  "
      "real=%7.1f ns  violations=%llu\n",
      run.policy.c_str(), cache_size, run.hit_ratio, run.mean_latency_ns,
      churn, real_ns, static_cast<unsigned long long>(run.violations));
  if (report::Reporter* rep = report::current()) {
    rep->row()
        .label("phase", "policy")
        .label("policy", run.policy)
        .value("cache_size", cache_size)
        .value("flows", wc.flows)
        .value("hit_ratio", run.hit_ratio)
        .value("modeled_latency_ns", run.mean_latency_ns)
        .value("churn_per_kpkt", churn)
        .value("dependency_violations",
               static_cast<double>(run.violations));
  }
  return run;
}

/// Offer `offered` disjoint flow rules to a backend with `capacity` TCAM
/// entries and report what fraction got accepted and what fraction still
/// answers on the data plane (read at the last insert's arrival time).
template <typename InsertFn, typename LookupFn>
void run_backend(const char* name, int offered, InsertFn&& insert,
                 LookupFn&& lookup) {
  int accepted = 0, reachable = 0;
  Time now = 0;
  for (int i = 1; i <= offered; ++i) {
    now += from_micros(100);
    net::Rule r{static_cast<net::RuleId>(i), 1,
                net::Prefix(net::Ipv4Address(0x0A000000u |
                                             static_cast<std::uint32_t>(i)),
                            32),
                net::forward_to(i % 16)};
    if (insert(now, r)) ++accepted;
  }
  for (int i = 1; i <= offered; ++i) {
    const net::Rule* hit = lookup(
        now, net::Ipv4Address(0x0A000000u | static_cast<std::uint32_t>(i)));
    if (hit != nullptr && hit->id == static_cast<net::RuleId>(i))
      ++reachable;
  }
  const double accepted_fraction = static_cast<double>(accepted) / offered;
  const double reachable_fraction = static_cast<double>(reachable) / offered;
  std::printf("  %-14s offered=%5d  accepted=%.3f  reachable=%.3f\n", name,
              offered, accepted_fraction, reachable_fraction);
  if (report::Reporter* rep = report::current()) {
    rep->row()
        .label("phase", "backend")
        .label("backend", name)
        .value("offered", offered)
        .value("accepted_fraction", accepted_fraction)
        .value("reachable_fraction", reachable_fraction);
  }
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) {
  using namespace hermes::bench;
  bool smoke = false;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out = argv[i];
    }
  }
  auto& rep = report::open("cache", "hit_ratio");
  std::printf("rule-cache hierarchy benchmark%s\n", smoke ? " [smoke]" : "");

  hermes::workloads::ZipfConfig wc;
  wc.flows = smoke ? 150'000 : 1'000'000;
  wc.seed = 11;
  const std::vector<int> sizes =
      smoke ? std::vector<int>{512, 2048} : std::vector<int>{1024, 4096};
  const int warm_probes = smoke ? 60'000 : 200'000;
  const int probes = smoke ? 120'000 : 400'000;
  // Popularity drift: the hot head migrates a few times per run (real
  // flow popularity is not static). This is the regime the policies are
  // judged in — recency-only LRU churns on the Zipf tail, un-aged LFU
  // fossilizes on the pre-drift head, FDRC's aged counters track it.
  wc.rotate_period = static_cast<std::uint64_t>(warm_probes + probes) / 6;
  wc.rotate_step = static_cast<std::uint64_t>(4 * sizes.back());

  std::printf("building %d-flow Zipf rule set (%d tenants, skew %.2f)...\n",
              wc.flows, wc.tenants, wc.skew);
  const std::vector<hermes::net::Rule> rules =
      hermes::workloads::make_zipf_rules(wc);

  const hermes::cache::PolicyKind kPolicies[] = {
      hermes::cache::PolicyKind::kLru, hermes::cache::PolicyKind::kLfu,
      hermes::cache::PolicyKind::kFdrc};
  std::uint64_t total_violations = 0;
  // hit ratio per policy name per size, for the derived ratios.
  double best_improvement_lru = 0.0, best_improvement_lfu = 0.0;
  double fdrc_latency_at_top = 0.0;
  for (int size : sizes) {
    std::printf("--- cache size %d, %d flows ---\n", size, wc.flows);
    double lru = 0.0, lfu = 0.0, fdrc = 0.0;
    for (hermes::cache::PolicyKind policy : kPolicies) {
      PolicyRun run = run_policy(wc, rules, policy, size, warm_probes, probes);
      total_violations += run.violations;
      if (policy == hermes::cache::PolicyKind::kLru) lru = run.hit_ratio;
      if (policy == hermes::cache::PolicyKind::kLfu) lfu = run.hit_ratio;
      if (policy == hermes::cache::PolicyKind::kFdrc) {
        fdrc = run.hit_ratio;
        fdrc_latency_at_top = run.mean_latency_ns;
      }
    }
    best_improvement_lru =
        std::max(best_improvement_lru, fdrc / std::max(lru, 1e-9));
    best_improvement_lfu =
        std::max(best_improvement_lfu, fdrc / std::max(lfu, 1e-9));
  }

  std::printf("--- backend admission at 1.5x oversubscription ---\n");
  const int capacity = smoke ? 512 : 2048;
  const int offered = capacity + capacity / 2;
  hermes::core::HermesConfig hc;
  hc.guarantee = hermes::from_millis(5);
  hc.token_rate = 1e9;
  hc.token_burst = 1e9;
  hermes::core::HermesAgent agent(hermes::tcam::pica8_p3290(), capacity, hc);
  run_backend(
      "hermes", offered,
      [&](hermes::Time now, const hermes::net::Rule& r) {
        auto failed = agent.stats().failed_ops;
        agent.insert(now, r);
        return agent.stats().failed_ops == failed;
      },
      [&](hermes::Time now, hermes::net::Ipv4Address addr) {
        return agent.lookup_ptr(now, addr);
      });

  hermes::baselines::ShadowSwitchBackend shadow(hermes::tcam::pica8_p3290(),
                                                capacity);
  hermes::Time shadow_now = 0;
  run_backend(
      "shadow_switch", offered,
      [&](hermes::Time now, const hermes::net::Rule& r) {
        shadow.handle(now, {hermes::net::FlowModType::kInsert, r});
        shadow_now = now;
        return true;
      },
      [&](hermes::Time now, hermes::net::Ipv4Address addr) {
        return shadow.lookup_ptr(now, addr);
      });
  shadow.tick(shadow_now + hermes::from_millis(40));

  const double software_ns = static_cast<double>(
      hermes::cache::CacheHierarchy::kSoftwareLatency);
  rep.derived("fdrc_vs_lru_hit_improvement", best_improvement_lru);
  rep.derived("fdrc_vs_lfu_hit_improvement", best_improvement_lfu);
  rep.derived("miss_path_latency_ratio",
              fdrc_latency_at_top / std::max(software_ns, 1e-9));
  rep.derived("dependency_violation_free_rate",
              total_violations == 0 ? 1.0 : 0.0);
  std::printf(
      "\nFDRC best hit-ratio improvement: %.3fx vs LRU, %.3fx vs LFU; "
      "miss-path latency ratio %.3f; violations %llu\n",
      best_improvement_lru, best_improvement_lfu,
      fdrc_latency_at_top / std::max(software_ns, 1e-9),
      static_cast<unsigned long long>(total_violations));
  rep.write(out);

  if (total_violations != 0) {
    std::fprintf(stderr,
                 "FAIL: cache.dependency_violations = %llu (must be 0)\n",
                 static_cast<unsigned long long>(total_violations));
    return 1;
  }
  if (best_improvement_lru <= 1.0 || best_improvement_lfu <= 1.0) {
    std::fprintf(stderr,
                 "FAIL: FDRC does not beat both LRU (%.3fx) and LFU "
                 "(%.3fx) at any cache size\n",
                 best_improvement_lru, best_improvement_lfu);
    return 1;
  }
  return 0;
}
