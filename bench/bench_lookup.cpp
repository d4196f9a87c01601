// Lookup-path microbenchmark: real per-packet classification cost of the
// tuple-space LookupEngine against the frozen linear first-match scan
// (TcamTable::peek), across rule-set sizes and address distributions.
//
// Three scenarios per size:
//   * uniform_mixed — addresses drawn uniformly from the full 32-bit
//     space over a rule set confined to 0.0.0.0/1 (so roughly half the
//     probes miss): the cache-hostile steady state.
//   * zipf_hit — addresses drawn inside the prefix of a Zipf(1.0)-ranked
//     rule: the skewed flow popularity real traffic shows, every probe a
//     hit, hot rules cache-resident.
//   * uniform_miss — addresses drawn from 128.0.0.0/1, outside every
//     rule: the linear scan's worst case (full-table walk per packet).
//
// Implementations: engine (TcamTable::lookup_ptr, zero-copy),
// engine_copy (lookup_ptr plus a copy of the hit into an optional<Rule>,
// what a caller that keeps the rule pays), and linear (peek). Derived
// metrics are engine-vs-linear ratios at the largest size that ran plus
// an engine/oracle agreement fraction; ratios, not raw ns, are what CI
// regression-gates.
//
// Two rule-set profiles, because tuple-space lookup cost is linear in
// the number of DISTINCT prefix lengths (one hash probe per length):
//   * sdn — weighted mix over 5 lengths (40% /32 exact-match microflows,
//     25% /24, 15% /16, 10% /20, 10% /8 aggregates), the shape of real
//     SDN flow tables and FIBs. All sizes; the gated ratios come from
//     this profile's largest size.
//   * stress17 — lengths uniform over /8../24 (17 distinct lengths), the
//     adversarial worst case. Largest size only, reported not gated.
//
// Usage: bench_lookup [--smoke] [output.json]
//   (default output: BENCH_lookup.json; --smoke drops the 65536-rule set
//    to CI scale, probe counts stay fixed)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <random>
#include <string>
#include <vector>

#include "report.h"
#include "tcam/tcam_table.h"

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

double ns_since(Clock::time_point start, std::uint64_t ops) {
  auto elapsed = Clock::now().ns - start.ns;
  return ops == 0 ? 0.0
                  : static_cast<double>(elapsed) / static_cast<double>(ops);
}

template <typename F>
double best_of(int reps, F&& measure) {
  double best = measure();
  for (int i = 1; i < reps; ++i) best = std::min(best, measure());
  return best;
}

/// A rule-set shape: name + weighted prefix-length pool to draw from.
struct Profile {
  const char* name;
  std::vector<int> length_pool;  ///< draw uniformly; repetition = weight
};

Profile sdn_profile() {
  // 40% /32, 25% /24, 15% /16, 10% /20, 10% /8 (pool out of 20).
  std::vector<int> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(32);
  for (int i = 0; i < 5; ++i) pool.push_back(24);
  for (int i = 0; i < 3; ++i) pool.push_back(16);
  for (int i = 0; i < 2; ++i) pool.push_back(20);
  for (int i = 0; i < 2; ++i) pool.push_back(8);
  return {"sdn", pool};
}

Profile stress17_profile() {
  std::vector<int> pool;
  for (int length = 8; length <= 24; ++length) pool.push_back(length);
  return {"stress17", pool};
}

// Rules confined to the lower half of the address space (top bit 0) so
// 128.0.0.0/1 draws are guaranteed misses; priorities 0..1023 as in the
// other benches' synth distribution.
net::Rule synth_rule(net::RuleId id, const Profile& profile,
                     std::mt19937_64& rng) {
  int priority = static_cast<int>(rng() % 1024);
  auto addr =
      net::Ipv4Address(static_cast<std::uint32_t>(rng()) & 0x7FFFFFFFu);
  int length = profile.length_pool[rng() % profile.length_pool.size()];
  return net::Rule{id, priority, net::Prefix(addr, length),
                   net::forward_to(static_cast<int>(rng() % 16))};
}

/// Zipf(1.0) rank sampler over [0, n): classic 1/rank weights via a
/// precomputed CDF, binary-searched per draw.
class ZipfSampler {
 public:
  explicit ZipfSampler(std::size_t n) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct Row {
  std::string profile;
  std::string scenario;
  std::string impl;
  int rules;
  double ns_per_lookup;
};

std::vector<Row> g_rows;

void record(const std::string& profile, const std::string& scenario,
            const std::string& impl, int rules, std::uint64_t probes,
            double ns, double hit_rate) {
  g_rows.push_back({profile, scenario, impl, rules, ns});
  double mlps = ns > 0.0 ? 1000.0 / ns : 0.0;
  std::printf(
      "  %-8s %-14s %-12s n=%6d  probes=%8llu  %9.1f ns  %8.2f Mlookup/s  "
      "hit=%.2f\n",
      profile.c_str(), scenario.c_str(), impl.c_str(), rules,
      static_cast<unsigned long long>(probes), ns, mlps, hit_rate);
  if (report::Reporter* rep = report::current()) {
    rep->row()
        .label("profile", profile)
        .label("scenario", scenario)
        .label("impl", impl)
        .value("rules", rules)
        .value("probes", static_cast<double>(probes))
        .value("ns_per_lookup", ns)
        .value("mlookups_per_sec", mlps)
        .value("hit_rate", hit_rate);
  }
}

double ns_of(const std::string& profile, const std::string& scenario,
             const std::string& impl, int rules) {
  for (const Row& r : g_rows)
    if (r.profile == profile && r.scenario == scenario && r.impl == impl &&
        r.rules == rules)
      return r.ns_per_lookup;
  return 0.0;
}

double measure_engine(tcam::TcamTable& t,
                      const std::vector<net::Ipv4Address>& probes) {
  volatile std::uint64_t sink = 0;
  auto start = Clock::now();
  for (net::Ipv4Address addr : probes) {
    const net::Rule* r = t.lookup_ptr(addr);
    if (r) sink = sink + r->id;
  }
  return ns_since(start, probes.size());
}

double measure_engine_copy(tcam::TcamTable& t,
                           const std::vector<net::Ipv4Address>& probes) {
  volatile std::uint64_t sink = 0;
  auto start = Clock::now();
  for (net::Ipv4Address addr : probes) {
    std::optional<net::Rule> r;
    if (const net::Rule* hit = t.lookup_ptr(addr)) r = *hit;
    if (r) sink = sink + r->id;
  }
  return ns_since(start, probes.size());
}

double measure_linear(const tcam::TcamTable& t,
                      const std::vector<net::Ipv4Address>& probes) {
  volatile std::uint64_t sink = 0;
  auto start = Clock::now();
  for (net::Ipv4Address addr : probes) {
    std::optional<net::Rule> r = t.peek(addr);
    if (r) sink = sink + r->id;
  }
  return ns_since(start, probes.size());
}

double hit_rate_of(tcam::TcamTable& t,
                   const std::vector<net::Ipv4Address>& probes) {
  std::uint64_t hits = 0;
  for (net::Ipv4Address addr : probes)
    if (t.lookup_ptr(addr) != nullptr) ++hits;
  return probes.empty() ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(probes.size());
}

void run_scenario(const std::string& profile, const std::string& scenario,
                  tcam::TcamTable& t, int n,
                  const std::vector<net::Ipv4Address>& engine_probes,
                  const std::vector<net::Ipv4Address>& linear_probes) {
  double hit_rate = hit_rate_of(t, engine_probes);
  record(profile, scenario, "engine", n, engine_probes.size(),
         best_of(3, [&] { return measure_engine(t, engine_probes); }),
         hit_rate);
  record(profile, scenario, "engine_copy", n, engine_probes.size(),
         best_of(3, [&] { return measure_engine_copy(t, engine_probes); }),
         hit_rate);
  // The linear scan is O(n) per probe; a smaller probe set keeps the
  // reference inside CI time without changing its per-op cost.
  record(profile, scenario, "linear", n, linear_probes.size(),
         best_of(3, [&] { return measure_linear(t, linear_probes); }),
         hit_rate);
}

/// Engine-vs-oracle agreement over a mixed probe set: fraction of probes
/// where lookup_ptr and peek name the same winner (or both miss).
/// Anything below 1.0 is an engine bug.
double oracle_agreement(tcam::TcamTable& t,
                        const std::vector<net::Ipv4Address>& probes) {
  std::uint64_t agree = 0;
  for (net::Ipv4Address addr : probes) {
    const net::Rule* e = t.lookup_ptr(addr);
    std::optional<net::Rule> o = t.peek(addr);
    bool same = (e == nullptr && !o.has_value()) ||
                (e != nullptr && o.has_value() && e->id == o->id);
    if (same) ++agree;
  }
  return probes.empty() ? 1.0
                        : static_cast<double>(agree) /
                              static_cast<double>(probes.size());
}

void bench_size(const Profile& profile, int n, std::uint64_t engine_reps,
                std::uint64_t linear_reps, double* agreement_at_top) {
  std::mt19937_64 rng(0xFACADE ^ static_cast<std::uint64_t>(n));
  tcam::TcamTable t(n);
  std::vector<net::Rule> rules;
  rules.reserve(static_cast<std::size_t>(n));
  while (static_cast<int>(rules.size()) < n) {
    net::Rule r =
        synth_rule(static_cast<net::RuleId>(rules.size() + 1), profile, rng);
    if (t.insert(r).ok) rules.push_back(r);
  }

  // Probe sets are materialized OUTSIDE the timed loops: the timed region
  // is classification only, not address synthesis.
  std::vector<net::Ipv4Address> uniform, zipf, miss;
  uniform.reserve(engine_reps);
  zipf.reserve(engine_reps);
  miss.reserve(engine_reps);
  ZipfSampler sampler(rules.size());
  for (std::uint64_t i = 0; i < engine_reps; ++i) {
    uniform.emplace_back(static_cast<std::uint32_t>(rng()));
    const net::Prefix& p = rules[sampler.draw(rng)].match;
    std::uint32_t span_mask = ~p.mask();
    zipf.emplace_back(p.address().value() |
                      (static_cast<std::uint32_t>(rng()) & span_mask));
    miss.emplace_back(0x80000000u | (static_cast<std::uint32_t>(rng()) &
                                     0x7FFFFFFFu));
  }
  auto head = [&](const std::vector<net::Ipv4Address>& v) {
    return std::vector<net::Ipv4Address>(
        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(std::min<
                                   std::uint64_t>(linear_reps, v.size())));
  };

  std::printf("--- %s, %d rules ---\n", profile.name, n);
  run_scenario(profile.name, "uniform_mixed", t, n, uniform, head(uniform));
  run_scenario(profile.name, "zipf_hit", t, n, zipf, head(zipf));
  run_scenario(profile.name, "uniform_miss", t, n, miss, head(miss));

  // Differential spot-check riding along with every bench run.
  std::vector<net::Ipv4Address> mixed = head(uniform);
  std::vector<net::Ipv4Address> zhead = head(zipf);
  mixed.insert(mixed.end(), zhead.begin(), zhead.end());
  *agreement_at_top = oracle_agreement(t, mixed);
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
  auto& rep = report::open("lookup", "ns_per_lookup");
  std::printf("lookup-path microbenchmark (real ns, not simulated)%s\n",
              smoke ? " [smoke]" : "");
  std::vector<int> sizes = smoke
                               ? std::vector<int>{1024, 4096, 16384}
                               : std::vector<int>{1024, 4096, 16384, 65536};
  // Engine probes resolve tens-of-ns lookups; the linear reference walks
  // O(n) rules per probe, so it gets a smaller fixed set (same per-op
  // cost, bounded CI time).
  const std::uint64_t engine_reps = 200000;
  const std::uint64_t linear_reps = 2000;
  const Profile sdn = sdn_profile();
  const Profile stress = stress17_profile();
  double agreement = 1.0;
  for (int n : sizes)
    bench_size(sdn, n, engine_reps, linear_reps, &agreement);
  // The adversarial 17-length profile at the largest size only: it
  // exists to show the tuple-space scaling axis, not to gate.
  double stress_agreement = 1.0;
  bench_size(stress, sizes.back(), engine_reps, linear_reps,
             &stress_agreement);

  // Ratios on the realistic profile at the largest size that ran; these
  // CI regression-gate.
  int top = sizes.back();
  auto ratio = [&](const char* scenario) {
    return ns_of(sdn.name, scenario, "linear", top) /
           std::max(ns_of(sdn.name, scenario, "engine", top), 1e-9);
  };
  double up_uniform = ratio("uniform_mixed");
  double up_zipf = ratio("zipf_hit");
  double up_miss = ratio("uniform_miss");
  rep.derived("lookup_speedup_uniform", up_uniform);
  rep.derived("lookup_speedup_zipf", up_zipf);
  rep.derived("lookup_speedup_miss", up_miss);
  rep.derived("engine_oracle_agreement",
              std::min(agreement, stress_agreement));
  std::printf(
      "\nspeedup @%dk rules (sdn): uniform %.1fx, zipf %.1fx, miss %.1fx; "
      "oracle agreement %.4f\n",
      top / 1024, up_uniform, up_zipf, up_miss,
      std::min(agreement, stress_agreement));
  std::printf(
      "engine throughput @%dk rules: sdn %.2f / %.2f Mlookup/s "
      "(zipf / uniform), stress17 %.2f / %.2f Mlookup/s\n",
      top / 1024,
      1000.0 / std::max(ns_of(sdn.name, "zipf_hit", "engine", top), 1e-9),
      1000.0 /
          std::max(ns_of(sdn.name, "uniform_mixed", "engine", top), 1e-9),
      1000.0 /
          std::max(ns_of(stress.name, "zipf_hit", "engine", top), 1e-9),
      1000.0 / std::max(ns_of(stress.name, "uniform_mixed", "engine", top),
                        1e-9));
  rep.write(out);
  return 0;
}
