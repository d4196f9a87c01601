// Hot-path microbenchmark: per-op wall-clock cost of the TCAM bookkeeping
// primitives that every control-plane action rides on, plus the agent
// migration drain, a full PlainSwitch backend churn, the rule cache's
// aborted promotion closure, id lookups in one long equal-priority run,
// the simulator's max-min rate recompute and overlap-index churn.
//
// Unlike the per-figure harnesses (which report SIMULATED latency from the
// switch models), this measures REAL nanoseconds of the simulator's own
// data structures — the repo's perf-trajectory baseline. Each run also
// times a frozen copy of the pre-index linear-scan TcamTable bookkeeping
// so the indexed/linear speedup is reproduced in every run, and emits
// machine-readable BENCH_hotpath.json next to the human-readable table.
//
// Usage: bench_hotpath [--smoke] [output.json]
//   (default output: BENCH_hotpath.json; --smoke shrinks sizes and rep
//    counts to CI scale — the derived speedups are then measured at the
//    largest size that still ran)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <random>
#include <string>
#include <vector>

#include "hermes/hermes_agent.h"
#include "hermes/overlap_index.h"
#include "baselines/plain_switch.h"
#include "cache/cache_hierarchy.h"
#include "net/routing.h"
#include "report.h"
#include "sim/fluid_network.h"
#include "tcam/switch_model.h"
#include "tcam/tcam_table.h"

namespace hermes::bench {
namespace {

// Process CPU time, not wall clock: on a contended CI core, preemption
// inflates wall-clock windows by milliseconds, which swamps the tens-of-
// ns indexed operations this bench exists to measure.
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

// Frozen pre-index reference: the linear-scan bookkeeping TcamTable used
// before this benchmark existed. Kept verbatim (minus stats) so the
// indexed-vs-linear speedup is measured, not remembered.
class LinearTcamTable {
 public:
  explicit LinearTcamTable(int capacity) : capacity_(capacity) {
    entries_.reserve(static_cast<std::size_t>(capacity));
  }

  bool insert(const net::Rule& rule) {
    if (static_cast<int>(entries_.size()) == capacity_ || contains(rule.id))
      return false;
    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), rule.priority,
        [](int priority, const net::Rule& r) { return priority > r.priority; });
    entries_.insert(pos, rule);
    return true;
  }

  bool erase(net::RuleId id) {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const net::Rule& r) { return r.id == id; });
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }

  bool contains(net::RuleId id) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const net::Rule& r) { return r.id == id; });
  }

  const net::Rule* find(net::RuleId id) const {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const net::Rule& r) { return r.id == id; });
    return it == entries_.end() ? nullptr : &*it;
  }

  net::RuleId back_id() const { return entries_.back().id; }

 private:
  int capacity_;
  std::vector<net::Rule> entries_;
};

net::Rule synth_rule(net::RuleId id, std::mt19937_64& rng) {
  int priority = static_cast<int>(rng() % 1024);
  auto addr = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
  int length = 8 + static_cast<int>(rng() % 17);  // /8 .. /24
  return net::Rule{id, priority, net::Prefix(addr, length),
                   net::forward_to(static_cast<int>(rng() % 16))};
}

struct Row {
  std::string op;
  std::string impl;
  int rules;
  std::uint64_t ops;
  double ns_per_op;
};

std::vector<Row> g_rows;

void record(const std::string& op, const std::string& impl, int rules,
            std::uint64_t ops, double ns) {
  g_rows.push_back({op, impl, rules, ops, ns});
  std::printf("  %-16s %-8s n=%6d  ops=%8llu  %12.1f ns/op\n", op.c_str(),
              impl.c_str(), rules, static_cast<unsigned long long>(ops), ns);
  if (report::Reporter* rep = report::current()) {
    rep->row()
        .label("op", op)
        .label("impl", impl)
        .value("rules", rules)
        .value("ops", static_cast<double>(ops))
        .value("ns_per_op", ns);
  }
}

// find/contains: point lookups by id against a resident table.
template <typename Table>
double bench_find(Table& table, const std::vector<net::RuleId>& probes) {
  volatile std::uint64_t sink = 0;
  auto start = Clock::now();
  for (net::RuleId id : probes) {
    const net::Rule* r = table.find(id);
    if (r) sink = sink + r->id;
  }
  return ns_since(start, probes.size());
}

// erase+reinsert churn at constant occupancy (the migration-drain and
// blocker-delete shape: locate by id, splice, put back).
template <typename Table>
double bench_churn(Table& table, const std::vector<net::Rule>& victims) {
  auto start = Clock::now();
  for (const net::Rule& r : victims) {
    table.erase(r.id);
    table.insert(r);
  }
  return ns_since(start, victims.size() * 2);
}

// TcamTable::find returns optional (copies); adapt to the pointer probe.
struct IndexedView {
  tcam::TcamTable& t;
  const net::Rule* find(net::RuleId id) const { return t.find_ptr(id); }
  bool erase(net::RuleId id) { return t.erase(id).ok; }
  bool insert(const net::Rule& r) { return t.insert(r).ok; }
  net::RuleId back_id() const { return t.rules_view().back().id; }
};

// Teardown drain: erase the bottom-most entry repeatedly. The splice is
// free (empty suffix), so this isolates the id-locate cost — a full
// array scan pre-index, an indexed lookup now. This is the shape of the
// migration drain and of slice teardown, and the headline erase number.
template <typename Table>
double bench_drain(Table& table, std::uint64_t reps) {
  auto start = Clock::now();
  for (std::uint64_t i = 0; i < reps; ++i) table.erase(table.back_id());
  return ns_since(start, reps);
}

// Best-of-N repeated measurement: the min discards warmup and scheduler
// noise, which otherwise swings single-shot runs enough to flake the CI
// regression gate (the derived speedups divide two of these numbers).
template <typename F>
double best_of(int reps, F&& measure) {
  double best = measure();
  for (int i = 1; i < reps; ++i) best = std::min(best, measure());
  return best;
}

void bench_tables(int n, std::uint64_t find_reps, std::uint64_t churn_reps) {
  std::mt19937_64 rng(0xC0FFEE ^ static_cast<std::uint64_t>(n));
  std::vector<net::Rule> rules;
  rules.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    rules.push_back(synth_rule(static_cast<net::RuleId>(i + 1), rng));

  tcam::TcamTable indexed(n);
  LinearTcamTable linear(n);

  // Build (insert from empty) — both implementations pay the same vector
  // splice; the indexed one additionally maintains the id map.
  auto start = Clock::now();
  for (const net::Rule& r : rules) indexed.insert(r);
  record("insert_build", "indexed", n, static_cast<std::uint64_t>(n),
         ns_since(start, static_cast<std::uint64_t>(n)));
  start = Clock::now();
  for (const net::Rule& r : rules) linear.insert(r);
  record("insert_build", "linear", n, static_cast<std::uint64_t>(n),
         ns_since(start, static_cast<std::uint64_t>(n)));

  // Probe ids: resident, uniformly random (worst case for a linear scan is
  // a miss; keep ~10% misses to exercise both outcomes).
  std::vector<net::RuleId> probes;
  probes.reserve(find_reps);
  for (std::uint64_t i = 0; i < find_reps; ++i) {
    bool miss = rng() % 10 == 0;
    probes.push_back(miss ? static_cast<net::RuleId>(n + 1 + rng() % 1000)
                          : rules[rng() % rules.size()].id);
  }
  IndexedView view{indexed};
  record("find", "indexed", n, probes.size(),
         best_of(3, [&] { return bench_find(view, probes); }));
  record("find", "linear", n, probes.size(),
         best_of(3, [&] { return bench_find(linear, probes); }));

  std::vector<net::Rule> victims;
  victims.reserve(churn_reps);
  for (std::uint64_t i = 0; i < churn_reps; ++i)
    victims.push_back(rules[rng() % rules.size()]);
  record("erase_insert", "indexed", n, victims.size() * 2,
         best_of(3, [&] { return bench_churn(view, victims); }));
  record("erase_insert", "linear", n, victims.size() * 2,
         best_of(3, [&] { return bench_churn(linear, victims); }));

  // Drain last so both tables still hold all n rules above. The drain
  // destroys entries, so it cannot be repeated wholesale; instead it is
  // timed as the min over many small chunks (total erased <= n/2). The
  // indexed erase is tens of ns, so on a busy CI core a single long
  // measurement gets preempted — the min over short chunks recovers the
  // uncontended cost.
  const int kDrainChunks = 12;
  std::uint64_t chunk = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(n) / (2 * kDrainChunks));
  record("erase_drain", "indexed", n, chunk * kDrainChunks,
         best_of(kDrainChunks, [&] { return bench_drain(view, chunk); }));
  record("erase_drain", "linear", n, chunk * kDrainChunks,
         best_of(kDrainChunks, [&] { return bench_drain(linear, chunk); }));
}

// Agent migration: fill the shadow table, drain it into main, repeat until
// `n` rules live in main. Measures the full Rule Manager path (planning,
// batch write, shadow drain, rebind) per migrated rule.
void bench_migrate(int n) {
  core::HermesConfig config;
  config.shadow_capacity = 256;
  config.token_rate = 1e12;
  config.token_burst = 1e12;
  config.lowest_priority_optimization = false;
  core::HermesAgent agent(tcam::pica8_p3290(), 2 * n + 512, config);

  std::mt19937_64 rng(0xBEEF ^ static_cast<std::uint64_t>(n));
  Time now = 0;
  net::RuleId next_id = 1;
  auto start = Clock::now();
  while (agent.main_occupancy() < n) {
    for (int i = 0; i < 200 && static_cast<int>(next_id) <= n; ++i)
      agent.insert(now++, synth_rule(next_id++, rng));
    agent.migrate_now(now++);
    if (static_cast<int>(next_id) > n && agent.shadow_occupancy() == 0) break;
  }
  record("migrate", "agent", n, agent.stats().rules_migrated,
         ns_since(start, agent.stats().rules_migrated));
}

// Full backend churn through the uniform SwitchBackend path: insert n
// rules, then delete them all (every op crosses Asic::apply).
void bench_backend(int n) {
  baselines::PlainSwitch sw(tcam::pica8_p3290(), n);
  std::mt19937_64 rng(0xDEAD ^ static_cast<std::uint64_t>(n));
  std::vector<net::Rule> rules;
  for (int i = 0; i < n; ++i)
    rules.push_back(synth_rule(static_cast<net::RuleId>(i + 1), rng));
  Time now = 0;
  auto start = Clock::now();
  for (const net::Rule& r : rules)
    sw.handle(now++, {net::FlowModType::kInsert, r});
  for (const net::Rule& r : rules)
    sw.handle(now++, {net::FlowModType::kDelete, net::Rule{r.id, 0, {}, {}}});
  double ns = ns_since(start, static_cast<std::uint64_t>(2 * n));
  record("backend_churn", "plain", n,
         sw.table_stats().inserts + sw.table_stats().deletes, ns);
}

// Aborted promotion round: a /12 aggregate at priority 1 with
// `descendants` /32s at priority 9 spread under it, so its dependency
// closure holds every /32 and always exceeds `kClosureLimit`. One round =
// classify an address only the /12 matches (LRU re-queues it on every
// miss) + a forced promotion round that aborts the closure.
struct ClosureAbort {
  explicit ClosureAbort(int descendants)
      : descendants(descendants), h(tcam::pica8_p3290(), 4096, lru()) {
    h.handle(0, {net::FlowModType::kInsert,
                 net::Rule{1, 1, net::Prefix(net::Ipv4Address(kBase), 12),
                           net::forward_to(1)}});
    const std::uint32_t step =
        (1u << 20) / static_cast<std::uint32_t>(descendants);
    for (int i = 0; i < descendants; ++i) {
      const std::uint32_t addr =
          kBase + static_cast<std::uint32_t>(i) * step + 1;
      h.handle(0, {net::FlowModType::kInsert,
                   net::Rule{static_cast<net::RuleId>(2 + i), 9,
                             net::Prefix(net::Ipv4Address(addr), 32),
                             net::forward_to(2)}});
    }
  }

  static cache::CacheConfig lru() {
    cache::CacheConfig config;
    config.policy = cache::PolicyKind::kLru;
    return config;
  }

  double block_ns(int rounds) {
    const net::Ipv4Address probe(kBase);  // no /32 sits on offset 0
    auto start = Clock::now();
    for (int r = 0; r < rounds; ++r) {
      h.classify(now, probe);
      h.tick(now++);
    }
    return ns_since(start, static_cast<std::uint64_t>(rounds));
  }

  static constexpr std::uint32_t kBase = 10u << 24;  // 10.0.0.0/12
  int descendants;
  cache::CacheHierarchy h;
  Time now = 1;
};

// Closure-abort scaling: the cost of an aborted round with 65,536 /32s
// under the aggregate divided by the cost with 256. The closure query
// stops at kClosureLimit + 1 members, so the ratio should not grow with
// the number of /32s.
// The two sizes run in alternating blocks, so drift hits both alike; each
// is the median over its blocks of ns/round.
double bench_closure_abort_scaling() {
  constexpr int kBlocks = 7;
  constexpr int kRounds = 200;
  ClosureAbort small(256);
  ClosureAbort large(65536);
  std::vector<double> small_ns;
  std::vector<double> large_ns;
  for (int b = 0; b < kBlocks; ++b) {
    small_ns.push_back(small.block_ns(kRounds));
    large_ns.push_back(large.block_ns(kRounds));
  }
  const std::uint64_t total = kBlocks * kRounds;
  auto median_of = [&](ClosureAbort& run, std::vector<double>& ns) {
    if (run.h.promotion_aborts() != total) {
      std::fprintf(stderr, "closure_abort: %llu of %llu rounds aborted\n",
                   static_cast<unsigned long long>(run.h.promotion_aborts()),
                   static_cast<unsigned long long>(total));
      std::exit(1);
    }
    std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
    record("closure_abort", "cache", run.descendants, total,
           ns[ns.size() / 2]);
    return ns[ns.size() / 2];
  };
  const double small_median = median_of(small, small_ns);
  return median_of(large, large_ns) / std::max(small_median, 1e-9);
}

// Locate-run scaling: ns per find_ptr in a table whose rules all share
// one priority, at 65,536 entries divided by the same at 1,024. The
// whole table is one equal-priority run, so a locate that scans the run
// grows with it (~64x); one binary search on (priority, arrival stamp)
// grows only with log n. Alternating blocks and medians, as above.
struct OneRunTable {
  explicit OneRunTable(int n) : size(n), table(n) {
    std::mt19937_64 rng(0x5EED ^ static_cast<std::uint64_t>(n));
    for (int i = 0; i < n; ++i) {
      table.insert(net::Rule{
          static_cast<net::RuleId>(i + 1), 7,
          net::Prefix(net::Ipv4Address(static_cast<std::uint32_t>(i) << 8),
                      24),
          net::forward_to(1)});
    }
    // A fixed pool of probed ids keeps the search paths cache-resident,
    // so the ratio measures the locate algorithm, not memory latency.
    std::vector<net::RuleId> pool;
    for (int i = 0; i < kPool; ++i)
      pool.push_back(static_cast<net::RuleId>(1 + rng() % n));
    for (int i = 0; i < kProbes; ++i) probes.push_back(pool[rng() % kPool]);
  }

  double block_ns() {
    std::uint64_t found = 0;
    auto start = Clock::now();
    for (int pass = 0; pass < kPasses; ++pass)
      for (net::RuleId id : probes) found += table.find_ptr(id) != nullptr;
    const std::uint64_t finds = kFinds;
    const double ns = ns_since(start, finds);
    if (found != finds) {
      std::fprintf(stderr, "locate_run: %llu of %llu probes found\n",
                   static_cast<unsigned long long>(found),
                   static_cast<unsigned long long>(finds));
      std::exit(1);
    }
    return ns;
  }

  static constexpr int kPool = 256;
  static constexpr int kProbes = 2048;
  static constexpr int kPasses = 8;
  static constexpr int kFinds = kProbes * kPasses;
  int size;
  tcam::TcamTable table;
  std::vector<net::RuleId> probes;
};

double bench_locate_run_scaling() {
  constexpr int kBlocks = 7;
  OneRunTable small(1024);
  OneRunTable large(65536);
  std::vector<double> small_ns;
  std::vector<double> large_ns;
  for (int b = 0; b < kBlocks; ++b) {
    small_ns.push_back(small.block_ns());
    large_ns.push_back(large.block_ns());
  }
  auto median_of = [&](const OneRunTable& run, std::vector<double>& ns) {
    std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
    record("locate_run", "indexed", run.size,
           static_cast<std::uint64_t>(kBlocks) * OneRunTable::kFinds,
           ns[ns.size() / 2]);
    return ns[ns.size() / 2];
  };
  const double small_median = median_of(small, small_ns);
  return median_of(large, large_ns) / std::max(small_median, 1e-9);
}

// Rate-recompute scaling: CPU ns per add_flow + remove_flow pair in a
// FluidNetwork on a k=16 fat-tree carrying 4,096 active flows, divided by
// the same with 512. Every mutation refills max-min rates over all active
// flows. A filling that rescans every link and flow in each round also
// pays for the rounds, which grow with the flows (~8.7 against 6.0-6.2
// for the heap of shared links and each flow's least private link).
// Alternating blocks and medians, as above. A third row, at 32 flows,
// follows the pair.
struct ActiveFlows {
  ActiveFlows(const net::Topology& topo, net::PathDatabase& paths, int n)
      : size(n), network(topo) {
    std::mt19937_64 rng(0xF1A7 ^ static_cast<std::uint64_t>(n));
    const std::vector<net::NodeId> hosts = topo.hosts();
    auto random_links = [&] {
      net::NodeId a = hosts[rng() % hosts.size()];
      net::NodeId b = hosts[rng() % hosts.size()];
      while (b == a) b = hosts[rng() % hosts.size()];
      const auto& candidates = paths.paths(a, b);
      return net::path_links(topo, candidates[rng() % candidates.size()]);
    };
    for (int i = 0; i < n; ++i) network.add_flow(1e9, random_links(), 0);
    for (int i = 0; i < kPairs; ++i) probes.push_back(random_links());
  }

  double block_ns() {
    auto start = Clock::now();
    for (const auto& links : probes)
      network.remove_flow(network.add_flow(1e9, links, 0), 0);
    return ns_since(start, probes.size());
  }

  static constexpr int kPairs = 16;
  int size;
  sim::FluidNetwork network;
  std::vector<std::vector<net::LinkId>> probes;
};

double bench_rate_recompute_scaling() {
  constexpr int kBlocks = 7;
  const net::Topology topo = net::fat_tree(16);
  net::PathDatabase paths(topo, 4, net::hop_count());
  ActiveFlows small(topo, paths, 512);
  ActiveFlows large(topo, paths, 4096);
  std::vector<double> small_ns;
  std::vector<double> large_ns;
  for (int b = 0; b < kBlocks; ++b) {
    small_ns.push_back(small.block_ns());
    large_ns.push_back(large.block_ns());
  }
  auto median_of = [&](const ActiveFlows& run, std::vector<double>& ns) {
    std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
    record("rate_recompute", "fluid", run.size,
           static_cast<std::uint64_t>(kBlocks) * ActiveFlows::kPairs,
           ns[ns.size() / 2]);
    return ns[ns.size() / 2];
  };
  const double small_median = median_of(small, small_ns);
  const double scaling =
      median_of(large, large_ns) / std::max(small_median, 1e-9);
  // te_fattree's regime, ~30 flows per filling, most links private to one
  // flow. Recorded after the pair, not gated.
  ActiveFlows few(topo, paths, 32);
  std::vector<double> few_ns;
  for (int b = 0; b < kBlocks; ++b) few_ns.push_back(few.block_ns());
  median_of(few, few_ns);
  return scaling;
}

// Path queries: ns per PathDatabase::paths call over 2,400 random host
// pairs of a k=16 fat-tree, on a fresh database, so the cost includes
// the Dijkstra rows the queries compute on first use. Best of three
// fresh databases over the same pairs. Not gated.
void bench_path_query() {
  constexpr int kQueries = 2400;
  const net::Topology topo = net::fat_tree(16);
  const std::vector<net::NodeId> hosts = topo.hosts();
  std::mt19937_64 rng(0x9A7B);
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  while (static_cast<int>(pairs.size()) < kQueries) {
    net::NodeId a = hosts[rng() % hosts.size()];
    net::NodeId b = hosts[rng() % hosts.size()];
    if (a != b) pairs.emplace_back(a, b);
  }
  record("path_query", "database", static_cast<int>(hosts.size()), kQueries,
         best_of(3, [&] {
           net::PathDatabase db(topo, 4, net::hop_count());
           volatile std::size_t sink = 0;
           auto start = Clock::now();
           for (const auto& [a, b] : pairs) sink = sink + db.paths(a, b).size();
           return ns_since(start, pairs.size());
         }));
}

// Overlap-index churn: ns per erase + insert of a fresh random /32 in an
// OverlapIndex holding `live` /32s at priorities 100-104, the shape of
// te_fattree's and flow_cache's rules. 100,000 ops in one timed pass, the
// victims and the fresh rules drawn before it. An index that keeps every
// node it ever made grows with the ops, not the live rules. Not gated.
void bench_overlap_churn(int live) {
  constexpr int kOps = 100000;
  std::mt19937_64 rng(0x0C4E ^ static_cast<std::uint64_t>(live));
  net::RuleId next_id = 1;
  auto fresh = [&] {
    const net::RuleId id = next_id++;
    return net::Rule{
        id, 100 + static_cast<int>(id % 5),
        net::Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())), 32),
        net::forward_to(1)};
  };
  core::OverlapIndex index;
  std::vector<net::Rule> slots;
  for (int i = 0; i < live; ++i) {
    slots.push_back(fresh());
    index.insert(slots.back());
  }
  std::vector<std::size_t> victims;
  std::vector<net::Rule> arrivals;
  for (int i = 0; i < kOps; ++i) {
    victims.push_back(rng() % slots.size());
    arrivals.push_back(fresh());
  }
  auto start = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    net::Rule& slot = slots[victims[i]];
    index.erase(slot.id, slot.match);
    slot = arrivals[i];
    index.insert(slot);
  }
  record("overlap_churn", "trie", live, kOps, ns_since(start, kOps));
}

double ns_of(const std::string& op, const std::string& impl, int rules) {
  for (const Row& r : g_rows)
    if (r.op == op && r.impl == impl && r.rules == rules) return r.ns_per_op;
  return 0.0;
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
  auto& rep = report::open("hotpath", "ns_per_op");
  std::printf("hot-path microbenchmark (real ns, not simulated latency)%s\n",
              smoke ? " [smoke]" : "");
  // Fixed probe counts keep the linear reference inside CI time while
  // giving the indexed path enough iterations to resolve per-op cost.
  std::vector<int> table_sizes = smoke ? std::vector<int>{1024, 4096, 16384}
                                       : std::vector<int>{1024, 4096, 16384,
                                                          65536};
  // Reps are NOT reduced in smoke mode: the derived speedups must stay
  // stable enough for a 25% CI gate, and fewer reps measure noise.
  std::uint64_t find_reps = 20000;
  std::uint64_t churn_reps = 4000;
  for (int n : table_sizes) {
    std::printf("--- %d rules ---\n", n);
    bench_tables(n, find_reps, churn_reps);
  }
  std::vector<int> agent_sizes =
      smoke ? std::vector<int>{1024, 4096} : std::vector<int>{1024, 4096,
                                                              16384};
  for (int n : agent_sizes) bench_migrate(n);
  for (int n : agent_sizes) bench_backend(n);
  // Host-time scaling ratios (lower is better). Same sizes and reps in
  // smoke mode, for the same CI-stability reason as above.
  const double closure_scaling = bench_closure_abort_scaling();
  const double locate_scaling = bench_locate_run_scaling();
  const double recompute_scaling = bench_rate_recompute_scaling();
  bench_path_query();
  for (int live : {1024, 65536}) bench_overlap_churn(live);

  // Headline indexed-vs-linear ratios at the largest size that ran.
  // Ratios — not raw ns/op — are what CI regression-gates: they are
  // stable across machines while absolute timings are not.
  int top = table_sizes.back();
  double find_speedup = ns_of("find", "linear", top) /
                        std::max(ns_of("find", "indexed", top), 1e-9);
  double drain_speedup = ns_of("erase_drain", "linear", top) /
                         std::max(ns_of("erase_drain", "indexed", top), 1e-9);
  double churn_speedup =
      ns_of("erase_insert", "linear", top) /
      std::max(ns_of("erase_insert", "indexed", top), 1e-9);
  rep.derived("find_speedup", find_speedup);
  rep.derived("erase_drain_speedup", drain_speedup);
  rep.derived("erase_insert_speedup", churn_speedup);
  rep.derived("closure_abort_scaling", closure_scaling);
  rep.derived("locate_run_scaling", locate_scaling);
  rep.derived("rate_recompute_scaling", recompute_scaling);
  std::printf(
      "\nspeedup @%dk rules: find %.1fx, erase (drain) %.1fx, "
      "erase+insert churn %.1fx\n"
      "closure abort cost, 65536 vs 256 /32s under the aggregate: %.2fx\n"
      "find cost in one equal-priority run, 65536 vs 1024 entries: %.2fx\n"
      "rate recompute cost, 4096 vs 512 active flows: %.2fx\n",
      top / 1024, find_speedup, drain_speedup, churn_speedup,
      closure_scaling, locate_scaling, recompute_scaling);
  rep.write(out);
  return 0;
}
