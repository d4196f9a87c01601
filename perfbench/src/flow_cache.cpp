// flow_cache: the read-mostly data plane of flow-driven rule caching.
//
// A Zipf(0.99) multi-tenant rule set (200k /32 flows plus /12 aggregates
// and /8 defaults, 4 tenants, 2% scan traffic, popularity drift) lives in
// a CacheHierarchy in kCache mode with FDRC eviction and a 4096-entry
// TCAM tier. Set-up preloads every rule and warms the cache; the timed
// phase classifies packets, running a promotion round every 256 packets.
// An op is one packet plus the promotion round that came due before it.

#include <algorithm>
#include <cstdio>

#include "cache/cache_hierarchy.h"
#include "hermes/overlap_index.h"
#include "obs/metrics.h"
#include "probes.h"
#include "tcam/lookup_engine.h"
#include "tcam/switch_model.h"
#include "workloads.h"
#include "workloads/zipf.h"

namespace perfbench {

namespace {

using hermes::Time;
namespace net = hermes::net;

constexpr int kFlows = 200'000;
constexpr int kTcamEntries = 4096;
constexpr int kRoundEvery = 256;  // packets per promotion round
constexpr std::uint64_t kWarmPackets = 25'000;
constexpr double kOpsPerSecond = 20'000;
constexpr std::uint64_t kMinOps = 100'000;
constexpr int kSetupReps = 3;
constexpr std::uint64_t kProbes = 10;

hermes::workloads::ZipfConfig zipf_config(std::uint64_t seed, std::uint64_t packets) {
  hermes::workloads::ZipfConfig wc;
  wc.flows = kFlows;
  wc.tenants = 4;
  wc.skew = 0.99;
  wc.scan_fraction = 0.02;
  wc.seed = mix_seed(seed, 0xCAC4E);
  // The hot head moves six times over the run (as in bench_cache).
  wc.rotate_period = packets / 6;
  wc.rotate_step = 4 * kTcamEntries;
  return wc;
}

std::unique_ptr<hermes::cache::CacheHierarchy> make_cache() {
  hermes::cache::CacheConfig config;
  config.mode = hermes::cache::Mode::kCache;
  config.policy = hermes::cache::PolicyKind::kFdrc;
  return std::make_unique<hermes::cache::CacheHierarchy>(
      hermes::tcam::pica8_p3290(), kTcamEntries, config);
}

}  // namespace

Result run_flow_cache(Context& ctx) {
  Result res;
  const std::uint64_t timed = scaled_ops(ctx.opt.seconds, kOpsPerSecond, kMinOps);
  const hermes::workloads::ZipfConfig wc = zipf_config(ctx.opt.seed, kWarmPackets + timed);
  const std::vector<net::Rule> rules = hermes::workloads::make_zipf_rules(wc);
  std::vector<net::Ipv4Address> packets;
  packets.reserve(kWarmPackets + timed);
  {
    hermes::workloads::ZipfTraffic traffic(wc);
    for (std::uint64_t i = 0; i < kWarmPackets + timed; ++i)
      packets.push_back(traffic.next());
  }
  std::printf("flow_cache: %zu rules, %llu warm-up + %llu timed packets\n",
              rules.size(), static_cast<unsigned long long>(kWarmPackets),
              static_cast<unsigned long long>(timed));

  // The oracle's record of winners and the latency log, resident before
  // the peak-RSS window opens.
  std::vector<net::RuleId> winners(timed);
  OpLog log;
  log.reserve(timed);
  RssWindow rss;
  rss.open();
  Meter& m = ctx.meter;
  Tracer* tr = ctx.tracer.get();
  TimedSummary ts;
  const std::size_t preload_cadence = rules.size() / 8;
  const std::uint64_t warm_cadence = kWarmPackets / 4;

  std::vector<SetupPhases> setup_phases;
  std::unique_ptr<hermes::cache::CacheHierarchy> cache;
  Time now = 0;

  m.start();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cache.reset();
    SetupPhases p;
    p.construct = m.checkpoint();
    cache = make_cache();
    p.preload = m.checkpoint();
    now = 0;
    for (std::size_t i = 0; i < rules.size(); ++i) {
      now += hermes::kMicrosecond;
      cache->handle(now, {net::FlowModType::kInsert, rules[i]});
      if ((i + 1) % preload_cadence == 0) m.checkpoint();
    }
    p.warm = m.checkpoint();
    for (std::uint64_t i = 0; i < kWarmPackets; ++i) {
      now += hermes::kMicrosecond;
      if (i % kRoundEvery == 0) cache->tick(now);
      cache->classify(now, packets[i]);
      if ((i + 1) % warm_cadence == 0) m.checkpoint();
    }
    p.end = m.checkpoint();
    setup_phases.push_back(p);
  }

  const std::uint64_t hits0 = cache->hits(), misses0 = cache->misses();
  const std::uint64_t promo0 = cache->promotions(), demo0 = cache->demotions();
  const std::uint64_t aborts0 = cache->promotion_aborts();
  const hermes::tcam::TableStats tab0 = cache->table_stats();
  const std::int64_t busy0 = cache->asic().channel_stats(0).busy_ns;
  const Time timed_start = now;
  // Traced run: the promotion-closure index over every rule, built once
  // (the rule set does not change in the timed phase) off the clock.
  ProbeTotals probe;
  hermes::core::OverlapIndex all_rules;
  if (tr)
    for (const net::Rule& r : rules) all_rules.insert(r);
  const std::uint64_t cadence = std::max<std::uint64_t>(1, timed / 100);
  const int span_tick = tr ? tr->name("cache.tick") : 0;
  const int span_classify = tr ? tr->name("cache.classify") : 0;

  const int timed_first = m.checkpoint();
  for (std::uint64_t i = 0; i < timed; ++i) {
    const net::Ipv4Address addr = packets[kWarmPackets + i];
    now += hermes::kMicrosecond;
    if (tr) tr->op_begin(i);
    const std::int64_t t0 = mono_ns();
    if (i % kRoundEvery == 0) {
      Tracer::Span s(tr, span_tick);
      cache->tick(now);
    }
    const net::Rule* winner = nullptr;
    {
      Tracer::Span s(tr, span_classify);
      winner = cache->classify(now, addr).rule;
    }
    log.add(mono_ns() - t0, m.segment());
    if (tr) tr->op_end();
    winners[i] = winner ? winner->id : net::kInvalidRuleId;
    if ((i + 1) % cadence == 0) m.checkpoint();
    if (tr && (i + 1) % (timed / kProbes) == 0) {
      m.pause();
      probe.probe(cache->asic().slice(0), &all_rules, mix_seed(ctx.opt.seed, i));
      m.resume();
    }
  }
  ts.timed.push_back({timed_first, m.checkpoint()});
  m.finish();
  ts.peak_rss_mb.push_back(rss.close());

  for (const SetupPhases& p : setup_phases) {
    ts.setup_s.push_back(m.calibrated_s(p.construct, p.end));
    ts.setup_raw_s.push_back(m.raw_s(p.construct, p.end));
  }
  ts.ops = timed;
  summarize(ctx, ts, log, res);

  // Oracle: replay every timed packet through a reference engine over
  // the full rule set (stamped in preload order, as the software tier is).
  hermes::tcam::LookupEngine ref;
  for (std::size_t i = 0; i < rules.size(); ++i) ref.insert(rules[i], i + 1);
  std::uint64_t wrong = 0;
  for (std::uint64_t i = 0; i < timed; ++i) {
    const net::Rule* want = ref.lookup(packets[kWarmPackets + i]);
    if ((want ? want->id : net::kInvalidRuleId) != winners[i]) ++wrong;
  }
  res.attempted = timed;
  res.failed = wrong;
  res.correct = wrong == 0 && cache->dependency_violations() == 0;

  const std::uint64_t hits = cache->hits() - hits0;
  const std::uint64_t lookups = hits + (cache->misses() - misses0);
  const double hit_ratio =
      lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0;
  const double fail_rate = static_cast<double>(wrong) / static_cast<double>(timed);
  res.detail("fail_rate", fail_rate, "fraction", timed);
  res.detail("hit_ratio", hit_ratio, "fraction", lookups);
  res.detail("oracle.mismatches", static_cast<double>(wrong), "count");

  res.digest_counts = {
      {"ops", timed},
      {"hits", hits},
      {"lookups", lookups},
      {"promotions", cache->promotions() - promo0},
      {"demotions", cache->demotions() - demo0},
      {"promotion_aborts", cache->promotion_aborts() - aborts0},
      {"tcam_occupancy", static_cast<std::uint64_t>(cache->tcam_occupancy())},
      {"oracle_mismatches", wrong},
  };
  res.digest_values = {{"fail_rate", fail_rate}, {"hit_ratio", hit_ratio}};

  if (tr) {
    LayerView lv(ctx, res);
    lv.setup(setup_phases);
    lv.span_percentiles("cache.classify", "cache.classify_us");
    lv.span_mean("cache.tick", "cache.tick_us_mean");
    lv.span_max("cache.tick", "cache.tick_us_max");
    lv.span_share("cache.tick", "cache.tick_cpu_share");
    lv.probes(probe);
    const double kpkt = static_cast<double>(timed) / 1000.0;
    const std::uint64_t promos = cache->promotions() - promo0;
    const std::uint64_t aborts = cache->promotion_aborts() - aborts0;
    res.layer("cache.promotions_per_kpkt", static_cast<double>(promos) / kpkt, "count");
    res.layer("cache.demotions_per_kpkt",
              static_cast<double>(cache->demotions() - demo0) / kpkt, "count");
    const hermes::obs::Registry* reg = hermes::obs::attached();
    const auto closure = reg ? reg->histogram_summary("cache.closure_size")
                             : hermes::obs::HistogramSummary{};
    res.layer("cache.closure_size_mean", closure.mean, "count", closure.count);
    res.layer("cache.promotion_useful_share",
              promos + aborts ? static_cast<double>(promos) / static_cast<double>(promos + aborts) : 0,
              "fraction");
    res.layer("cache.hit_ratio", hit_ratio, "fraction", lookups);
    const auto probed = reg ? reg->histogram_summary("tcam.lookup.buckets_probed")
                            : hermes::obs::HistogramSummary{};
    res.layer("lookup_engine.buckets_probed_obs_mean", probed.mean, "count", probed.count);
    const hermes::tcam::TableStats& tab = cache->table_stats();
    const std::uint64_t tcam_inserts = tab.inserts - tab0.inserts;
    res.layer("tcam_table.shifts_per_insert",
              tcam_inserts ? static_cast<double>(tab.total_shifts - tab0.total_shifts) /
                                 static_cast<double>(tcam_inserts)
                           : 0,
              "count");
    res.layer("tcam_table.main_fill",
              static_cast<double>(cache->tcam_occupancy()) / cache->tcam_capacity(), "fraction");
    res.layer("gate_keeper.guaranteed_share", 0, "fraction");
    res.layer("rule_manager.migrations", 0, "count");
    const double elapsed = static_cast<double>(now - timed_start);
    LayerView::Generic g;
    g.request_spans = {"cache.classify"};
    g.tick_span = "cache.tick";
    g.asic_busy_ratio =
        elapsed > 0 ? static_cast<double>(cache->asic().channel_stats(0).busy_ns - busy0) / elapsed : 0;
    lv.generic(g);
  }
  return res;
}

}  // namespace perfbench
