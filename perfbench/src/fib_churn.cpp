// fib_churn: BGP-driven FIB churn through the Hermes agent on one big
// table (the one-big-table control path).
//
// A RouteViews-Oregon-shaped BGP feed over a 40k-prefix universe is
// reduced by workloads::Rib to FIB flow-mods (priority = prefix length).
// Set-up bulk-loads the FIB the first part of the feed built; the timed
// phase replays the rest through HermesBackend on a 64k-entry Pica8 TCAM,
// ticking the agent every 1 ms of virtual time. An op is one flow-mod
// plus every tick that came due before it. A run is several independent
// passes (feed, set-up, churn), each from its own sub-seed, so one run
// averages over more than one feed.

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "baselines/hermes_backend.h"
#include "probes.h"
#include "tcam/lookup_engine.h"
#include "tcam/switch_model.h"
#include "workloads.h"
#include "workloads/bgp.h"

namespace perfbench {

namespace {

using hermes::Duration;
using hermes::Time;
namespace net = hermes::net;
namespace core = hermes::core;

constexpr int kTcamEntries = 64 * 1024;
constexpr int kPrefixUniverse = 40'000;
constexpr Duration kTick = hermes::kMillisecond;
/// FIB events loaded in set-up (the base table), then churn.
constexpr std::size_t kBaseEvents = 60'000;
constexpr std::size_t kChurnOps = 250'000;
/// A run of --seconds s replays s / kPassSeconds independent passes
/// (feed, set-up, churn), each from its own sub-seed.
constexpr double kPassSeconds = 3.75;
constexpr int kSamplesPerPass = 40;
constexpr int kOracleCheckpoints = 10;
/// Traced run: ticks slower than this are checked for a migration.
constexpr std::int64_t kMigrationCheckNs = 20'000;
constexpr int kOracleSamples = 2'000;

/// One oracle probe: an address and what the logical FIB forwards it by.
struct Expected {
  net::Ipv4Address addr;
  bool match = false;  ///< some prefix covers addr
  int priority = 0;    ///< of the winning prefix
  net::Action action;
};

struct Inputs {
  std::vector<net::Rule> base;  ///< collapsed base FIB, load order
  hermes::workloads::RuleTrace churn;
  /// The oracle, computed from the inputs alone: expected forwarding
  /// after churn op `first` (every tenth of the churn) ...
  std::vector<std::pair<std::size_t, std::vector<Expected>>> checkpoints;
  /// ... and on the end state.
  std::vector<Expected> end_state;
};

Inputs make_inputs(std::uint64_t seed) {
  hermes::workloads::BgpFeedConfig c = hermes::workloads::route_views_oregon();
  c.prefix_count = kPrefixUniverse;
  c.seed = mix_seed(seed, 0xB6B);
  const std::size_t needed = kBaseEvents + kChurnOps;
  hermes::workloads::RuleTrace fib;
  // ~1,300 s of this feed yields the events a pass needs; regenerating a
  // longer feed leaves its first events unchanged.
  for (c.duration_s = 1500;; c.duration_s *= 1.5) {
    std::vector<hermes::workloads::BgpUpdate> feed = hermes::workloads::bgp_feed(c);
    hermes::workloads::Rib rib;
    fib.clear();
    for (const auto& u : feed) {
      if (auto mod = rib.apply(u)) fib.push_back({u.time, *mod});
      if (fib.size() == needed) break;
    }
    if (fib.size() == needed) break;
  }
  Inputs in;
  // Collapse the base events into the FIB they leave behind.
  std::unordered_map<net::RuleId, std::size_t> slot;
  std::vector<net::Rule> rules;
  std::vector<bool> live;
  for (std::size_t i = 0; i < kBaseEvents; ++i) {
    const net::FlowMod& m = fib[i].mod;
    auto it = slot.find(m.rule.id);
    if (m.type == net::FlowModType::kDelete) {
      if (it != slot.end()) live[it->second] = false;
      continue;
    }
    if (it == slot.end()) {
      slot.emplace(m.rule.id, rules.size());
      rules.push_back(m.rule);
      live.push_back(true);
    } else {
      rules[it->second] = m.rule;
      live[it->second] = true;
    }
  }
  for (std::size_t i = 0; i < rules.size(); ++i)
    if (live[i]) in.base.push_back(rules[i]);
  // The churn replays from virtual time 0 on the loaded table.
  const Time t0 = fib[kBaseEvents].time;
  in.churn.assign(fib.begin() + kBaseEvents, fib.end());
  for (auto& e : in.churn) e.time -= t0;
  return in;
}

/// The logical FIB the controller issued, as a reference classifier.
class ReferenceFib {
 public:
  void apply(const net::FlowMod& m) {
    auto it = rules_.find(m.rule.id);
    switch (m.type) {
      case net::FlowModType::kInsert:
        if (it != rules_.end()) engine_.erase(it->second);
        rules_[m.rule.id] = m.rule;
        engine_.insert(m.rule, ++seq_);
        break;
      case net::FlowModType::kModify:
        if (it == rules_.end()) return;
        engine_.modify_action(it->second, m.rule.action);
        it->second.action = m.rule.action;
        break;
      case net::FlowModType::kDelete:
        if (it == rules_.end()) return;
        engine_.erase(it->second);
        rules_.erase(it);
        break;
    }
  }
  const net::Rule* lookup(net::Ipv4Address a) const { return engine_.lookup(a); }
  const std::unordered_map<net::RuleId, net::Rule>& rules() const { return rules_; }

 private:
  std::unordered_map<net::RuleId, net::Rule> rules_;
  hermes::tcam::LookupEngine engine_;
  std::uint64_t seq_ = 0;
};

/// Expected forwarding of the first and last address of sampled installed
/// prefixes and of one address just outside each.
std::vector<Expected> expected_forwarding(const ReferenceFib& ref, std::uint64_t salt) {
  std::vector<const net::Rule*> all;
  all.reserve(ref.rules().size());
  for (const auto& [id, r] : ref.rules()) all.push_back(&r);
  std::sort(all.begin(), all.end(),
            [](const net::Rule* a, const net::Rule* b) { return a->id < b->id; });
  std::vector<Expected> out;
  std::uint64_t state = salt;
  const std::size_t n = std::min<std::size_t>(kOracleSamples, all.size());
  for (std::size_t i = 0; i < n; ++i) {
    const net::Rule& r = *all[mix_seed(state, i) % all.size()];
    const std::uint32_t lo = r.match.address().value();
    const std::uint32_t span =
        r.match.length() == 0 ? 0xFFFFFFFFu : (0xFFFFFFFFu >> r.match.length());
    const std::uint32_t hi = lo + span;
    for (std::uint32_t a : {lo, hi, lo - 1, hi + 1}) {
      Expected e;
      e.addr = net::Ipv4Address(a);
      if (const net::Rule* want = ref.lookup(e.addr)) {
        e.match = true;
        e.priority = want->priority;
        e.action = want->action;
      }
      out.push_back(e);
    }
  }
  return out;
}

/// Fills the oracle of `in` by replaying it through a ReferenceFib, before
/// any timing, so checking a checkpoint costs only the switch's lookups.
void make_oracle(Inputs& in, std::uint64_t seed) {
  ReferenceFib ref;
  for (const net::Rule& r : in.base) ref.apply({net::FlowModType::kInsert, r});
  const std::size_t every = in.churn.size() / kOracleCheckpoints;
  for (std::size_t i = 0; i < in.churn.size(); ++i) {
    ref.apply(in.churn[i].mod);
    if (every > 0 && (i + 1) % every == 0)
      in.checkpoints.emplace_back(i + 1, expected_forwarding(ref, mix_seed(seed, i)));
  }
  in.end_state = expected_forwarding(ref, mix_seed(seed, 0xE0D));
}

/// Compares the switch's forwarding (priority and action of
/// lookup_ptr(now, addr)) with the oracle; returns mismatching probes.
std::uint64_t check_forwarding(hermes::baselines::HermesBackend& sw,
                               const std::vector<Expected>& want, Time now) {
  std::uint64_t bad = 0;
  for (const Expected& e : want) {
    const net::Rule* got = sw.lookup_ptr(now, e.addr);
    const bool same = got == nullptr ? !e.match
                                     : e.match && got->priority == e.priority &&
                                           got->action == e.action;
    if (!same) ++bad;
  }
  return bad;
}

std::unique_ptr<hermes::baselines::HermesBackend> make_switch() {
  return std::make_unique<hermes::baselines::HermesBackend>(
      hermes::tcam::pica8_p3290(), kTcamEntries);
}

}  // namespace

Result run_fib_churn(Context& ctx) {
  Result res;
  const int passes = static_cast<int>(scaled_ops(ctx.opt.seconds, 1.0 / kPassSeconds, 1));
  std::vector<Inputs> inputs;
  std::uint64_t inserts = 0, modifies = 0, deletes = 0, ops = 0, base = 0;
  for (int p = 0; p < passes; ++p) {
    inputs.push_back(make_inputs(mix_seed(ctx.opt.seed, static_cast<std::uint64_t>(p))));
    make_oracle(inputs.back(), ctx.opt.seed);
    base += inputs.back().base.size();
    for (const auto& e : inputs.back().churn) {
      ++ops;
      if (e.mod.type == net::FlowModType::kInsert) ++inserts;
      if (e.mod.type == net::FlowModType::kModify) ++modifies;
      if (e.mod.type == net::FlowModType::kDelete) ++deletes;
    }
  }
  auto pct = [ops](std::uint64_t n) {
    return 100.0 * static_cast<double>(n) / static_cast<double>(ops);
  };
  std::printf("fib_churn: %d passes, base FIB %.0f prefixes each, %llu churn "
              "flow-mods (%.1f%% modify, %.1f%% insert, %.2f%% withdraw)\n",
              passes, static_cast<double>(base) / passes,
              static_cast<unsigned long long>(ops), pct(modifies), pct(inserts),
              pct(deletes));

  Meter& m = ctx.meter;
  Tracer* tr = ctx.tracer.get();
  const int span_tick = tr ? tr->name("backend.tick") : 0;
  const int span_handle = tr ? tr->name("backend.handle") : 0;
  TimedSummary ts;
  OpLog log;
  log.reserve(ops);
  std::vector<SetupPhases> setup_phases;

  // Deterministic totals over the timed phases (the digest), and the
  // traced run's per-layer figures.
  core::AgentStats d{};
  hermes::core::GateKeeperStats gk{};
  std::uint64_t ticks = 0, probes = 0, wrong = 0, main_occupancy = 0;
  std::uint64_t shifts = 0, table_inserts = 0;
  double fill = 0, shadow_busy = 0, main_busy = 0, virtual_ns = 0;
  std::vector<double> queue_wait_us, migration_us;
  std::uint64_t useful_migrations = 0, store_probes = 0;
  double store_probe_ns = 0;
  ProbeTotals probe;

  m.start();
  for (int pass = 0; pass < passes; ++pass) {
    const Inputs& in = inputs[static_cast<std::size_t>(pass)];
    const std::size_t preload_cadence = std::max<std::size_t>(1, in.base.size() / 8);
    // Outside every set-up and timed range.
    RssWindow rss;
    rss.open();
    SetupPhases ph;
    ph.construct = m.checkpoint();
    auto sw = make_switch();
    ph.preload = m.checkpoint();
    for (std::size_t i = 0; i < in.base.size(); ++i) {
      sw->handle(0, {net::FlowModType::kInsert, in.base[i]});
      if ((i + 1) % preload_cadence == 0) m.checkpoint();
    }
    ph.warm = m.checkpoint();
    // Settle: drain the shadow table and start the churn on a quiet channel.
    sw->agent().migrate_now(0);
    sw->agent().asic().reset_channel();
    sw->clear_rit_samples();
    ph.end = m.checkpoint();
    setup_phases.push_back(ph);

    core::HermesAgent& agent = sw->agent();
    const core::AgentStats before = agent.stats();
    const hermes::core::GateKeeperStats gk_before = agent.gate_keeper().stats();
    const hermes::tcam::TableStats tab_before = agent.asic().slice(1).stats();
    std::size_t next_check = 0;
    std::uint64_t seen_migrations = before.migrations, seen_moved = before.rules_migrated;
    const std::size_t cadence = std::max<std::size_t>(1, in.churn.size() / kSamplesPerPass);
    Time next_tick = kTick;

    const int timed_first = ph.end;
    for (std::size_t i = 0; i < in.churn.size(); ++i) {
      const auto& ev = in.churn[i];
      if (tr) tr->op_begin(i);
      const std::int64_t t0 = mono_ns();
      while (next_tick <= ev.time) {
        if (tr) {
          const std::int64_t k0 = mono_ns();
          {
            Tracer::Span s(tr, span_tick);
            sw->tick(next_tick);
          }
          const std::int64_t k1 = mono_ns();
          // A tick during which AgentStats::migrations moved is a
          // migration; only slow ticks can hold one, so only they pay for
          // reading the stats view.
          if (k1 - k0 > kMigrationCheckNs) {
            const core::AgentStats& s1 = agent.stats();
            if (s1.migrations > seen_migrations) {
              migration_us.push_back(static_cast<double>(k1 - k0) * 1e-3);
              if (s1.rules_migrated > seen_moved) ++useful_migrations;
            }
            seen_migrations = s1.migrations;
            seen_moved = s1.rules_migrated;
          }
        } else {
          sw->tick(next_tick);
        }
        next_tick += kTick;
        ++ticks;
      }
      {
        Tracer::Span s(tr, span_handle);
        sw->handle(ev.time, ev.mod);
      }
      log.add(mono_ns() - t0, m.segment());
      if (tr) tr->op_end();
      if ((i + 1) % cadence == 0) m.checkpoint();
      if (next_check < in.checkpoints.size() && in.checkpoints[next_check].first == i + 1) {
        m.pause();
        const std::vector<Expected>& want = in.checkpoints[next_check++].second;
        wrong += check_forwarding(*sw, want, ev.time);
        probes += want.size();
        if (tr) {
          probe.probe(agent.asic().slice(1), nullptr, mix_seed(ctx.opt.seed, i + 1));
          const std::int64_t p0 = mono_ns();
          store_probes += agent.store().ids_with_placement(core::Placement::kShadow).size();
          store_probes += agent.store().ids_with_placement(core::Placement::kMain).size();
          store_probe_ns += static_cast<double>(mono_ns() - p0);
        }
        m.resume();
      }
    }
    ts.timed.push_back({timed_first, m.checkpoint()});

    // Untimed: the oracle on the end state, then the pass totals.
    m.pause();
    ts.peak_rss_mb.push_back(rss.close());
    const Time end_time = in.churn.back().time;
    wrong += check_forwarding(*sw, in.end_state, end_time);
    probes += in.end_state.size();
    const core::AgentStats after = agent.stats();
    const hermes::core::GateKeeperStats gk_after = agent.gate_keeper().stats();
    const hermes::tcam::TableStats& tab = agent.asic().slice(1).stats();
    d.inserts += after.inserts - before.inserts;
    d.failed_ops += after.failed_ops - before.failed_ops;
    d.violations += after.violations - before.violations;
    d.migrations += after.migrations - before.migrations;
    d.rules_migrated += after.rules_migrated - before.rules_migrated;
    d.partition_pieces += after.partition_pieces - before.partition_pieces;
    gk.guaranteed += gk_after.guaranteed - gk_before.guaranteed;
    gk.lowest_priority += gk_after.lowest_priority - gk_before.lowest_priority;
    gk.shadow_full += gk_after.shadow_full - gk_before.shadow_full;
    gk.over_rate += gk_after.over_rate - gk_before.over_rate;
    gk.unmatched += gk_after.unmatched - gk_before.unmatched;
    shifts += tab.total_shifts - tab_before.total_shifts;
    table_inserts += tab.inserts - tab_before.inserts;
    main_occupancy += static_cast<std::uint64_t>(agent.main_occupancy());
    fill += static_cast<double>(agent.main_occupancy()) /
            static_cast<double>(agent.main_capacity()) / passes;
    shadow_busy += static_cast<double>(agent.asic().channel_stats(0).busy_ns);
    main_busy += static_cast<double>(agent.asic().channel_stats(1).busy_ns);
    virtual_ns += static_cast<double>(end_time);
    const auto& rit = agent.rit_samples();
    const auto& lat = agent.op_latency_samples();
    for (std::size_t i = 0; i < rit.size() && i < lat.size(); ++i)
      queue_wait_us.push_back(static_cast<double>(rit[i] - lat[i]) * 1e-3);
    sw.reset();
    m.resume();
  }
  m.finish();

  for (const SetupPhases& p : setup_phases) {
    ts.setup_s.push_back(m.calibrated_s(p.construct, p.end));
    ts.setup_raw_s.push_back(m.raw_s(p.construct, p.end));
  }
  ts.ops = ops;
  summarize(ctx, ts, log, res);

  res.attempted = ops;
  res.failed = d.failed_ops + wrong;
  res.correct = res.failed == 0;
  const double violation_rate =
      d.inserts ? static_cast<double>(d.violations) / static_cast<double>(d.inserts) : 0;
  const double fail_rate = static_cast<double>(res.failed) / static_cast<double>(ops);
  res.detail("fail_rate", fail_rate, "fraction", ops);
  res.detail("violation_rate", violation_rate, "fraction", d.inserts);
  res.detail("oracle.probes", static_cast<double>(probes), "count");
  res.detail("oracle.mismatches", static_cast<double>(wrong), "count");
  res.detail("tcam_table.main_fill", fill, "fraction", passes);

  res.digest_counts = {
      {"ops", ops},
      {"ticks", ticks},
      {"inserts", inserts},
      {"modifies", modifies},
      {"deletes", deletes},
      {"failed_ops", d.failed_ops},
      {"violations", d.violations},
      {"migrations", d.migrations},
      {"rules_migrated", d.rules_migrated},
      {"partition_pieces", d.partition_pieces},
      {"guaranteed", gk.guaranteed},
      {"main_occupancy", main_occupancy},
      {"oracle_mismatches", wrong},
  };
  res.digest_values = {{"fail_rate", fail_rate}, {"violation_rate", violation_rate}};

  if (tr) {
    LayerView lv(ctx, res);
    lv.setup(setup_phases);
    lv.span_percentiles("backend.handle", "backend.handle_us");
    lv.span_share("backend.tick", "backend.tick_cpu_share");
    lv.span_mean("backend.tick", "backend.tick_us_mean");
    const double routed = static_cast<double>(gk.guaranteed + gk.lowest_priority +
                                              gk.shadow_full + gk.over_rate + gk.unmatched);
    auto share = [routed](std::uint64_t n) {
      return routed > 0 ? static_cast<double>(n) / routed : 0;
    };
    res.layer("gate_keeper.guaranteed_share", share(gk.guaranteed), "fraction");
    res.layer("gate_keeper.lowest_priority_share", share(gk.lowest_priority), "fraction");
    res.layer("gate_keeper.shadow_full", static_cast<double>(gk.shadow_full), "count");
    res.layer("partition.pieces_per_insert",
              d.inserts ? static_cast<double>(d.partition_pieces) / static_cast<double>(d.inserts) : 0,
              "count");
    lv.probes(probe);
    res.layer("rule_store.ids_with_placement_us",
              probe.probes ? store_probe_ns * 1e-3 / probe.probes * lv.scale() : 0, "us");
    res.layer("rule_manager.migrations", static_cast<double>(d.migrations), "count");
    res.layer("rule_manager.rules_per_migration",
              d.migrations ? static_cast<double>(d.rules_migrated) / static_cast<double>(d.migrations) : 0,
              "count");
    double mig_sum = 0, mig_max = 0;
    for (double v : migration_us) mig_sum += v, mig_max = std::max(mig_max, v);
    res.layer("rule_manager.migration_us_mean",
              migration_us.empty() ? 0 : mig_sum / static_cast<double>(migration_us.size()) * lv.scale(),
              "us", migration_us.size());
    res.layer("rule_manager.migration_us_max", mig_max * lv.scale(), "us");
    res.layer("rule_manager.useful_migration_share",
              migration_us.empty() ? 0 : static_cast<double>(useful_migrations) /
                                             static_cast<double>(migration_us.size()),
              "fraction");
    res.layer("tcam_table.shifts_per_insert",
              table_inserts ? static_cast<double>(shifts) / static_cast<double>(table_inserts) : 0,
              "count");
    res.layer("tcam_table.main_fill", fill, "fraction");
    res.layer("asic.shadow_busy_share", virtual_ns > 0 ? shadow_busy / virtual_ns : 0, "fraction");
    res.layer("asic.main_busy_share", virtual_ns > 0 ? main_busy / virtual_ns : 0, "fraction");
    res.layer("asic.queue_wait_us_p99", percentile(queue_wait_us, 0.99), "us",
              queue_wait_us.size());
    res.layer("cache.promotions_per_kpkt", 0, "count");
    LayerView::Generic g;
    g.request_spans = {"backend.handle"};
    g.tick_span = "backend.tick";
    g.asic_busy_ratio = virtual_ns > 0 ? (shadow_busy + main_busy) / virtual_ns : 0;
    lv.generic(g);
  }
  return res;
}

}  // namespace perfbench
