// te_fattree: the paper-scale traffic-engineering simulation.
//
// A k=16 fat-tree (320 switches, 800 baseline rules each) runs the
// Facebook MapReduce trace; the TE app reroutes congested flows through
// per-switch HermesBackends with ez-Segway consistent updates, on one
// controller thread. A simulation is a batch job, so the timed phase is
// whole Simulation::run() calls over several independent simulations:
// ops_per_s counts offered flows per calibrated second, and the op
// latency percentiles are those of the control-plane requests (handle,
// handle_batch) the switches serve, timed by a SwitchBackend decorator of
// the benchmark's own. Background ticks are timed as spans only.

#include <algorithm>
#include <cstdio>

#include "baselines/hermes_backend.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "probes.h"
#include "sim/simulation.h"
#include "tcam/switch_model.h"
#include "workloads.h"
#include "workloads/facebook.h"

namespace perfbench {

namespace {

using hermes::Time;
namespace net = hermes::net;
namespace baselines = hermes::baselines;

constexpr int kFatTreeK = 16;
constexpr int kTcamEntries = 4000;
constexpr int kBaselineRules = 800;
constexpr int kJobs = 450;
/// Input shaping that keeps the amount of simulated work steady from seed
/// to seed: elephants are capped at 500 MB (4 s at the 1 Gbps access
/// rate) so a simulation's virtual length, and with it the fabric-wide tick
/// work, does not hinge on the single largest flow; shuffle width is capped
/// at 64 flows; the TE app moves at most 8 flows per cycle, so the number
/// of update transactions tracks the number of congested cycles rather
/// than how many elephants happen to collide. Each simulation's flow sizes
/// are then scaled so it offers 52 GB (about the median trace's total):
/// the simulator's CPU grows with the offered load, and unscaled totals
/// (42-67 GB a simulation) made CPU per flow differ by ~20% across seeds.
constexpr double kMaxFlowBytes = 5e8;
constexpr double kOfferedBytes = 5.2e10;
constexpr int kMaxWidth = 64;
constexpr int kMaxMovesPerCycle = 8;
/// A run of --seconds s sets up (timed as set-up) and runs s / kSimSeconds
/// independent simulations (8 at 15 s), each on its own job trace.
constexpr double kSimSeconds = 1.875;
constexpr std::uint64_t kCadence = 1 << 16;  // switch-control calls per sample
constexpr int kProbeEvery = 8;               // kernel samples per probe (traced)

/// Times every switch-control call the simulator makes, interleaves the
/// reference kernel between calls, and (traced run) records spans and
/// runs a checkpoint probe on the switch called after every kProbeEvery-th
/// kernel sample.
struct CallMeter {
  explicit CallMeter(Context& c) : ctx(c) {}

  Context& ctx;
  OpLog log;
  bool timing = false;
  std::uint64_t calls = 0;
  int span_handle = 0, span_batch = 0, span_tick = 0;
  bool probe_due = false;
  ProbeTotals probe;

  /// Runs `f`, one call into `sw`. Requests (handle, handle_batch) are
  /// the timed ops; background ticks are timed only as spans.
  template <typename F>
  auto call(int span, bool request, baselines::HermesBackend& sw, F&& f) {
    if (!timing) return f();
    Tracer* tr = ctx.tracer.get();
    if (++calls % kCadence == 0) {
      const int seg = ctx.meter.checkpoint();
      probe_due = tr != nullptr && seg % kProbeEvery == 0;
    }
    if (probe_due) {
      ctx.meter.pause();
      probe.probe(sw.agent().asic().slice(1), nullptr, mix_seed(calls, 0x9B0));
      ctx.meter.resume();
      probe_due = false;
    }
    if (tr) tr->op_begin(calls);
    // Only requests are logged; the tracer reads its own clock.
    const std::int64_t t0 = request ? mono_ns() : 0;
    struct Done {
      CallMeter& cm;
      std::int64_t t0;
      Tracer* tr;
      bool request;
      ~Done() {
        if (request) cm.log.add(mono_ns() - t0, cm.ctx.meter.segment());
        if (tr) tr->end(), tr->op_end();
      }
    } done{*this, t0, tr, request};
    if (tr) tr->begin(span);
    return f();
  }
};

class TimedBackend final : public baselines::SwitchBackend {
 public:
  TimedBackend(std::unique_ptr<baselines::HermesBackend> inner, CallMeter& cm)
      : inner_(std::move(inner)), cm_(cm) {}

  Time handle(Time now, const net::FlowMod& mod) override {
    return cm_.call(cm_.span_handle, true, *inner_, [&] { return inner_->handle(now, mod); });
  }
  Time handle_batch(Time now, net::FlowModBatch& batch) override {
    return cm_.call(cm_.span_batch, true, *inner_,
                    [&] { return inner_->handle_batch(now, batch); });
  }
  void tick(Time now) override {
    cm_.call(cm_.span_tick, false, *inner_, [&] { inner_->tick(now); });
  }
  using SwitchBackend::lookup;
  std::optional<net::Rule> lookup(net::Ipv4Address addr) override {
    return inner_->lookup(addr);
  }
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) override {
    return inner_->lookup_ptr(now, addr);
  }
  std::string_view name() const override { return inner_->name(); }
  const std::vector<hermes::Duration>& rit_samples() const override {
    return inner_->rit_samples();
  }
  void clear_rit_samples() override { inner_->clear_rit_samples(); }

  baselines::HermesBackend& inner() { return *inner_; }

 private:
  std::unique_ptr<baselines::HermesBackend> inner_;
  CallMeter& cm_;
};

/// The switch's resident FIB below the TE app's priority band (as the
/// figure benches prepopulate it), settled at t=0.
/// Returns the thread CPU ns spent loading and settling.
std::pair<double, double> prepopulate(baselines::HermesBackend& sw) {
  const double t0 = thread_cpu_ns();
  for (int i = 0; i < kBaselineRules; ++i) {
    net::Rule rule{static_cast<net::RuleId>(3'000'000 + i), 1 + (i % 90),
                   net::Prefix(net::Ipv4Address(0xC0000000u +
                                                (static_cast<std::uint32_t>(i) << 8)),
                               24),
                   net::forward_to(i % 48)};
    sw.handle(0, {net::FlowModType::kInsert, rule});
  }
  const double t1 = thread_cpu_ns();
  sw.agent().migrate_now(0);
  sw.agent().asic().reset_channel();
  sw.clear_rit_samples();
  return {t1 - t0, thread_cpu_ns() - t1};
}

}  // namespace

Result run_te_fattree(Context& ctx) {
  Result res;
  const net::Topology topo = net::fat_tree(kFatTreeK, /*link_bps=*/1e9);
  const int sims = static_cast<int>(scaled_ops(ctx.opt.seconds, 1.0 / kSimSeconds, 1));
  std::vector<std::vector<hermes::workloads::Job>> traces;
  std::uint64_t offered = 0;
  for (int s = 0; s < sims; ++s) {
    hermes::workloads::FacebookConfig fb;
    fb.job_count = kJobs;
    fb.duration_s = 30.0;
    fb.mean_flow_mb = 6.0;
    fb.max_width = kMaxWidth;
    fb.seed = mix_seed(ctx.opt.seed, 0xFB00 + static_cast<std::uint64_t>(s));
    traces.push_back(hermes::workloads::facebook_jobs(fb, topo.hosts()));
    double total = 0;
    for (auto& j : traces.back())
      for (auto& f : j.flows) total += f.bytes = std::min(f.bytes, kMaxFlowBytes);
    // Scaling up can lift an elephant past the cap again; re-capping
    // leaves the total a little under kOfferedBytes.
    const double scale = kOfferedBytes / total;
    for (auto& j : traces.back()) {
      for (auto& f : j.flows) f.bytes = std::min(f.bytes * scale, kMaxFlowBytes);
      offered += j.flows.size();
    }
  }
  std::printf("te_fattree: k=%d fat-tree, %zu switches, %d simulations x %d jobs, "
              "%llu flows\n",
              kFatTreeK, topo.switches().size(), sims, kJobs,
              static_cast<unsigned long long>(offered));

  Meter& m = ctx.meter;
  Tracer* tr = ctx.tracer.get();
  CallMeter cm(ctx);
  if (tr) {
    cm.span_handle = tr->name("backend.handle");
    cm.span_batch = tr->name("backend.handle_batch");
    cm.span_tick = tr->name("backend.tick");
  }
  TimedSummary ts;
  std::vector<std::pair<int, int>> setup_segments;
  std::uint64_t completed = 0, aborted = 0, moves = 0;
  std::vector<double> rit_ms, fct_ms, queue_wait_us;
  // Timed-phase deltas summed over switches and simulations.
  hermes::core::AgentStats d{};
  hermes::core::GateKeeperStats gk{};
  std::uint64_t shifts = 0, table_inserts = 0;
  double shadow_busy = 0, main_busy = 0, switch_virtual_ns = 0;
  double fill = 0;
  std::vector<double> preload_share, warm_share;

  m.start();
  for (int s = 0; s < sims; ++s) {
    hermes::sim::SimConfig config;
    config.congestion_threshold = 0.40;
    config.max_moves_per_cycle = kMaxMovesPerCycle;
    config.te_period = hermes::from_millis(100);
    config.seed = mix_seed(ctx.opt.seed, 0x51A + static_cast<std::uint64_t>(s));
    config.controller_threads = 1;
    int built = 0;
    double sim_preload = 0, sim_warm = 0;
    config.backend_factory = [&](net::NodeId, const std::string&)
        -> std::unique_ptr<baselines::SwitchBackend> {
      auto sw = std::make_unique<baselines::HermesBackend>(hermes::tcam::pica8_p3290(),
                                                           kTcamEntries);
      const auto [load, settle] = prepopulate(*sw);
      sim_preload += load;
      sim_warm += settle;
      if (++built % 32 == 0) m.checkpoint();
      return std::make_unique<TimedBackend>(std::move(sw), cm);
    };

    // Outside every set-up and timed range.
    RssWindow rss;
    rss.open();
    const int setup_first = m.checkpoint();
    const double setup_cpu0 = thread_cpu_ns();
    auto sim = std::make_unique<hermes::sim::Simulation>(topo, config);
    sim->add_jobs(traces[static_cast<std::size_t>(s)]);
    const double setup_cpu = thread_cpu_ns() - setup_cpu0;
    const int setup_last = m.checkpoint();
    setup_segments.push_back({setup_first, setup_last});
    preload_share.push_back(sim_preload / setup_cpu);
    warm_share.push_back(sim_warm / setup_cpu);

    // Off the clock: per-switch counters at the start of the timed phase
    // (set-up's prepopulation lands everything at t=0).
    m.pause();
    std::vector<TimedBackend*> switches;
    for (net::NodeId id : topo.switches())
      switches.push_back(static_cast<TimedBackend*>(sim->backend(id)));
    std::vector<hermes::core::AgentStats> st0;
    std::vector<hermes::core::GateKeeperStats> gk0;
    std::vector<hermes::tcam::TableStats> tab0;  // shadow, main per switch
    for (TimedBackend* sw : switches) {
      st0.push_back(sw->inner().agent().stats());
      gk0.push_back(sw->inner().agent().gate_keeper().stats());
      tab0.push_back(sw->inner().agent().asic().slice(0).stats());
      tab0.push_back(sw->inner().agent().asic().slice(1).stats());
    }
    m.resume();

    cm.timing = true;
    sim->run();
    cm.timing = false;
    ts.timed.push_back({setup_last, m.checkpoint()});

    m.pause();
    ts.peak_rss_mb.push_back(rss.close());
    Time last = 0;
    for (const auto& f : sim->flow_results()) {
      if (f.completion >= f.arrival) ++completed;
      fct_ms.push_back(hermes::to_millis(f.completion - f.arrival));
      last = std::max(last, f.completion);
    }
    for (hermes::Duration v : sim->all_rit_samples()) rit_ms.push_back(hermes::to_millis(v));
    aborted += static_cast<std::uint64_t>(sim->moves_aborted());
    moves += static_cast<std::uint64_t>(sim->total_moves());
    for (std::size_t i = 0; i < switches.size(); ++i) {
      hermes::core::HermesAgent& agent = switches[i]->inner().agent();
      const hermes::core::AgentStats& st = agent.stats();
      d.inserts += st.inserts - st0[i].inserts;
      d.violations += st.violations - st0[i].violations;
      d.migrations += st.migrations - st0[i].migrations;
      const hermes::core::GateKeeperStats& g = agent.gate_keeper().stats();
      gk.guaranteed += g.guaranteed - gk0[i].guaranteed;
      gk.lowest_priority += g.lowest_priority - gk0[i].lowest_priority;
      gk.shadow_full += g.shadow_full - gk0[i].shadow_full;
      gk.over_rate += g.over_rate - gk0[i].over_rate;
      gk.unmatched += g.unmatched - gk0[i].unmatched;
      for (int slice = 0; slice < 2; ++slice) {
        const hermes::tcam::TableStats& tab = agent.asic().slice(slice).stats();
        const hermes::tcam::TableStats& was = tab0[2 * i + static_cast<std::size_t>(slice)];
        shifts += tab.total_shifts - was.total_shifts;
        table_inserts += tab.inserts - was.inserts;
      }
      fill += static_cast<double>(agent.main_occupancy()) /
              static_cast<double>(agent.main_capacity()) /
              static_cast<double>(switches.size() * static_cast<std::size_t>(sims));
      shadow_busy += static_cast<double>(agent.asic().channel_stats(0).busy_ns);
      main_busy += static_cast<double>(agent.asic().channel_stats(1).busy_ns);
      const auto& rit = agent.rit_samples();
      const auto& lat = agent.op_latency_samples();
      for (std::size_t k = 0; k < rit.size() && k < lat.size(); ++k)
        queue_wait_us.push_back(static_cast<double>(rit[k] - lat[k]) * 1e-3);
    }
    switch_virtual_ns += static_cast<double>(last) * static_cast<double>(switches.size());
    sim.reset();
    m.resume();
  }
  m.finish();

  for (const auto& [a, b] : setup_segments) {
    ts.setup_s.push_back(m.calibrated_s(a, b));
    ts.setup_raw_s.push_back(m.raw_s(a, b));
  }
  ts.ops = offered;
  summarize(ctx, ts, cm.log, res);

  res.attempted = offered;
  res.failed = (offered - completed) + aborted;
  res.correct = res.failed == 0;
  const double fail_rate = static_cast<double>(res.failed) / static_cast<double>(offered);
  const double violation_rate =
      d.inserts ? static_cast<double>(d.violations) / static_cast<double>(d.inserts) : 0;
  std::sort(rit_ms.begin(), rit_ms.end());
  std::sort(fct_ms.begin(), fct_ms.end());
  const double rit_p99 = percentile_sorted(rit_ms, 0.99);
  const double fct_p99 = percentile_sorted(fct_ms, 0.99);
  res.detail("fail_rate", fail_rate, "fraction", offered);
  res.detail("violation_rate", violation_rate, "fraction", d.inserts);
  res.detail("rit_p99_ms", rit_p99, "ms", rit_ms.size());
  res.detail("fct_p99_ms", fct_p99, "ms", fct_ms.size());
  res.detail("sim.moves", static_cast<double>(moves), "count");
  res.detail("sim.moves_aborted", static_cast<double>(aborted), "count");
  res.detail("sim.switch_calls", static_cast<double>(cm.calls), "count");

  res.digest_counts = {
      {"flows", offered},      {"completed", completed},     {"moves", moves},
      {"aborted", aborted},    {"violations", d.violations}, {"inserts", d.inserts},
      {"migrations", d.migrations}, {"switch_calls", cm.calls},
  };
  res.digest_values = {{"fail_rate", fail_rate},
                       {"violation_rate", violation_rate},
                       {"rit_p99_ms", rit_p99},
                       {"fct_p99_ms", fct_p99}};

  if (tr) {
    LayerView lv(ctx, res);
    std::vector<double> setup = ts.setup_s;
    const double setup_med = percentile(setup, 0.5);
    const double pre = percentile(preload_share, 0.5), warm = percentile(warm_share, 0.5);
    res.layer("setup.construct_s", setup_med * (1 - pre - warm), "s", setup.size());
    res.layer("setup.preload_s", setup_med * pre, "s", setup.size());
    res.layer("setup.warm_s", setup_med * warm, "s", setup.size());
    lv.span_share("backend.tick", "backend.tick_cpu_share");
    lv.span_mean("backend.tick", "backend.tick_us_mean");
    lv.span_percentiles("backend.handle_batch", "backend.handle_batch_us");
    lv.span_share("backend.handle_batch", "backend.batch_cpu_share");
    lv.probes(cm.probe);
    const double routed = static_cast<double>(gk.guaranteed + gk.lowest_priority +
                                              gk.shadow_full + gk.over_rate + gk.unmatched);
    auto share = [routed](std::uint64_t n) {
      return routed > 0 ? static_cast<double>(n) / routed : 0;
    };
    res.layer("gate_keeper.guaranteed_share", share(gk.guaranteed), "fraction");
    res.layer("gate_keeper.lowest_priority_share", share(gk.lowest_priority), "fraction");
    res.layer("gate_keeper.shadow_full", static_cast<double>(gk.shadow_full), "count");
    const hermes::obs::Registry* reg = hermes::obs::attached();
    auto counter = [reg](const char* name) {
      return reg ? static_cast<double>(reg->counter_value(name)) : 0.0;
    };
    res.layer("predictor.samples", counter("predictor.samples"), "count");
    res.layer("sim.events_per_flow", counter("sim.events") / static_cast<double>(offered), "count");
    res.layer("sim.moves", static_cast<double>(moves), "count");
    res.layer("sim.moves_aborted", static_cast<double>(aborted), "count");
    const double txns = counter("update.txns");
    res.layer("update.committed_share", txns > 0 ? counter("update.committed") / txns : 0,
              "fraction");
    res.layer("asic.shadow_busy_share",
              switch_virtual_ns > 0 ? shadow_busy / switch_virtual_ns : 0, "fraction");
    res.layer("asic.main_busy_share", switch_virtual_ns > 0 ? main_busy / switch_virtual_ns : 0,
              "fraction");
    res.layer("asic.queue_wait_us_p99", percentile(queue_wait_us, 0.99), "us",
              queue_wait_us.size());
    res.layer("tcam_table.shifts_per_insert",
              table_inserts ? static_cast<double>(shifts) / static_cast<double>(table_inserts) : 0,
              "count");
    res.layer("tcam_table.main_fill", fill, "fraction");
    res.layer("rule_manager.migrations", static_cast<double>(d.migrations), "count");
    res.layer("cache.promotions_per_kpkt", 0, "count");
    LayerView::Generic g;
    g.request_spans = {"backend.handle", "backend.handle_batch"};
    g.tick_span = "backend.tick";
    g.asic_busy_ratio =
        switch_virtual_ns > 0 ? (shadow_busy + main_busy) / switch_virtual_ns : 0;
    lv.generic(g);
    res.layers["sim.self_cpu_share"] = res.layers["outside.cpu_share"];
  }
  return res;
}

}  // namespace perfbench
