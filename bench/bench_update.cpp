// Consistent-update transactions under reroute storms: ez-Segway
// decentralized signaling (src/update/) vs the naive centralized
// two-phase baseline, on the Abilene and Geant ISP topologies.
//
// The storm is a fixed, seeded set of single-flow reroutes between
// k-shortest-path candidates (out-of-order reroutes — where the new path
// revisits shared nodes in reversed old-path order — are kept
// preferentially, since those are the ones a naive concurrent flip can
// transiently loop). Every transaction's operations feed a
// ConsistencyChecker mirror re-traced at each completion instant, so the
// bench measures both speed AND the transient-inconsistency window.
//
// Two kinds of output, deliberately separated:
//
//   * rows — per-(topology, strategy) cell: virtual completion times,
//     violation instants/windows, and wall clock. Wall clock is
//     machine-dependent; rows never value-gate.
//   * derived — virtual-time ratios, bit-identical across machines
//     (fixed storm seed, integer virtual clocks):
//       update_segway_speedup          mean two-phase completion / mean
//                                      ez-Segway completion (>1: segway
//                                      saves the controller round-trips)
//       update_segway_violation_free_rate  fraction of ez-Segway reroutes
//                                      with ZERO blackhole/loop instants
//                                      (the consistency theorem: 1.0)
//       update_two_phase_loop_rate     fraction of out-of-order reroutes
//                                      the two-phase baseline transiently
//                                      loops (guards the oracle: if this
//                                      collapses, the checker went blind)
//     These gate in CI against bench/baselines/BENCH_update.json.
//
// Usage: bench_update [--smoke] [output.json]
//   (default output: BENCH_update.json; --smoke skips the wall-clock
//    repetition rounds — the storm, and with it every derived
//    virtual-time metric, is identical in both modes)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/routing.h"
#include "net/rule.h"
#include "net/topology.h"
#include "net/update_plan.h"
#include "report.h"
#include "sim/event_queue.h"
#include "update/consistency_checker.h"
#include "update/update_coordinator.h"

namespace hermes::bench {
namespace {

using update::ConsistencyChecker;
using update::CoordinatorConfig;
using update::Strategy;
using update::TxnOutcome;
using update::UpdateCoordinator;

/// Rule-id space per flow: old rule at `node` = flow*kStride + node + 1,
/// new rule = flow*kStride + 500 + node + 1. The observer attributes an
/// op back to its flow by dividing the id out.
constexpr net::RuleId kFlowIdStride = 1000;

// Control-plane model (virtual time). Per-switch install latency spans
// 0.5-2 ms deterministically; an ez-Segway release signal crosses one
// ISP link (~200 us) while the two-phase controller pays a WAN
// round-trip per phase.
constexpr Duration kSignalDelay = 200 * kMicrosecond;
constexpr Duration kCtrlRtt = 8 * kMillisecond;
constexpr Duration kCtrlSendGap = 20 * kMicrosecond;

Duration switch_latency(net::NodeId sw) {
  return from_micros(500 + 100 * ((static_cast<std::uint64_t>(sw) *
                                   2654435761ULL >> 8) % 16));
}

struct Reroute {
  net::Path old_path;
  net::Path new_path;
  net::UpdatePlan plan;
};

/// The fixed reroute storm for one topology: k-shortest-path pairs for
/// every switch pair (deterministic order), keeping every out-of-order
/// combination plus up to two in-order ones per pair, capped.
std::vector<Reroute> build_storm(const net::Topology& topo,
                                 int max_reroutes) {
  std::vector<Reroute> storm;
  std::vector<net::NodeId> sws = topo.switches();
  for (std::size_t a = 0; a < sws.size() && static_cast<int>(storm.size()) <
                                                max_reroutes; ++a) {
    for (std::size_t b = a + 1; b < sws.size() &&
                                static_cast<int>(storm.size()) < max_reroutes;
         ++b) {
      std::vector<net::Path> paths =
          net::k_shortest_paths(topo, sws[a], sws[b], net::hop_count(), 4);
      int in_order_kept = 0;
      for (std::size_t i = 0; i < paths.size(); ++i) {
        for (std::size_t j = 0; j < paths.size(); ++j) {
          if (i == j || paths[i] == paths[j]) continue;
          net::UpdatePlan plan = net::plan_update(paths[i], paths[j]);
          bool ooo = plan.out_of_order();
          if (!ooo && in_order_kept >= 2) continue;
          if (!ooo) ++in_order_kept;
          storm.push_back({paths[i], paths[j], std::move(plan)});
          if (static_cast<int>(storm.size()) >= max_reroutes) return storm;
        }
      }
    }
  }
  return storm;
}

/// Per-switch rule tables with deterministic per-switch latency; every
/// op succeeds (bench measures ordering cost, not fault handling —
/// that's the update regression suite's job).
class Fabric {
 public:
  UpdateCoordinator::BatchDispatch batch_dispatch() {
    return [this](Time now, net::NodeId sw, net::FlowModBatch& batch) {
      for (std::size_t i = 0; i < batch.size(); ++i)
        batch.complete(i, now + switch_latency(sw), apply(sw, batch.mod(i)));
    };
  }
  void install(net::NodeId sw, const net::Rule& rule) {
    tables_[sw][rule.id] = rule;
  }

 private:
  bool apply(net::NodeId sw, const net::FlowMod& mod) {
    std::map<net::RuleId, net::Rule>& t = tables_[sw];
    switch (mod.type) {
      case net::FlowModType::kInsert:
        t[mod.rule.id] = mod.rule;
        return true;
      case net::FlowModType::kModify: {
        auto it = t.find(mod.rule.id);
        if (it == t.end()) return false;
        it->second = mod.rule;
        return true;
      }
      case net::FlowModType::kDelete:
        return t.erase(mod.rule.id) > 0;
    }
    return false;
  }
  std::unordered_map<net::NodeId, std::map<net::RuleId, net::Rule>> tables_;
};

/// Wraps the ConsistencyChecker with per-flow violation WINDOWS: the
/// virtual time between the op that broke src->dst delivery and the op
/// that restored it.
class WindowTracker {
 public:
  ConsistencyChecker checker;

  void apply(Time t, int flow, net::NodeId sw, const net::FlowMod& mod,
             bool ok) {
    checker.apply(flow, sw, mod, ok);
    net::ForwardTrace trace = checker.trace(flow);
    State& s = states_[flow];
    bool bad = trace != net::ForwardTrace::kDelivered;
    if (trace == net::ForwardTrace::kLoop) s.looped = true;
    if (bad && !s.violating) {
      s.violating = true;
      s.since = t;
    } else if (!bad && s.violating) {
      s.violating = false;
      s.window += t - s.since;
    }
  }

  Duration total_window() const {
    Duration total = 0;
    for (const auto& [flow, s] : states_) total += s.window;
    return total;
  }
  int looped_flows() const {
    int n = 0;
    for (const auto& [flow, s] : states_) n += s.looped ? 1 : 0;
    return n;
  }
  bool flow_looped(int flow) const {
    auto it = states_.find(flow);
    return it != states_.end() && it->second.looped;
  }
  bool flow_clean(int flow) const {
    auto it = states_.find(flow);
    return it == states_.end() || (!it->second.looped && it->second.window == 0
                                   && !it->second.violating);
  }

 private:
  struct State {
    bool violating = false;
    bool looped = false;
    Time since = 0;
    Duration window = 0;
  };
  std::map<int, State> states_;
};

struct StormStats {
  int reroutes = 0;
  int out_of_order = 0;
  int committed = 0;
  double mean_completion_us = 0.0;  ///< virtual, mean over transactions
  double makespan_ms = 0.0;         ///< virtual, storm begin -> last commit
  std::int64_t violation_instants = 0;
  double violation_window_us = 0.0;  ///< virtual, summed over flows
  int looped_flows = 0;
  int clean_flows = 0;      ///< flows with zero violation window/instants
  int ooo_looped = 0;       ///< out-of-order reroutes that looped
  double wall_ms = 0.0;
};

/// Runs the whole storm through one coordinator: transaction k begins
/// 50 us after k-1 (a burst, so transactions overlap in flight).
StormStats run_storm(const std::vector<Reroute>& storm,
                     const CoordinatorConfig& config) {
  sim::EventQueue events;
  Fabric fabric;
  WindowTracker tracker;
  UpdateCoordinator coordinator(events, fabric.batch_dispatch(), config);
  coordinator.set_observer(
      [&](Time t, net::NodeId sw, const net::FlowMod& mod, bool ok) {
        int flow = static_cast<int>(mod.rule.id / kFlowIdStride);
        tracker.apply(t, flow, sw, mod, ok);
      });

  std::vector<TxnOutcome> outcomes;
  outcomes.reserve(storm.size());
  for (std::size_t f = 0; f < storm.size(); ++f) {
    const Reroute& r = storm[f];
    UpdateCoordinator::TxnRequest req;
    req.plan = r.plan;
    net::RuleId base = static_cast<net::RuleId>(f) * kFlowIdStride;
    for (std::size_t i = 0; i + 1 < r.old_path.size(); ++i) {
      net::Rule rule{base + r.old_path[i] + 1, 1, {},
                     net::forward_to(static_cast<int>(r.old_path[i + 1]))};
      req.old_rules.emplace(r.old_path[i], rule);
      fabric.install(r.old_path[i], rule);
    }
    for (std::size_t i = 0; i + 1 < r.new_path.size(); ++i)
      req.new_rules.emplace(
          r.new_path[i],
          net::Rule{base + 500 + r.new_path[i] + 1, 1, {},
                    net::forward_to(static_cast<int>(r.new_path[i + 1]))});
    tracker.checker.add_flow(static_cast<int>(f), r.old_path);
    Time begin_at = static_cast<Time>(f) * from_micros(50);
    events.schedule(begin_at, [&coordinator, &outcomes,
                               req = std::move(req)](Time now) mutable {
      coordinator.begin(now, std::move(req),
                        [&outcomes](Time, const TxnOutcome& out) {
                          outcomes.push_back(out);
                        });
    });
  }

  auto start = std::chrono::steady_clock::now();
  events.run_all();
  auto end = std::chrono::steady_clock::now();

  StormStats stats;
  stats.reroutes = static_cast<int>(storm.size());
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  double completion_sum_us = 0.0;
  Time last_done = 0;
  for (const TxnOutcome& out : outcomes) {
    if (!out.committed) continue;
    ++stats.committed;
    completion_sum_us += static_cast<double>(out.done - out.begin) / 1e3;
    if (out.done > last_done) last_done = out.done;
  }
  if (stats.committed > 0)
    stats.mean_completion_us = completion_sum_us / stats.committed;
  stats.makespan_ms = static_cast<double>(last_done) / 1e6;
  stats.violation_instants = tracker.checker.violation_instants();
  stats.violation_window_us =
      static_cast<double>(tracker.total_window()) / 1e3;
  stats.looped_flows = tracker.looped_flows();
  for (std::size_t f = 0; f < storm.size(); ++f) {
    if (storm[f].plan.out_of_order()) {
      ++stats.out_of_order;
      if (tracker.flow_looped(static_cast<int>(f))) ++stats.ooo_looped;
    }
    if (tracker.flow_clean(static_cast<int>(f))) ++stats.clean_flows;
  }
  return stats;
}

CoordinatorConfig segway_config() {
  CoordinatorConfig c;
  c.strategy = Strategy::kSegway;
  c.signal_delay = kSignalDelay;
  return c;
}

CoordinatorConfig two_phase_config() {
  CoordinatorConfig c;
  c.strategy = Strategy::kTwoPhase;
  c.ctrl_rtt = kCtrlRtt;
  c.ctrl_send_gap = kCtrlSendGap;
  return c;
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) {
  using namespace hermes::bench;
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  auto& rep = hermes::bench::report::open("update", "us");
  std::printf("consistent network updates: ez-Segway vs naive two-phase%s\n",
              smoke ? " [smoke]" : "");
  std::printf("virtual-time derived ratios gate in CI; wall-clock rows do "
              "not\n\n");

  struct Cell {
    const char* topo;
    const char* strategy;
    StormStats stats;
  };
  std::vector<Cell> cells;
  // Full mode repeats each storm for wall-clock stability; the virtual
  // numbers are identical every round (fixed storm, integer clocks), so
  // --smoke's single round changes no derived metric.
  const int rounds = smoke ? 1 : 5;
  const std::pair<const char*, hermes::net::Topology> topologies[] = {
      {"abilene", hermes::net::abilene()},
      {"geant", hermes::net::geant()},
  };
  for (const auto& [name, topo] : topologies) {
    std::vector<Reroute> storm = build_storm(topo, /*max_reroutes=*/120);
    for (const char* strategy : {"segway", "two_phase"}) {
      CoordinatorConfig config = std::string(strategy) == "segway"
                                     ? segway_config()
                                     : two_phase_config();
      StormStats stats;
      double best_wall = 0.0;
      for (int r = 0; r < rounds; ++r) {
        StormStats run = run_storm(storm, config);
        if (r == 0 || run.wall_ms < best_wall) best_wall = run.wall_ms;
        stats = run;
      }
      stats.wall_ms = best_wall;
      std::printf(
          "  %-8s %-10s reroutes=%3d (ooo=%2d) committed=%3d  "
          "mean=%8.1f us  makespan=%6.2f ms  violations=%3lld "
          "(window=%8.1f us, loops=%d)\n",
          name, strategy, stats.reroutes, stats.out_of_order,
          stats.committed, stats.mean_completion_us, stats.makespan_ms,
          static_cast<long long>(stats.violation_instants),
          stats.violation_window_us, stats.looped_flows);
      rep.row()
          .label("topology", name)
          .label("strategy", strategy)
          .value("reroutes", stats.reroutes)
          .value("out_of_order", stats.out_of_order)
          .value("committed", stats.committed)
          .value("mean_completion_us", stats.mean_completion_us)
          .value("makespan_ms", stats.makespan_ms)
          .value("violation_instants",
                 static_cast<double>(stats.violation_instants))
          .value("violation_window_us", stats.violation_window_us)
          .value("looped_flows", stats.looped_flows)
          .value("wall_ms", stats.wall_ms);
      cells.push_back({name, strategy, stats});
    }
  }

  // Aggregate the derived virtual-time ratios across both topologies.
  double segway_completion = 0.0, two_phase_completion = 0.0;
  int segway_n = 0, two_phase_n = 0;
  int segway_clean = 0, segway_flows = 0;
  int ooo_total = 0, ooo_looped = 0;
  bool all_committed = true;
  for (const Cell& cell : cells) {
    all_committed &= cell.stats.committed == cell.stats.reroutes;
    if (std::string(cell.strategy) == "segway") {
      segway_completion += cell.stats.mean_completion_us * cell.stats.committed;
      segway_n += cell.stats.committed;
      segway_clean += cell.stats.clean_flows;
      segway_flows += cell.stats.reroutes;
    } else {
      two_phase_completion +=
          cell.stats.mean_completion_us * cell.stats.committed;
      two_phase_n += cell.stats.committed;
      ooo_total += cell.stats.out_of_order;
      ooo_looped += cell.stats.ooo_looped;
    }
  }
  double speedup = (segway_n > 0 && two_phase_n > 0 && segway_completion > 0)
                       ? (two_phase_completion / two_phase_n) /
                             (segway_completion / segway_n)
                       : 0.0;
  double violation_free =
      segway_flows > 0 ? static_cast<double>(segway_clean) / segway_flows
                       : 0.0;
  double loop_rate =
      ooo_total > 0 ? static_cast<double>(ooo_looped) / ooo_total : 0.0;

  rep.derived("update_segway_speedup", speedup);
  rep.derived("update_segway_violation_free_rate", violation_free);
  rep.derived("update_two_phase_loop_rate", loop_rate);
  std::printf(
      "\nsegway speedup %.2fx over two-phase; segway violation-free rate "
      "%.3f; two-phase loops on %.0f%% of out-of-order reroutes\n",
      speedup, violation_free, loop_rate * 100.0);
  rep.write(out_path);

  // Correctness gate: every transaction commits, ez-Segway never
  // violates, the baseline demonstrably loops somewhere.
  bool ok = all_committed && violation_free == 1.0 && speedup > 1.0 &&
            ooo_total > 0 && ooo_looped > 0;
  if (!ok) std::printf("FAIL: update bench invariants not met\n");
  return ok ? 0 : 1;
}
