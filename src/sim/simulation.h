// Varys: the flow-level network simulator of Section 8.1.1, with the
// proactive traffic-engineering SDNApp of Section 2.2 / 8.1.1.
//
// The SDNApp periodically scans link utilization and moves flows off
// congested links onto less utilized candidate paths. Each move issues
// per-flow rules (flow-mods) to every switch along the new path through
// that switch's control-plane backend (plain / ESPRES / Tango / Hermes);
// the flow keeps using its OLD (congested) path until the LAST switch
// finishes installing — this is precisely how slow control-plane actions
// inflate FCT and JCT (Figure 1).
#pragma once

#include <functional>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/switch_backend.h"
#include "fault/fault_plan.h"
#include "net/routing.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/fluid_network.h"
#include "update/update_coordinator.h"
#include "workloads/trace.h"

namespace hermes::sim {

/// Builds one control-plane backend per switch. Receives the switch's
/// topology node id and name.
using BackendFactory =
    std::function<std::unique_ptr<baselines::SwitchBackend>(
        net::NodeId, const std::string&)>;

struct SimConfig {
  // Traffic-engineering application.
  Duration te_period = from_millis(100);
  double congestion_threshold = 0.75;  ///< link utilization trigger
  int max_moves_per_cycle = 32;

  /// Add the path's one-way propagation delay to each flow's completion
  /// time (data must still traverse the wire after the last byte leaves).
  /// Negligible on a data-center fat-tree; milliseconds on WAN paths —
  /// the RTT effect the paper notes when contrasting DC and ISP results.
  bool include_propagation_in_fct = true;

  // Control plane. Null factory => perfect (zero-latency) control plane.
  BackendFactory backend_factory;

  /// Must be 1: the simulator drives every backend from its one control
  /// thread, and the constructor throws std::invalid_argument for any
  /// other value. Kept only for existing callers that set it; it goes
  /// with the next change to the benchmark.
  int controller_threads = 1;

  std::uint64_t seed = 1;

  // Fault injection (src/fault/): when enabled, every switch backend gets
  // its own deterministic FaultPlan (seed derived from fault_seed and the
  // switch's node id) with the same per-slice fault profile and reset
  // schedule. Retries run in virtual time through the backends' own
  // recovery policies.
  bool faults_enabled = false;
  fault::SliceFaults fault_slice;
  std::vector<Time> fault_resets;
  std::uint64_t fault_seed = 0x5eed;
};

struct FlowResult {
  int job_id = -1;  ///< -1 for job-less (ISP) flows
  double bytes = 0;
  Time arrival = 0;
  Time completion = 0;
  int moves = 0;  ///< times the TE app rerouted it

  double fct_s() const { return to_seconds(completion - arrival); }
};

struct JobResult {
  int job_id = 0;
  double bytes = 0;
  bool is_short = false;
  Time arrival = 0;
  Time completion = 0;

  double jct_s() const { return to_seconds(completion - arrival); }
};

class Simulation {
 public:
  /// Throws std::invalid_argument unless config.controller_threads == 1.
  Simulation(const net::Topology& topology, SimConfig config);
  ~Simulation();

  /// Queues workload before run().
  void add_jobs(const std::vector<workloads::Job>& jobs);
  void add_flows(const std::vector<workloads::FlowArrival>& flows);

  /// Runs to completion of all queued flows.
  void run();

  const std::vector<FlowResult>& flow_results() const { return results_; }
  std::vector<JobResult> job_results() const;

  /// Rule-installation samples aggregated across all switch backends.
  std::vector<Duration> all_rit_samples() const;

  /// Per-backend access (e.g. for Hermes stats).
  baselines::SwitchBackend* backend(net::NodeId switch_id);

  int total_moves() const { return total_moves_; }

  /// Moves cancelled because a rule-install failed (fault injection):
  /// the flow kept its old path and installed sibling rules were retired.
  int moves_aborted() const { return moves_aborted_; }

 private:
  struct ActiveFlow {
    int job_id = -1;
    double bytes = 0;
    Time arrival = 0;
    FlowId fluid_id = kInvalidFlow;
    net::Path path;
    int moves = 0;
    bool move_in_progress = false;
    /// In-flight update transaction (0 = none); cancelled if the flow
    /// completes before the move commits or aborts.
    std::uint64_t txn = 0;
    /// The flow's live per-flow rules, one per switch on `path`, aligned
    /// with rule_switches. Full rules (not just ids): the next move hands
    /// them to the update coordinator as the transaction's old state.
    std::vector<net::Rule> installed_rules;
    std::vector<net::NodeId> rule_switches;
  };

  /// One path move the TE cycle decided on; installed via install_moves.
  struct PlannedMove {
    int flow_idx = 0;
    net::Path path;
  };

  void start_flow(Time now, int job_id, const workloads::FlowSpec& spec);
  void complete_flow(Time now, FlowId fluid_id);
  void schedule_next_completion();
  void te_cycle(Time now);
  /// Starts one consistent-update transaction per planned move
  /// (UpdateCoordinator, ez-Segway segment signaling): adds install
  /// first, each segment entry flips old->new when its agent releases
  /// it, and the flow reroutes only when the LAST entry flipped (the
  /// Figure 1 install barrier, now per segment). A failed write aborts
  /// the transaction — the coordinator rolls the network back to the old
  /// path and the move counts in app.moves_aborted.
  void install_moves(Time now, const std::vector<PlannedMove>& moves);
  /// Transaction outcome: commit reroutes the fluid flow and adopts the
  /// new rule set; abort keeps the old path (rules already rolled back);
  /// cancel means the flow completed mid-update.
  void on_move_done(Time now, int flow_idx, const net::Path& new_path,
                    const std::vector<net::NodeId>& new_switches,
                    const std::vector<net::Rule>& fresh_rules,
                    const update::TxnOutcome& out);
  net::Path initial_path(net::NodeId src, net::NodeId dst,
                         std::uint64_t salt);
  net::RuleId next_rule_id() { return rule_id_counter_++; }
  void tick_backends_and_reschedule(Time now);
  /// Routes one flow-mod to its backend. No-op for switches without a
  /// backend (perfect control plane).
  void dispatch_mod(Time now, net::NodeId sw, const net::FlowMod& mod);

  const net::Topology* topology_;
  SimConfig config_;
  EventQueue events_;
  FluidNetwork network_;
  net::PathDatabase paths_;
  std::mt19937_64 rng_;

  std::unordered_map<net::NodeId, std::unique_ptr<baselines::SwitchBackend>>
      backends_;
  std::vector<std::unique_ptr<fault::FaultPlan>> fault_plans_;

  /// Consistent-update transaction coordinator for TE moves.
  std::unique_ptr<update::UpdateCoordinator> coordinator_;

  std::vector<ActiveFlow> flows_;               // indexed by flow_idx
  std::unordered_map<FlowId, int> fluid_to_idx_;

  struct JobTracker {
    workloads::Job spec;
    int outstanding = 0;
    Time completion = 0;
  };
  std::unordered_map<int, JobTracker> jobs_;

  std::vector<FlowResult> results_;
  std::uint64_t completion_version_ = 0;
  net::RuleId rule_id_counter_ = 1;
  int total_moves_ = 0;
  int moves_aborted_ = 0;
  int outstanding_flows_ = 0;

  // Event-loop health, aggregated into the process-attached registry
  // (detached no-op handles otherwise): total events dispatched, queue
  // depth sampled every 64 events, and final virtual-time / wall-clock
  // positions for lag analysis.
  obs::Counter obs_events_ = obs::attached_counter("sim.events");
  obs::Histogram obs_queue_depth_ =
      obs::attached_histogram("sim.queue_depth");
  obs::Gauge obs_virtual_time_ns_ =
      obs::attached_gauge("sim.virtual_time_ns");
  obs::Gauge obs_wall_time_ns_ = obs::attached_gauge("sim.wall_time_ns");
  /// Flow-mods per per-switch transaction issued by the TE app.
  obs::Histogram obs_app_batch_size_ =
      obs::attached_histogram("app.batch_size");
  /// Moves cancelled at their install barrier because a rule failed.
  obs::Counter obs_moves_aborted_ =
      obs::attached_counter("app.moves_aborted");
};

}  // namespace hermes::sim
