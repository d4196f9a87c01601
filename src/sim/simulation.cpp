#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

namespace hermes::sim {

namespace {

/// Utilization headroom a TE move must gain over the flow's current
/// bottleneck.
constexpr double kImprovementMargin = 0.1;
/// Candidate paths per (src, dst) pair.
constexpr int kPathsPerPair = 4;
/// Priority band of the TE app's per-flow rules. A narrow band above the
/// switch's steady-state rules: per-flow rules outrank the baseline FIB,
/// while same-priority rules are common enough for aggregation-style
/// optimizers to find structure.
constexpr int kRulePriorityMin = 100;
constexpr int kRulePriorityMax = 104;

/// Every flow gets a unique virtual /32 so its per-flow rules are distinct
/// match keys on every switch (the flow-level analogue of 5-tuple rules).
net::Prefix flow_match(int flow_idx) {
  return net::Prefix(
      net::Ipv4Address(0x0A000000u |
                       (static_cast<std::uint32_t>(flow_idx) + 1)),
      32);
}

}  // namespace

Simulation::Simulation(const net::Topology& topology, SimConfig config)
    : topology_(&topology),
      config_(std::move(config)),
      network_(topology),
      paths_(topology, kPathsPerPair, net::hop_count()),
      rng_(config_.seed) {
  if (config_.controller_threads != 1)
    throw std::invalid_argument("SimConfig::controller_threads must be 1");
  if (config_.backend_factory) {
    for (net::NodeId sw : topology.switches()) {
      backends_.emplace(
          sw, Switch{config_.backend_factory(sw, topology.node(sw).name)});
    }
  }
  // Consistent-update coordinator for TE moves. Every operation it
  // issues reaches its backend as a one-mod batch through handle_batch.
  // Release signals between switches take no time (the default
  // signal_delay of 0, the data-center approximation).
  update::CoordinatorConfig uc;
  uc.strategy = update::Strategy::kSegway;
  coordinator_ = std::make_unique<update::UpdateCoordinator>(
      events_,
      [this](Time now, net::NodeId sw, net::FlowModBatch& batch) {
        auto it = backends_.find(sw);
        if (it == backends_.end()) {
          // Perfect control plane: every op lands instantly.
          for (std::size_t i = 0; i < batch.size(); ++i)
            batch.complete(i, now, true);
          return;
        }
        obs_app_batch_size_.record(batch.size());
        catch_up(it->second);
        it->second.backend->handle_batch(now, batch);
      },
      uc);
}

Simulation::~Simulation() = default;

void Simulation::add_jobs(const std::vector<workloads::Job>& jobs) {
  for (const workloads::Job& job : jobs) {
    JobTracker tracker;
    tracker.spec = job;
    tracker.outstanding = static_cast<int>(job.flows.size());
    jobs_.emplace(job.id, std::move(tracker));
    if (job.flows.empty()) continue;
    outstanding_flows_ += static_cast<int>(job.flows.size());
    events_.schedule(job.arrival,
                     [this, id = job.id, specs = job.flows](Time now) {
                       start_flows(now, id, specs);
                     });
  }
}

void Simulation::add_flows(const std::vector<workloads::FlowArrival>& flows) {
  for (const workloads::FlowArrival& arrival : flows) {
    ++outstanding_flows_;
    events_.schedule(arrival.time, [this, spec = arrival.flow](Time now) {
      start_flows(now, -1, {&spec, 1});
    });
  }
}

void Simulation::run() {
  if (outstanding_flows_ == 0) return;
  // Kick off the recurring TE cycle and backend maintenance ticks; each
  // reschedules itself while flows remain outstanding.
  events_.schedule(config_.te_period, [this](Time now) { te_cycle(now); });
  events_.schedule(from_millis(10),
                   [this](Time t) { tick_and_reschedule(t); });
  // Dispatch loop (the former events_.run_all), instrumented: count every
  // event and sample queue depth every 64. The wall clock is only read
  // when a registry is collecting.
  const bool collecting = obs_events_.attached();
  const auto wall_start = collecting
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  std::uint64_t budget = /*max_events=*/200'000'000ull;
  std::uint64_t processed = 0;
  while (budget-- > 0 && events_.run_next()) {
    ++processed;
    if ((processed & 63u) == 0)
      obs_queue_depth_.record(events_.size());
  }
  // Every backend has received every fired tick when run() returns.
  for (auto& [id, sw] : backends_) catch_up(sw);
  if (collecting) {
    obs_events_.inc(processed);
    obs_virtual_time_ns_.set(events_.now());
    obs_wall_time_ns_.set(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count());
  }
  assert(outstanding_flows_ == 0 && "simulation ended with active flows");
}

void Simulation::dispatch_mod(Time now, net::NodeId sw,
                              const net::FlowMod& mod) {
  auto it = backends_.find(sw);
  if (it == backends_.end()) return;
  catch_up(it->second);
  it->second.backend->handle(now, mod);
}

void Simulation::catch_up(Switch& sw) {
  for (; sw.ticks_seen < tick_times_.size(); ++sw.ticks_seen)
    sw.backend->tick(tick_times_[sw.ticks_seen]);
}

void Simulation::tick_and_reschedule(Time now) {
  // A tick is due at every backend now, but a backend sees nothing of it
  // until its next request or the end of run(): catch_up() delivers it
  // then, while that switch's state is in cache.
  tick_times_.push_back(now);
  if (outstanding_flows_ > 0)
    events_.schedule(now + from_millis(10),
                     [this](Time t) { tick_and_reschedule(t); });
}

net::Path Simulation::initial_path(net::NodeId src, net::NodeId dst,
                                   std::uint64_t salt) {
  const auto& candidates = paths_.paths(src, dst);
  assert(!candidates.empty() && "no path between hosts");
  // Deterministic ECMP-style spreading by flow identity.
  return candidates[salt % candidates.size()];
}

void Simulation::start_flows(Time now, int job_id,
                             std::span<const workloads::FlowSpec> specs) {
  network_.advance_to(now);
  const int first_idx = static_cast<int>(flows_.size());
  std::vector<FluidNetwork::NewFlow> fluid;
  fluid.reserve(specs.size());
  for (const workloads::FlowSpec& spec : specs) {
    int flow_idx = static_cast<int>(flows_.size());
    ActiveFlow flow;
    flow.job_id = job_id;
    flow.bytes = spec.bytes;
    flow.arrival = now;
    flow.path =
        initial_path(spec.src, spec.dst,
                     static_cast<std::uint64_t>(flow_idx) * 2654435761u);
    fluid.push_back({spec.bytes, net::path_links(*topology_, flow.path)});
    flows_.push_back(std::move(flow));
  }
  // One filling for the whole set: the rates it settles on depend only on
  // the flow set, and the ids come out consecutive in input order.
  const FlowId first_id = network_.add_flows(std::move(fluid), now);
  for (int i = 0; i < static_cast<int>(specs.size()); ++i) {
    flows_[static_cast<std::size_t>(first_idx + i)].fluid_id = first_id + i;
    fluid_to_idx_.emplace(first_id + i, first_idx + i);
  }
  schedule_next_completion();
}

void Simulation::complete_flow(Time now, FlowId fluid_id) {
  auto it = fluid_to_idx_.find(fluid_id);
  if (it == fluid_to_idx_.end()) return;  // already handled
  int flow_idx = it->second;
  ActiveFlow& flow = flows_[static_cast<std::size_t>(flow_idx)];

  network_.remove_flow(fluid_id, now);
  fluid_to_idx_.erase(it);

  // A move still in flight is moot now: the coordinator stops issuing
  // phases and retires whatever rules it already installed.
  if (flow.txn != 0) coordinator_->cancel(flow.txn);

  // Controller housekeeping: retire the flow's per-flow rules (deletes
  // are cheap but still exercise the control channel).
  for (std::size_t i = 0; i < flow.installed_rules.size(); ++i) {
    net::FlowMod del{net::FlowModType::kDelete,
                     net::Rule{flow.installed_rules[i].id, 0, {}, {}}};
    dispatch_mod(now, flow.rule_switches[i], del);
  }
  flow.installed_rules.clear();
  flow.rule_switches.clear();

  FlowResult result;
  result.job_id = flow.job_id;
  result.bytes = flow.bytes;
  result.arrival = flow.arrival;
  result.completion = now;
  if (config_.include_propagation_in_fct) {
    double delay_s = 0;
    for (net::LinkId l : net::path_links(*topology_, flow.path))
      delay_s += topology_->link(l).delay_s;
    result.completion += from_seconds(delay_s);
  }
  result.moves = flow.moves;
  results_.push_back(result);

  if (flow.job_id >= 0) {
    JobTracker& tracker = jobs_.at(flow.job_id);
    tracker.completion = std::max(tracker.completion, result.completion);
    --tracker.outstanding;
  }
  --outstanding_flows_;
  schedule_next_completion();
}

void Simulation::schedule_next_completion() {
  ++completion_version_;
  auto next = network_.next_completion();
  if (!next) return;
  std::uint64_t version = completion_version_;
  Time when = std::max(next->time, events_.now());
  events_.schedule(when, [this, version, flow = next->flow](Time now) {
    if (version != completion_version_) return;  // superseded
    network_.advance_to(now);
    complete_flow(now, flow);
  });
}

void Simulation::te_cycle(Time now) {
  network_.advance_to(now);
  if (outstanding_flows_ > 0) {
    events_.schedule(now + config_.te_period,
                     [this](Time t) { te_cycle(t); });
  }
  if (network_.active_flow_count() == 0) return;

  std::vector<double> utilization = network_.all_link_utilization();

  // Planned moves update the utilization snapshot as we go, so flows
  // escaping the same hot link spread over different alternatives instead
  // of stampeding onto one (the classic synchronized-TE oscillation).
  auto flow_util_delta = [&](double rate, const net::Path& path,
                             double sign) {
    for (net::LinkId l : net::path_links(*topology_, path)) {
      double cap = topology_->link(l).capacity_bps / 8.0;
      if (cap > 0)
        utilization[static_cast<std::size_t>(l)] += sign * rate / cap;
    }
  };
  auto path_max_util = [&](const net::Path& path) {
    double max_util = 0;
    for (net::LinkId l : net::path_links(*topology_, path))
      max_util =
          std::max(max_util, utilization[static_cast<std::size_t>(l)]);
    return max_util;
  };

  // Global re-placement (the Section 8.1.1 SDNApp): every period, every
  // active flow is re-evaluated and moved to a clearly better path when
  // one exists — biggest flows first, bottlenecked flows prioritized.
  std::vector<FlowId> active;
  active.reserve(static_cast<std::size_t>(network_.active_flow_count()));
  for (const auto& [fid, idx] : fluid_to_idx_) active.push_back(fid);
  std::sort(active.begin(), active.end(), [&](FlowId a, FlowId b) {
    double ra = network_.rate_bytes_per_s(a);
    double rb = network_.rate_bytes_per_s(b);
    if (ra != rb) return ra > rb;
    return a < b;
  });

  int moves_left = config_.max_moves_per_cycle;
  std::vector<PlannedMove> planned;
  for (FlowId fid : active) {
    if (moves_left <= 0) break;
    int flow_idx = fluid_to_idx_.at(fid);
    ActiveFlow& flow = flows_[static_cast<std::size_t>(flow_idx)];
    if (flow.move_in_progress) continue;

    double current_max = path_max_util(flow.path);
    if (current_max <= config_.congestion_threshold) continue;

    // Best candidate: the path whose most-utilized link is least
    // utilized, and clearly better than the current bottleneck.
    const auto& candidates =
        paths_.paths(flow.path.front(), flow.path.back());
    const net::Path* best = nullptr;
    double best_max_util = current_max - kImprovementMargin;
    for (const net::Path& candidate : candidates) {
      if (candidate == flow.path) continue;
      double max_util = path_max_util(candidate);
      if (max_util < best_max_util) {
        best_max_util = max_util;
        best = &candidate;
      }
    }
    if (!best) continue;
    double rate = network_.rate_bytes_per_s(fid);
    flow_util_delta(rate, flow.path, -1.0);
    flow_util_delta(rate, *best, +1.0);
    planned.push_back({flow_idx, *best});
    --moves_left;
  }
  install_moves(now, planned);
}

void Simulation::install_moves(Time now,
                               const std::vector<PlannedMove>& moves) {
  if (moves.empty()) return;

  // One consistent-update transaction per move. Rule generation runs per
  // (move, hop) in planned-move order — a deterministic RNG draw and id
  // sequence — and the coordinator decides when each op is issued: adds
  // immediately (the new switches are unreachable until their segment
  // entry flips), flips when the segment's agent releases them, removals
  // once their gating entries flipped.
  std::uniform_int_distribution<int> prio(kRulePriorityMin, kRulePriorityMax);
  for (const PlannedMove& move : moves) {
    ActiveFlow& flow = flows_[static_cast<std::size_t>(move.flow_idx)];
    flow.move_in_progress = true;

    update::UpdateCoordinator::TxnRequest req;
    req.plan = net::plan_update(flow.path, move.path);
    for (std::size_t i = 0; i < flow.rule_switches.size(); ++i)
      req.old_rules.emplace(flow.rule_switches[i], flow.installed_rules[i]);

    std::vector<net::NodeId> new_switches;
    std::vector<net::Rule> fresh_rules;
    for (std::size_t i = 0; i + 1 < move.path.size(); ++i) {
      net::NodeId node = move.path[i];
      if (topology_->node(node).kind != net::NodeKind::kSwitch) continue;
      net::Rule rule{
          next_rule_id(), prio(rng_), flow_match(move.flow_idx),
          net::forward_to(static_cast<int>(move.path[i + 1]) % 48)};
      new_switches.push_back(node);
      fresh_rules.push_back(rule);
      req.new_rules.emplace(node, rule);
    }

    flow.txn = coordinator_->begin(
        now, std::move(req),
        [this, flow_idx = move.flow_idx, new_path = move.path,
         new_switches = std::move(new_switches),
         fresh_rules = std::move(fresh_rules)](
            Time t, const update::TxnOutcome& out) {
          on_move_done(t, flow_idx, new_path, new_switches, fresh_rules,
                       out);
        });
  }
}

void Simulation::on_move_done(Time now, int flow_idx,
                              const net::Path& new_path,
                              const std::vector<net::NodeId>& new_switches,
                              const std::vector<net::Rule>& fresh_rules,
                              const update::TxnOutcome& out) {
  ActiveFlow& flow = flows_[static_cast<std::size_t>(flow_idx)];
  flow.move_in_progress = false;
  flow.txn = 0;
  if (out.cancelled) return;  // flow completed mid-update; already cleaned up
  if (!out.committed) {
    // Aborted: the coordinator rolled the network back to the old path;
    // the flow's rule bookkeeping is untouched.
    ++moves_aborted_;
    obs_moves_aborted_.inc();
    return;
  }
  if (!fluid_to_idx_.count(flow.fluid_id)) return;  // completed this instant

  // Commit: adopt the new rule set. Commons kept their rule id (the flip
  // was a modify of the existing rule); every other switch carries its
  // freshly inserted rule. Old rules off the new path are retired by the
  // coordinator's gated removals — no deletes to issue here.
  std::unordered_map<net::NodeId, net::Rule> old_map;
  old_map.reserve(flow.rule_switches.size());
  for (std::size_t i = 0; i < flow.rule_switches.size(); ++i)
    old_map.emplace(flow.rule_switches[i], flow.installed_rules[i]);
  std::vector<net::Rule> rules;
  rules.reserve(fresh_rules.size());
  for (std::size_t i = 0; i < new_switches.size(); ++i) {
    auto it = old_map.find(new_switches[i]);
    if (it != old_map.end()) {
      net::Rule kept = it->second;
      kept.action = fresh_rules[i].action;
      rules.push_back(kept);
    } else {
      rules.push_back(fresh_rules[i]);
    }
  }

  network_.advance_to(now);
  network_.reroute_flow(flow.fluid_id,
                        net::path_links(*topology_, new_path), now);
  flow.installed_rules = std::move(rules);
  flow.rule_switches = new_switches;
  flow.path = new_path;
  ++flow.moves;
  ++total_moves_;
  schedule_next_completion();
}

std::vector<JobResult> Simulation::job_results() const {
  std::vector<JobResult> out;
  out.reserve(jobs_.size());
  for (const auto& [id, tracker] : jobs_) {
    JobResult r;
    r.job_id = id;
    r.bytes = tracker.spec.total_bytes();
    r.is_short = tracker.spec.is_short();
    r.arrival = tracker.spec.arrival;
    r.completion = tracker.completion;
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const JobResult& a, const JobResult& b) {
              return a.job_id < b.job_id;
            });
  return out;
}

std::vector<Duration> Simulation::all_rit_samples() const {
  std::vector<Duration> out;
  for (const auto& [id, sw] : backends_) {
    const auto& samples = sw.backend->rit_samples();
    out.insert(out.end(), samples.begin(), samples.end());
  }
  return out;
}

baselines::SwitchBackend* Simulation::backend(net::NodeId switch_id) {
  auto it = backends_.find(switch_id);
  return it == backends_.end() ? nullptr : it->second.backend.get();
}

}  // namespace hermes::sim
