// A switch ASIC: carved TCAM slices + the empirical latency model, with a
// serialized control channel.
//
// Section 6: commodity ASICs expose "TCAM carving" — the TCAM is split
// into slices, the hardware looks up all slices in parallel, and
// cross-slice conflicts resolve by pre-configured slice precedence.
// Hermes runs on exactly this substrate: slice 0 (highest precedence)
// becomes the shadow table and slice 1 the main table. A monolithic
// baseline switch is simply an Asic carved into a single slice.
#pragma once

#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "net/rule.h"
#include "net/time.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tcam/switch_model.h"
#include "tcam/tcam_table.h"

namespace hermes::tcam {

/// Outcome of one control-plane action against the ASIC.
struct ApplyResult {
  bool ok = false;
  Duration latency = 0;  ///< time the TCAM update engine was busy
  int shifts = 0;        ///< entries the hardware moved
};

class Asic {
 public:
  /// Carves the TCAM into `slice_sizes` slices. Slice 0 has the highest
  /// lookup precedence. All slices share the control channel.
  Asic(const SwitchModel& model, std::vector<int> slice_sizes);

  const SwitchModel& model() const { return *model_; }

  int slice_count() const { return static_cast<int>(slices_.size()); }
  TcamTable& slice(int i) { return slices_[static_cast<std::size_t>(i)]; }
  const TcamTable& slice(int i) const {
    return slices_[static_cast<std::size_t>(i)];
  }

  /// Total TCAM entries across slices (the carving budget).
  int total_capacity() const;
  int total_occupancy() const;

  /// Re-carves the TCAM at runtime: moves `entries` slots of capacity
  /// from slice `from` to slice `to` (the expand-partition migration
  /// action). Pure bookkeeping — resident rules do not move and the
  /// total carving budget is conserved. Refuses (returns false, no
  /// change) when `entries` is non-positive or slice `from` has fewer
  /// than `entries` free slots.
  bool transfer_capacity(int from, int to, int entries) {
    if (entries <= 0 || from == to) return false;
    TcamTable& donor = slice(from);
    if (donor.capacity() - donor.occupancy() < entries) return false;
    if (!donor.set_capacity(donor.capacity() - entries)) return false;
    slice(to).set_capacity(slice(to).capacity() + entries);
    return true;
  }

  /// Executes one flow-mod against slice `slice_idx` and returns its
  /// mechanics + latency. A modify that changes priority is decomposed
  /// into delete + insert (Section 4.1, "Rule Modification"); if the
  /// re-insert fails, the original rule is restored (counted as
  /// `asic.modify_rollbacks`) so a failed modify never loses the rule.
  /// `inject_insert_failure` forces that re-insert to fail (the fault
  /// plan's write-failure verdict, threaded through from submit()).
  ApplyResult apply(int slice_idx, const net::FlowMod& mod,
                    bool inject_insert_failure = false);

  /// The data-plane read, at simulation time `now`: applies any scheduled
  /// reset that has already fired (the data plane observes the wipe
  /// immediately, not at the next control-plane op), then looks up
  /// parallel across slices with precedence by slice index (slice 0
  /// wins — how the hardware resolves shadow-vs-main). Returns nullptr
  /// on a miss. The pointer is invalidated by any subsequent table
  /// mutation; use it immediately.
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr);

  /// Serialized control channel: each slice is a separate logical group in
  /// the SDK with its own update engine, so updates serialize per slice.
  /// (This mirrors the paper's Section 8.7 observation that background
  /// main-table migration does not stall guaranteed shadow-table inserts.)
  /// Submitting at `now` starts the op at max(now, busy_until(slice)) and
  /// returns its completion time.
  Time submit(Time now, int slice_idx, const net::FlowMod& mod,
              ApplyResult* result = nullptr);

  /// submit() of an action-only modify of `entry`, a resident rule of
  /// slice `slice_idx` as returned by find_ptr() with no table mutation
  /// since, without searching for it again: the same outcome, latency,
  /// channel occupation and fault draws (an in-place modify burns no
  /// write-failure draw). A reset firing at `now` wipes the slice first,
  /// and the modify then fails as submit()'s would.
  Time submit_action(Time now, int slice_idx, const net::Rule& entry,
                     const net::Action& action);

  /// Outcome of a batched insert.
  struct BatchResult {
    int inserted = 0;      ///< rules that fit (prefix of the span)
    Duration latency = 0;  ///< single optimized-batch channel occupation
  };

  /// Inserts `rules` as one optimized batch (the migration fast path,
  /// Section 5.2): the whole batch occupies the slice's channel for
  /// SwitchModel::batch_insert_latency(..) rather than per-rule insert
  /// costs, and the slice applies it as a single-pass placement
  /// (TcamTable::insert_batch). The batch stops at the first rule that
  /// does not fit — only the prefix lands (reported via `result`). An
  /// empty batch is a no-op: returns `now` with zero channel occupation.
  Time submit_batch_insert(Time now, int slice_idx,
                           const std::vector<net::Rule>& rules,
                           BatchResult* result = nullptr);

  /// Deletes `ids` as one batch (the shadow-emptying step of migration);
  /// missing ids are ignored. One channel occupation for the whole batch,
  /// and the slice compacts once (TcamTable::erase_batch); an empty batch
  /// is a no-op with zero channel occupation.
  Time submit_batch_delete(Time now, int slice_idx,
                           const std::vector<net::RuleId>& ids,
                           BatchResult* result = nullptr);

  Time busy_until(int slice_idx) const {
    return busy_until_[static_cast<std::size_t>(slice_idx)];
  }

  /// Per-slice control-channel occupation accounting since the last
  /// reset_channel() call (or construction). `busy_ns` is the total
  /// modeled channel occupation; `stall_ns` the portion injected by an
  /// attached fault plan; `injected_failures` the insert attempts the
  /// plan failed on this slice.
  struct ChannelStats {
    std::uint64_t ops = 0;
    std::int64_t busy_ns = 0;
    std::int64_t stall_ns = 0;
    std::uint64_t injected_failures = 0;
  };
  const ChannelStats& channel_stats(int slice_idx) const {
    return channel_stats_[static_cast<std::size_t>(slice_idx)];
  }

  /// Starts a fresh measurement epoch between experiments: forgets both
  /// channel serialization state (`busy_until`) AND the per-slice
  /// channel-occupation stats above — an epoch's `channel_stats()` always
  /// describe only that epoch. Deliberately NOT reset: slice contents
  /// (rules stay installed), the process-attached obs registry (global,
  /// detached by the harness instead), and any attached fault plan with
  /// its draw/reset cursors (the plan's schedule is position-based, and
  /// rewinding it would replay faults).
  void reset_channel() {
    for (Time& t : busy_until_) t = 0;
    for (ChannelStats& s : channel_stats_) s = {};
  }

  // --- Fault injection (src/fault/) ----------------------------------------
  /// Attaches a fault plan (non-owning; nullptr detaches). With no plan —
  /// the default — every path below is bit-identical to the fault-free
  /// implementation.
  void set_fault_plan(fault::FaultPlan* plan) { fault_plan_ = plan; }
  fault::FaultPlan* fault_plan() const { return fault_plan_; }

  /// Scheduled resets apply LAZILY: the wipe happens at the first channel
  /// OR data-plane activity (submit/batch/poll/lookup_ptr) at-or-after
  /// the reset time, wiping every slice and freeing the channels from the
  /// reset instant. Each applied reset bumps `reset_epoch()` — agents
  /// poll it to trigger reconciliation. Every read takes a clock, so no
  /// read sees a slice that a fired reset has wiped.
  void poll(Time now) { apply_pending_resets(now); }
  int reset_epoch() const { return reset_epoch_; }

 private:
  void apply_pending_resets(Time now);
  /// Occupies slice `slice_idx`'s control channel for `latency` plus the
  /// fault plan's stall draw, starting at max(now, busy_until): serializes
  /// the op behind the slice's earlier ones and accounts it (and an
  /// `injected_failure`) in ChannelStats. Callers draw their write-failure
  /// verdicts first, so the stall stays the op's last draw. Adds the
  /// stall to `latency` and returns the completion time.
  Time occupy_channel(Time now, int slice_idx, Duration& latency,
                      bool injected_failure);
  /// True iff `mod` is a modify of a resident rule to a different
  /// priority — the only modify shape that reaches the TCAM insert step
  /// (and hence the only one that burns a write-failure draw).
  bool modify_changes_priority(int slice_idx, const net::FlowMod& mod) const;

  const SwitchModel* model_;
  std::vector<TcamTable> slices_;
  std::vector<Time> busy_until_;
  std::vector<ChannelStats> channel_stats_;
  fault::FaultPlan* fault_plan_ = nullptr;
  int reset_epoch_ = 0;

  // Modeled control-channel occupation per op / per batch, aggregated
  // across all ASICs into the process-attached registry (detached no-op
  // handles otherwise). TcamShift trace events are emitted from submit(),
  // where the simulated arrival time is known.
  obs::Histogram obs_op_latency_ =
      obs::attached_histogram("asic.op_latency_ns");
  obs::Histogram obs_batch_latency_ =
      obs::attached_histogram("asic.batch_latency_ns");
  obs::Counter obs_batch_ops_ = obs::attached_counter("asic.batch_ops");
  obs::Counter obs_batch_rules_ =
      obs::attached_counter("asic.batch_rules");
  obs::Counter obs_modify_rollbacks_ =
      obs::attached_counter("asic.modify_rollbacks");
};

}  // namespace hermes::tcam
