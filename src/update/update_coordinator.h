// Network-wide consistent update transactions over an UpdatePlan.
//
// The coordinator executes one rerouting transaction per flow: install
// ("add") the flow's rule at every new-path-only switch, flip each
// segment's entry common node old->new in the dependency order computed
// by net::plan_update(), then retire the old-path-only rules. One engine
// issues and lands every add, flip and removal and finishes every
// transaction; the two strategies differ only in their timing and in
// the policy that decides what an op's completion releases:
//
//  * kSegway — decentralized ez-Segway signaling. Adds go out at once;
//    a segment's flip is released by its own adds and the flips it
//    depends on, paying only `signal_delay` per switch-to-switch
//    hand-off (no controller round-trips); each old-path rule is
//    removed once the flips gating it landed; a failure rolls back.
//  * kTwoPhase — the naive centralized baseline: every command pays
//    ctrl_rtt/2 to reach its switch and every ack ctrl_rtt/2 back, with
//    one ctrl_send_gap between consecutive sends. The controller waits
//    for every add ack, then fires ALL entry flips concurrently
//    (ignoring segment dependencies), then every removal. Out-of-order
//    reroutes transiently loop, and a flip-phase failure or switch
//    reset strands the network in a MIXED old/new state (it does not
//    roll flips back) — precisely the behavior the update regression
//    suite pins down and bench_update quantifies.
//
// Failure semantics (kSegway): any add or flip that a backend reports
// failed (fault injection past its retry budget, or a reset-wiped rule)
// aborts the transaction and rolls it back — old rules whose removal
// already landed are re-installed, already-flipped entries are
// un-flipped in reverse flip order (falling back to re-inserting the old
// rule when the un-flip modify itself fails on a wiped switch), and
// every installed add is deleted. An aborted transaction therefore ends
// in the OLD consistent state; a committed one in the NEW state. A
// kTwoPhase add-phase failure takes the same path with nothing to undo
// but the adds. cancel() (the flow completed mid-update) deletes the
// installed adds and stops.
//
// All times are virtual (sim::EventQueue); the coordinator is
// single-threaded and drives backends through one caller-supplied
// dispatch callback.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/flow_mod_batch.h"
#include "net/rule.h"
#include "net/time.h"
#include "net/update_plan.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"

namespace hermes::update {

enum class Strategy : std::uint8_t { kSegway, kTwoPhase };

struct CoordinatorConfig {
  Strategy strategy = Strategy::kSegway;

  /// kSegway: latency of one switch-to-switch release signal (an agent
  /// telling a successor its segment completed). Zero = same-instant
  /// release, the data-center approximation.
  Duration signal_delay = 0;

  /// kTwoPhase: controller round-trip. Each phase pays rtt/2 to deliver
  /// the command and rtt/2 for the ack before the next phase may start.
  Duration ctrl_rtt = 0;

  /// kTwoPhase: serialization gap between consecutive controller sends
  /// within one phase (the controller fans out over one channel).
  Duration ctrl_send_gap = 0;
};

/// Final report for one transaction, delivered to the DoneFn.
struct TxnOutcome {
  std::uint64_t txn = 0;
  bool committed = false;
  bool cancelled = false;
  Time begin = 0;
  /// Commit: the last flip's completion (the network is consistently on
  /// the new path; removals may still be in flight). Abort: when the
  /// rollback finished issuing.
  Time done = 0;
  int segments = 0;
  int adds = 0;          ///< add operations that landed
  int flips = 0;         ///< entry flips that landed (incl. virtual ingress)
  int failed_ops = 0;    ///< operations a backend reported failed
  int rollback_flips = 0;  ///< un-flips issued while rolling back
};

class UpdateCoordinator {
 public:
  /// Dispatches one single-mod transaction to `sw` at virtual time `now`
  /// and fills the batch's result slots before returning. Must complete
  /// every slot (completion >= now). Every switch operation the
  /// coordinator issues goes through it.
  using BatchDispatch =
      std::function<void(Time, net::NodeId, net::FlowModBatch&)>;
  using DoneFn = std::function<void(Time, const TxnOutcome&)>;
  /// Test/bench hook: called at the completion instant of every
  /// forwarding-state-changing operation with its effect and outcome.
  /// Virtual nodes (hosts, perfect-control-plane switches) report a
  /// synthetic kModify whose action is forward_to(<new-path successor>).
  using OpObserver =
      std::function<void(Time, net::NodeId, const net::FlowMod&, bool ok)>;

  /// One rerouting transaction. Nodes absent from both rule maps are
  /// virtual: their operations complete instantly without a dispatch
  /// (hosts, or switches on a perfect control plane).
  struct TxnRequest {
    net::UpdatePlan plan;
    /// Existing per-flow rule at each old-path switch. Commons present
    /// here flip via kModify (id and match kept, action replaced).
    std::unordered_map<net::NodeId, net::Rule> old_rules;
    /// Rule to install at each new-path switch (fresh ids, caller
    /// allocated). For commons with an old rule only the action is used.
    std::unordered_map<net::NodeId, net::Rule> new_rules;
  };

  UpdateCoordinator(sim::EventQueue& events, BatchDispatch batch,
                    CoordinatorConfig config = {});

  /// Starts a transaction; `done` fires exactly once (commit, abort, or
  /// cancel). Returns the transaction id.
  std::uint64_t begin(Time now, TxnRequest req, DoneFn done);

  /// Abandons an in-flight transaction (e.g. the flow completed): no
  /// further phases are issued, installed adds are deleted, and done
  /// reports cancelled. No-op for unknown/finished ids.
  void cancel(std::uint64_t txn);

  void set_observer(OpObserver observer) { observer_ = std::move(observer); }

  int active() const { return active_; }

 private:
  struct SegState {
    int adds_pending = 0;
    int deps_pending = 0;
    bool flip_issued = false;
    /// The flip is released by a remote event (an internal add barrier or
    /// another entry's flip), so issuing it pays one signal_delay.
    bool needs_signal = false;
  };
  /// An old-path rule a removal deletes: what rollback re-installs once
  /// that delete landed (for a virtual node, a synthetic restore of its
  /// old next hop).
  struct OldRule {
    net::NodeId sw;
    net::Rule rule;
    bool virt;
  };
  struct Txn {
    TxnRequest req;
    DoneFn done;
    TxnOutcome out;
    std::vector<SegState> segs;
    std::vector<std::vector<int>> dependents;  // seg -> segs gated on it
    std::vector<int> removal_pending;          // per group: flips left
    int flips_left = 0;
    int outstanding = 0;  // scheduled ops whose completion hasn't fired
    Time last_flip = 0;   // the latest flip completion so far
    bool failed = false;
    bool cancelled = false;
    bool rolling_back = false;
    /// Adds that landed, for rollback/cancel deletion (switch, rule id).
    std::vector<std::pair<net::NodeId, net::RuleId>> added;
    /// Old rules whose gated removal already landed before a failure
    /// aborted the transaction. Rollback re-installs them FIRST (the
    /// reverse of add-before-flip): un-flipping an upstream common while
    /// its old-path internals are gone would blackhole.
    std::vector<OldRule> removed;
    /// Segments whose flip landed, in completion order (rollback order
    /// is the reverse).
    std::vector<int> flip_order;
  };

  bool two_phase() const { return config_.strategy == Strategy::kTwoPhase; }
  Txn* find(std::uint64_t id);
  bool is_virtual(const Txn& t, net::NodeId node) const;
  net::NodeId new_successor(const Txn& t, int seg) const;
  net::NodeId old_successor(const Txn& t, net::NodeId node) const;
  net::FlowMod flip_mod(const Txn& t, int seg) const;
  /// The old rules removal group `group` deletes.
  std::vector<OldRule> removals(const Txn& t, int group) const;

  /// Issues one op to `sw` (or completes it instantly when `virt`) and
  /// returns its (completion, ok). Schedules the observer notification
  /// at the completion instant.
  std::pair<Time, bool> dispatch_op(Time now, net::NodeId sw,
                                    const net::FlowMod& mod, bool virt);

  // The engine: every add, flip and removal is issued and landed here.
  void issue_add(Time now, std::uint64_t id, int seg, net::NodeId sw);
  void on_add_done(Time now, std::uint64_t id, int seg, net::NodeId sw,
                   net::RuleId rule, bool ok);
  void issue_flip(Time now, std::uint64_t id, int seg);
  /// `landed` is the flip's completion; `now` is when the coordinator
  /// learns of it (kTwoPhase: one half-RTT later).
  void on_flip_done(Time now, std::uint64_t id, int seg, Time landed,
                    bool ok);
  void issue_removal(Time now, std::uint64_t id, const OldRule& old);
  void delete_adds(Time now, Txn& t);
  /// Finishes a halted (failed or cancelled) transaction once nothing is
  /// in flight: a cancel deletes the adds, a failure rolls back.
  void check_stalled(Time now, std::uint64_t id);
  void note_failed_op(Txn& t);
  void note_abort(Time now, const Txn& t);
  /// The network is consistently on the new path since the last flip
  /// landed.
  void commit(Time now, Txn& t);
  void finish_cancelled(Time now, std::uint64_t id);
  void finish(Time now, std::uint64_t id);

  // kSegway policy: per-segment release, gated removals, rollback.
  void maybe_flip(Time now, std::uint64_t id, int seg);
  void maybe_remove(Time now, std::uint64_t id, int group);
  void start_rollback(Time now, std::uint64_t id);
  void rollback_next_flip(Time now, std::uint64_t id, std::size_t idx);

  // kTwoPhase policy: add barrier, flip fan-out, phase-3 removal.
  void two_phase_flips(Time now, std::uint64_t id);
  void two_phase_finish(Time now, std::uint64_t id);

  sim::EventQueue& events_;
  BatchDispatch batch_;
  OpObserver observer_;
  CoordinatorConfig config_;
  std::uint64_t next_id_ = 1;
  int active_ = 0;
  std::unordered_map<std::uint64_t, Txn> txns_;

  obs::Counter obs_txns_ = obs::attached_counter("update.txns");
  obs::Counter obs_committed_ = obs::attached_counter("update.committed");
  obs::Counter obs_aborted_ = obs::attached_counter("update.aborted");
  obs::Counter obs_cancelled_ = obs::attached_counter("update.cancelled");
  obs::Counter obs_adds_ = obs::attached_counter("update.adds");
  obs::Counter obs_flips_ = obs::attached_counter("update.flips");
  obs::Counter obs_removes_ = obs::attached_counter("update.removes");
  obs::Counter obs_failed_ops_ = obs::attached_counter("update.failed_ops");
  obs::Counter obs_rollback_flips_ =
      obs::attached_counter("update.rollback_flips");
  obs::Counter obs_out_of_order_ =
      obs::attached_counter("update.out_of_order_txns");
  obs::Histogram obs_segments_ = obs::attached_histogram("update.segments");
  obs::Histogram obs_completion_ns_ =
      obs::attached_histogram("update.completion_ns");
};

}  // namespace hermes::update
