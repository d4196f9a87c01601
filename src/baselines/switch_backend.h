// A uniform control-plane interface over switch implementations, so the
// simulator and benchmark harnesses can swap Hermes, the related-work
// baselines (Tango, ESPRES) and a plain unmodified switch (Section 8.3).
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "net/flow_mod_batch.h"
#include "net/rule.h"
#include "net/time.h"
#include "obs/metrics.h"

namespace hermes::fault {
class FaultPlan;
}

namespace hermes::tcam {
class Asic;
struct ApplyResult;
}  // namespace hermes::tcam

namespace hermes::baselines {

class SwitchBackend {
 public:
  virtual ~SwitchBackend() = default;

  /// Applies one control-plane action arriving at `now`; returns its
  /// completion time (>= now).
  virtual Time handle(Time now, const net::FlowMod& mod) = 0;

  /// Applies a whole flow-mod transaction arriving at `now`, filling the
  /// batch's per-mod result slots; returns the install barrier (max
  /// completion, >= now).
  ///
  /// The default implementation loops handle() over the mods in batch
  /// order — same costs as submitting them one by one, but with per-mod
  /// completions recorded. Backends with a native batch path (one
  /// admission decision, one optimized TCAM write, one scheduling
  /// window) override it.
  virtual Time handle_batch(Time now, net::FlowModBatch& batch) {
    obs_batch_size_.record(batch.size());
    Time barrier = now;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Time done = handle(now, batch.mod(i));
      batch.complete(i, done);
      if (done > barrier) barrier = done;
    }
    return barrier;
  }

  /// Periodic background hook (batch flushes, Hermes epochs/migration).
  /// Call with non-decreasing `now`.
  virtual void tick(Time now) = 0;

  /// The data-plane read at simulation time `now`: applies any scheduled
  /// switch reset that fired at-or-before `now` first, so the data plane
  /// observes a wipe immediately. Returns nullptr on a miss. The pointer
  /// is invalidated by any subsequent control-plane activity; use it
  /// immediately.
  virtual const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) = 0;

  /// A copy of lookup_ptr at the earliest time, so no scheduled reset is
  /// applied. Kept only because a benchmark backend overrides it; it goes
  /// with the next change to the benchmark. Call lookup_ptr instead.
  virtual std::optional<net::Rule> lookup(net::Ipv4Address addr) {
    const net::Rule* r = lookup_ptr(std::numeric_limits<Time>::min(), addr);
    if (r == nullptr) return std::nullopt;
    return *r;
  }

  virtual std::string_view name() const = 0;

  /// One rule-installation-time sample per controller-visible insert.
  virtual const std::vector<Duration>& rit_samples() const = 0;
  virtual void clear_rit_samples() = 0;

  /// Attaches a fault plan (non-owning; nullptr detaches) to the
  /// backend's ASIC(s) so every implementation runs under the same
  /// injected faults. Default: no-op, for software-only backends.
  virtual void set_fault_plan(fault::FaultPlan* /*plan*/) {}

 protected:
  /// Shared recovery policy for the non-Hermes baselines: an unmodified
  /// switch agent simply re-submits a failed write immediately, up to
  /// this many extra attempts — each retry re-pays the full
  /// occupancy-dependent insert cost on the serialized channel.
  static constexpr int kFaultRetryLimit = 3;

  /// Submits `mod` to slice 0 of `asic`. With a fault plan attached, a
  /// failed insert is re-submitted as soon as the failed attempt
  /// completes, up to kFaultRetryLimit times. `result`, when non-null,
  /// receives the last attempt's outcome. Returns its completion time.
  Time submit_with_retry(tcam::Asic& asic, Time now, const net::FlowMod& mod,
                         tcam::ApplyResult* result = nullptr);

  /// Inserts `rules` into slice 0 of `asic` as one batch. With a fault
  /// plan attached, the suffix a failed write cut off is re-submitted as
  /// soon as the previous batch completes, up to kFaultRetryLimit times.
  /// Returns the last batch's completion time.
  Time submit_batch_with_retry(tcam::Asic& asic, Time now,
                               const std::vector<net::Rule>& rules);

  /// Failed writes re-submitted by baseline backends (aggregate across
  /// backends via the process-attached registry).
  obs::Counter obs_retries_ = obs::attached_counter("backend.retries");

  /// Transaction sizes reaching this layer, shared across backends via the
  /// process-attached registry (detached no-op handle otherwise).
  /// Overrides of handle_batch record into it too.
  obs::Histogram obs_batch_size_ =
      obs::attached_histogram("backend.batch_size");
};

}  // namespace hermes::baselines
