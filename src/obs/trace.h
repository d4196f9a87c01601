// Structured event tracing for the Hermes pipeline.
//
// A TraceEvent is a small fixed-size typed record: no strings, no heap.
// Producers call the factory helpers below and hand the record to
// obs::Registry::trace() (usually through obs::trace_event(), which
// targets the process-attached registry and is a no-op when none is
// attached). Records land in a bounded ring buffer — the newest
// `trace_capacity` events survive; older ones are dropped and counted —
// and are exported as JSON alongside the metric registry.
#pragma once

#include <cstdint>
#include <string_view>

namespace hermes::obs {

/// Simulated-time timestamp (integer nanoseconds), mirroring
/// hermes::Time without pulling net/ headers into the obs layer.
using TimeNs = std::int64_t;

enum class EventKind : std::uint8_t {
  kTcamShift,        ///< a TCAM insert moved entries (arg = slice index)
  kAdmission,        ///< Gate Keeper routing decision (arg = Route)
  kMigrationBatch,   ///< one Rule Manager migration run
  kPredictorSample,  ///< forecast vs. actual arrivals for a closed epoch
  kPartitionExpand,  ///< a rule was cut into multiple pieces
  kFaultInjected,    ///< fault layer injected a failure/stall/reset
  kRetry,            ///< a failed write was re-submitted after backoff
  kReconcile,        ///< post-reset RuleStore-vs-ASIC reconciliation pass
  kUpdatePhase,      ///< a network-wide update transaction changed phase
  kCacheOp,          ///< rule-cache hierarchy promotion/demotion
  kPolicyDecision,   ///< migration policy chose an epoch action
};

/// Kinds are numbered 0 .. kEventKindCount - 1; keep this after the last.
inline constexpr int kEventKindCount =
    static_cast<int>(EventKind::kPolicyDecision) + 1;

std::string_view kind_name(EventKind kind);

/// One fixed-layout trace record. Field meaning depends on `kind`; the
/// factory helpers below are the documentation of record.
struct TraceEvent {
  EventKind kind = EventKind::kTcamShift;
  std::uint8_t arg = 0;     ///< small discriminator (slice idx, route, ...)
  std::uint32_t a = 0;      ///< primary count (shifts, batch size, pieces)
  std::uint32_t b = 0;      ///< secondary count (failures, blockers)
  TimeNs time = 0;          ///< simulated time of the event
  std::int64_t latency_ns = 0;  ///< modeled latency, when meaningful
  double x = 0;             ///< predictor: forecast
  double y = 0;             ///< predictor: actual
};

/// An insert into slice `slice` that shifted `shifts` resident entries
/// and occupied the update engine for `latency_ns`.
inline TraceEvent tcam_shift_event(TimeNs t, int slice, int shifts,
                                   std::int64_t latency_ns) {
  TraceEvent e;
  e.kind = EventKind::kTcamShift;
  e.arg = static_cast<std::uint8_t>(slice);
  e.a = static_cast<std::uint32_t>(shifts);
  e.time = t;
  e.latency_ns = latency_ns;
  return e;
}

/// A Gate Keeper routing decision. `route` is the numeric value of
/// core::Route (0 = guaranteed; anything else is a main-table fallback).
inline TraceEvent admission_event(TimeNs t, std::uint8_t route) {
  TraceEvent e;
  e.kind = EventKind::kAdmission;
  e.arg = route;
  e.time = t;
  return e;
}

/// One Rule Manager migration run: `rules` logical rules moved as
/// `pieces` physical entries; `failures` pieces were rejected mid-batch.
inline TraceEvent migration_batch_event(TimeNs t, int rules, int pieces,
                                        int failures,
                                        std::int64_t latency_ns) {
  TraceEvent e;
  e.kind = EventKind::kMigrationBatch;
  e.arg = static_cast<std::uint8_t>(failures > 0 ? 1 : 0);
  e.a = static_cast<std::uint32_t>(pieces);
  e.b = static_cast<std::uint32_t>(failures);
  e.time = t;
  e.latency_ns = latency_ns;
  e.x = rules;
  return e;
}

/// A closed prediction epoch: the (corrected) forecast made for the
/// epoch vs. the arrivals actually observed.
inline TraceEvent predictor_sample_event(TimeNs t, double forecast,
                                         double actual) {
  TraceEvent e;
  e.kind = EventKind::kPredictorSample;
  e.time = t;
  e.x = forecast;
  e.y = actual;
  return e;
}

/// Algorithm 1 cut a rule into `pieces` physical entries against
/// `blockers` overlapping higher-priority rules.
inline TraceEvent partition_expand_event(TimeNs t, int pieces,
                                         int blockers) {
  TraceEvent e;
  e.kind = EventKind::kPartitionExpand;
  e.a = static_cast<std::uint32_t>(pieces);
  e.b = static_cast<std::uint32_t>(blockers);
  e.time = t;
  return e;
}

/// Values of fault_injected_event's `fault_kind` (the `a` field).
inline constexpr std::uint32_t kFaultWriteFailure = 0;
inline constexpr std::uint32_t kFaultStall = 1;
inline constexpr std::uint32_t kFaultReset = 2;

/// The fault layer injected a fault against `slice`: a write failure, a
/// channel stall of `stall_ns`, or a switch reset (slice is 0 and the
/// wipe covers every slice).
inline TraceEvent fault_injected_event(TimeNs t, int slice,
                                       std::uint32_t fault_kind,
                                       std::int64_t stall_ns) {
  TraceEvent e;
  e.kind = EventKind::kFaultInjected;
  e.arg = static_cast<std::uint8_t>(slice);
  e.a = fault_kind;
  e.time = t;
  e.latency_ns = stall_ns;
  return e;
}

/// A failed write against `slice` was re-submitted (attempt `attempt`,
/// 1-based) after capped exponential backoff, at simulated time `t`.
inline TraceEvent retry_event(TimeNs t, int slice, int attempt) {
  TraceEvent e;
  e.kind = EventKind::kRetry;
  e.arg = static_cast<std::uint8_t>(slice);
  e.a = static_cast<std::uint32_t>(attempt);
  e.time = t;
  return e;
}

/// One post-reset reconciliation pass: `rules` logical rules reinstalled
/// as `pieces` physical entries, occupying the channels for `latency_ns`.
inline TraceEvent reconcile_event(TimeNs t, int rules, int pieces,
                                  std::int64_t latency_ns) {
  TraceEvent e;
  e.kind = EventKind::kReconcile;
  e.a = static_cast<std::uint32_t>(rules);
  e.b = static_cast<std::uint32_t>(pieces);
  e.time = t;
  e.latency_ns = latency_ns;
  return e;
}

/// Values of update_phase_event's `phase` (the `arg` field).
inline constexpr std::uint8_t kUpdateBegin = 0;
inline constexpr std::uint8_t kUpdateFlip = 1;
inline constexpr std::uint8_t kUpdateCommit = 2;
inline constexpr std::uint8_t kUpdateAbort = 3;

/// A network-wide update transaction `txn` changed phase: began
/// (a = segment count), flipped a segment entry (a = segment index),
/// committed (a = entries flipped), or aborted/rolled back (b = failed
/// ops so far).
inline TraceEvent update_phase_event(TimeNs t, std::uint8_t phase,
                                     std::uint32_t txn, std::uint32_t a,
                                     std::uint32_t b = 0) {
  TraceEvent e;
  e.kind = EventKind::kUpdatePhase;
  e.arg = phase;
  e.a = a;
  e.b = b;
  e.time = t;
  e.latency_ns = static_cast<std::int64_t>(txn);
  return e;
}

/// Values of cache_op_event's `op` (the `arg` field).
inline constexpr std::uint8_t kCachePromote = 0;
inline constexpr std::uint8_t kCacheDemote = 1;

/// One rule-cache hierarchy operation: a promotion round installed
/// `rules` TCAM entries (b = rules pinned so far), or a demotion cascade
/// removed `rules` entries.
inline TraceEvent cache_op_event(TimeNs t, std::uint8_t op, int rules,
                                 int aux) {
  TraceEvent e;
  e.kind = EventKind::kCacheOp;
  e.arg = op;
  e.a = static_cast<std::uint32_t>(rules);
  e.b = static_cast<std::uint32_t>(aux);
  e.time = t;
  return e;
}

/// The migration policy chose `action` (core::MigrationAction's numeric
/// value: 0 = hold, 1 = migrate-small, 2 = migrate-large, 3 =
/// expand-partition) for the epoch starting at `t`, with the shadow
/// slice at `occupancy` of `capacity` entries.
inline TraceEvent policy_decision_event(TimeNs t, std::uint8_t action,
                                        int occupancy, int capacity) {
  TraceEvent e;
  e.kind = EventKind::kPolicyDecision;
  e.arg = action;
  e.a = static_cast<std::uint32_t>(occupancy);
  e.b = static_cast<std::uint32_t>(capacity);
  e.time = t;
  return e;
}

}  // namespace hermes::obs
