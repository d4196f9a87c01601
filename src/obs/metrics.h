// Low-overhead metrics registry: counters, gauges and fixed-bucket
// latency histograms, plus the structured event-trace ring of trace.h.
//
// Threading: single-threaded, not reentrant. The library starts no
// thread; record into a registry only from the thread that drives the
// pipeline.
//
// Design constraints (the hot paths here run inside per-op TCAM
// bookkeeping measured in hundreds of nanoseconds):
//
//  * Null-sink default. Instrumentation handles (Counter / Gauge /
//    Histogram) are default-constructed detached; a record call on a
//    detached handle is a null test and a return. Components capture the
//    process-attached registry (obs::attached()) AT CONSTRUCTION, so a
//    program that never calls obs::attach() pays only that per record.
//
//  * Plain storage. A registry keeps one vector per metric type indexed
//    by handle id: a counter increment is one add, a gauge write one
//    store.
//
//  * Fixed-bucket histograms. Values are bucketed log-linearly (16
//    sub-buckets per power of two), so any recorded value lands within
//    6.25% of its bucket midpoint; p50/p95/p99 are interpolated from the
//    bucket counts and min/max/sum/count are tracked exactly.
//
// Export: obs::export_json(registry) renders the registry (and its trace
// ring) as a schema-versioned JSON document; obs::export_json() uses the
// attached registry. See README "Observability" for the schema.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace hermes::obs {

class Registry;

/// Monotonic event counter handle. Copyable, trivially destructible;
/// detached (default-constructed) handles ignore inc().
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1);
  /// Current value (0 when detached). Not hot-path.
  std::uint64_t value() const;
  bool attached() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  Registry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Last-write / running-max gauge handle (signed 64-bit).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v);
  /// Raises the gauge to `v` if larger (running max).
  void set_max(std::int64_t v);
  std::int64_t value() const;
  bool attached() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Gauge(Registry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  Registry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Fixed-bucket log-linear histogram handle for non-negative values
/// (latencies in ns, batch sizes, queue depths).
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t value);
  bool attached() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  Registry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Histogram statistics (exact count/min/max/sum/mean; bucket-
/// interpolated quantiles, each within one bucket width — <= 6.25% — of
/// the true order statistic, clamped to [min, max]).
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double sum = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Point-in-time view of a registry (what export_json renders).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;
  std::vector<TraceEvent> events;  ///< oldest-first surviving ring slice
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
};

/// Metric registry + trace ring. Each metric type lists its metrics in
/// registration order (the order snapshot() and export_json() use).
/// Instances are independent — a component-private registry and the
/// process-attached one can coexist. Destroying the attached registry
/// detaches it.
class Registry {
 public:
  /// `trace_capacity` bounds the event ring (0 = tracing disabled;
  /// events are counted as dropped).
  explicit Registry(std::size_t trace_capacity = 0);
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the handle for `name`, registering it (at zero) on first
  /// use. Re-registering the same name returns a handle to the same
  /// metric.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// Appends an event to the trace ring (drop-oldest when full).
  void trace(const TraceEvent& event);

  Snapshot snapshot() const;

  /// Single-metric reads (0 when the name is unknown).
  std::uint64_t counter_value(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;
  HistogramSummary histogram_summary(std::string_view name) const;

  std::size_t trace_capacity() const { return ring_.size(); }

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Hist {
    std::vector<std::uint64_t> buckets;  ///< sized on the first record
    std::uint64_t count = 0;
    std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max = 0;
    double sum = 0;

    void record(std::uint64_t value);
    HistogramSummary summary() const;
  };

  /// One metric type: `values[id]` is the metric named `names[id]`.
  template <class V>
  struct Family {
    std::unordered_map<std::string, std::uint32_t> ids;
    std::vector<std::string> names;
    std::vector<V> values;

    /// The id of `name`, registering it on first use.
    std::uint32_t id_of(std::string_view name);
    /// The value of `name`, or nullptr when it was never registered.
    const V* find(std::string_view name) const;
  };

  Family<std::uint64_t> counters_;
  Family<std::int64_t> gauges_;
  Family<Hist> hists_;
  std::vector<TraceEvent> ring_;
  std::uint64_t events_total_ = 0;
};

/// Attaches `registry` as the process-wide default captured by newly
/// constructed components (TcamTable, Asic, GateKeeper, Simulation, ...).
/// Pass nullptr to detach. Attach before building the pipeline:
/// components constructed earlier keep their detached handles.
void attach(Registry* registry);
Registry* attached();

/// Emits an event to the attached registry's trace ring; no-op when no
/// registry is attached.
void trace_event(const TraceEvent& event);

/// Handle factories against the attached registry: a detached (no-op)
/// handle when none is attached. This is how components capture the
/// null-sink default at construction time.
inline Counter attached_counter(std::string_view name) {
  Registry* reg = attached();
  return reg ? reg->counter(name) : Counter();
}
inline Gauge attached_gauge(std::string_view name) {
  Registry* reg = attached();
  return reg ? reg->gauge(name) : Gauge();
}
inline Histogram attached_histogram(std::string_view name) {
  Registry* reg = attached();
  return reg ? reg->histogram(name) : Histogram();
}

/// Renders a registry snapshot as a schema-versioned JSON object:
/// {"schema_version": 1, "counters": {...}, "gauges": {...},
///  "histograms": {...}, "events": {...}}.
std::string export_json(const Registry& registry);
/// Same, for the attached registry; "null" when none is attached.
std::string export_json();

}  // namespace hermes::obs
