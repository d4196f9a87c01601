#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

namespace hermes::obs {

namespace {

// Log-linear bucketing: values below 2^kSubBits map to themselves (exact);
// above that, each power-of-two octave is split into 2^kSubBits equal
// sub-buckets, so a bucket spans at most 1/16 of its value range.
constexpr int kSubBits = 4;
constexpr std::uint32_t kSubCount = 1u << kSubBits;
constexpr std::uint32_t kBucketCount =
    ((64 - kSubBits) << kSubBits) + kSubCount;  // ids for msb 4..63 + exacts

std::uint32_t bucket_of(std::uint64_t v) {
  if (v < kSubCount) return static_cast<std::uint32_t>(v);
  int msb = 63 - std::countl_zero(v);
  std::uint32_t sub =
      static_cast<std::uint32_t>(v >> (msb - kSubBits)) & (kSubCount - 1);
  return ((static_cast<std::uint32_t>(msb) - kSubBits + 1) << kSubBits) | sub;
}

/// Inclusive [lo, hi] value range covered by bucket `idx`.
std::pair<std::uint64_t, std::uint64_t> bucket_bounds(std::uint32_t idx) {
  if (idx < kSubCount) return {idx, idx};
  int msb = static_cast<int>(idx >> kSubBits) + kSubBits - 1;
  std::uint64_t sub = idx & (kSubCount - 1);
  std::uint64_t width = std::uint64_t{1} << (msb - kSubBits);
  std::uint64_t lo = (std::uint64_t{1} << msb) + sub * width;
  return {lo, lo + width - 1};
}

Registry* g_attached = nullptr;

}  // namespace

Registry::Registry(std::size_t trace_capacity) : ring_(trace_capacity) {}

Registry::~Registry() {
  if (g_attached == this) g_attached = nullptr;
}

template <class V>
std::uint32_t Registry::Family<V>::id_of(std::string_view name) {
  auto [it, inserted] = ids.try_emplace(
      std::string(name), static_cast<std::uint32_t>(names.size()));
  if (inserted) {
    names.emplace_back(name);
    values.emplace_back();
  }
  return it->second;
}

template <class V>
const V* Registry::Family<V>::find(std::string_view name) const {
  auto it = ids.find(std::string(name));
  return it == ids.end() ? nullptr : &values[it->second];
}

Counter Registry::counter(std::string_view name) {
  return Counter(this, counters_.id_of(name));
}

Gauge Registry::gauge(std::string_view name) {
  return Gauge(this, gauges_.id_of(name));
}

Histogram Registry::histogram(std::string_view name) {
  return Histogram(this, hists_.id_of(name));
}

void Registry::Hist::record(std::uint64_t value) {
  if (buckets.empty()) buckets.resize(kBucketCount, 0);
  ++buckets[bucket_of(value)];
  ++count;
  sum += static_cast<double>(value);
  min = std::min(min, value);
  max = std::max(max, value);
}

HistogramSummary Registry::Hist::summary() const {
  HistogramSummary s;
  s.count = count;
  if (count == 0) return s;
  s.min = min;
  s.max = max;
  s.sum = sum;
  s.mean = sum / static_cast<double>(count);
  // The midpoint of the bucket holding the q-quantile's rank, clamped to
  // the exact [min, max].
  auto quantile = [this](double q) {
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count - 1) + 0.5);
    std::uint64_t cum = 0;
    for (std::uint32_t i = 0; i < buckets.size(); ++i) {
      cum += buckets[i];
      if (cum > rank) {
        auto [lo, hi] = bucket_bounds(i);
        double mid = (static_cast<double>(lo) + static_cast<double>(hi)) / 2;
        return std::clamp(mid, static_cast<double>(min),
                          static_cast<double>(max));
      }
    }
    return static_cast<double>(max);
  };
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

void Counter::inc(std::uint64_t n) {
  if (reg_) reg_->counters_.values[id_] += n;
}

std::uint64_t Counter::value() const {
  return reg_ ? reg_->counters_.values[id_] : 0;
}

void Gauge::set(std::int64_t v) {
  if (reg_) reg_->gauges_.values[id_] = v;
}

void Gauge::set_max(std::int64_t v) {
  if (reg_ && v > reg_->gauges_.values[id_]) reg_->gauges_.values[id_] = v;
}

std::int64_t Gauge::value() const {
  return reg_ ? reg_->gauges_.values[id_] : 0;
}

void Histogram::record(std::uint64_t value) {
  if (reg_) reg_->hists_.values[id_].record(value);
}

void Registry::trace(const TraceEvent& event) {
  std::uint64_t idx = events_total_++;
  if (!ring_.empty()) ring_[idx % ring_.size()] = event;
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  for (std::size_t id = 0; id < counters_.values.size(); ++id)
    out.counters.emplace_back(counters_.names[id], counters_.values[id]);
  for (std::size_t id = 0; id < gauges_.values.size(); ++id)
    out.gauges.emplace_back(gauges_.names[id], gauges_.values[id]);
  for (std::size_t id = 0; id < hists_.values.size(); ++id)
    out.histograms.emplace_back(hists_.names[id],
                                hists_.values[id].summary());

  std::uint64_t kept = std::min<std::uint64_t>(events_total_, ring_.size());
  out.events_recorded = events_total_;
  out.events_dropped = events_total_ - kept;
  for (std::uint64_t i = events_total_ - kept; i < events_total_; ++i)
    out.events.push_back(ring_[i % ring_.size()]);
  return out;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const std::uint64_t* v = counters_.find(name);
  return v ? *v : 0;
}

std::int64_t Registry::gauge_value(std::string_view name) const {
  const std::int64_t* v = gauges_.find(name);
  return v ? *v : 0;
}

HistogramSummary Registry::histogram_summary(std::string_view name) const {
  const Hist* h = hists_.find(name);
  return h ? h->summary() : HistogramSummary{};
}

void attach(Registry* registry) { g_attached = registry; }

Registry* attached() { return g_attached; }

void trace_event(const TraceEvent& event) {
  if (g_attached) g_attached->trace(event);
}

std::string_view kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kTcamShift:
      return "tcam_shift";
    case EventKind::kAdmission:
      return "admission";
    case EventKind::kMigrationBatch:
      return "migration_batch";
    case EventKind::kPredictorSample:
      return "predictor_sample";
    case EventKind::kPartitionExpand:
      return "partition_expand";
    case EventKind::kFaultInjected:
      return "fault_injected";
    case EventKind::kRetry:
      return "retry";
    case EventKind::kReconcile:
      return "reconcile";
    case EventKind::kUpdatePhase:
      return "update_phase";
    case EventKind::kCacheOp:
      return "cache_op";
    case EventKind::kPolicyDecision:
      return "policy_decision";
  }
  return "unknown";
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
}

void append_num(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

// {"kind":<kind_name>,"t":<time>, then the kind's fields as
// docs/METRICS.md lists them.
void append_event(std::string& out, const TraceEvent& e) {
  char buf[192] = "";
  switch (e.kind) {
    case EventKind::kTcamShift:
      std::snprintf(buf, sizeof(buf),
                    ",\"slice\":%u,\"shifts\":%u,\"latency_ns\":%" PRId64,
                    e.arg, e.a, e.latency_ns);
      break;
    case EventKind::kAdmission:
      std::snprintf(buf, sizeof(buf), ",\"route\":%u", e.arg);
      break;
    case EventKind::kMigrationBatch:
      std::snprintf(buf, sizeof(buf),
                    ",\"rules\":%.0f,\"pieces\":%u,\"failures\":%u,"
                    "\"latency_ns\":%" PRId64,
                    e.x, e.a, e.b, e.latency_ns);
      break;
    case EventKind::kPredictorSample:
      std::snprintf(buf, sizeof(buf), ",\"forecast\":%.6g,\"actual\":%.6g",
                    e.x, e.y);
      break;
    case EventKind::kPartitionExpand:
      std::snprintf(buf, sizeof(buf), ",\"pieces\":%u,\"blockers\":%u", e.a,
                    e.b);
      break;
    case EventKind::kFaultInjected:
      std::snprintf(buf, sizeof(buf),
                    ",\"slice\":%u,\"fault\":%u,\"stall_ns\":%" PRId64, e.arg,
                    e.a, e.latency_ns);
      break;
    case EventKind::kRetry:
      std::snprintf(buf, sizeof(buf), ",\"slice\":%u,\"attempt\":%u", e.arg,
                    e.a);
      break;
    case EventKind::kReconcile:
      std::snprintf(buf, sizeof(buf),
                    ",\"rules\":%u,\"pieces\":%u,\"latency_ns\":%" PRId64,
                    e.a, e.b, e.latency_ns);
      break;
    case EventKind::kUpdatePhase:
      std::snprintf(buf, sizeof(buf),
                    ",\"phase\":%u,\"txn\":%" PRId64
                    ",\"segment\":%u,\"failed_ops\":%u",
                    e.arg, e.latency_ns, e.a, e.b);
      break;
    case EventKind::kCacheOp:
      std::snprintf(buf, sizeof(buf), ",\"op\":%u,\"rules\":%u,\"pins\":%u",
                    e.arg, e.a, e.b);
      break;
    case EventKind::kPolicyDecision:
      std::snprintf(buf, sizeof(buf),
                    ",\"action\":%u,\"occupancy\":%u,\"capacity\":%u", e.arg,
                    e.a, e.b);
      break;
  }
  out += "{\"kind\":\"";
  out += kind_name(e.kind);
  out += "\",\"t\":";
  out += std::to_string(e.time);
  out += buf;
  out += '}';
}

}  // namespace

std::string export_json(const Registry& registry) {
  Snapshot snap = registry.snapshot();
  std::string out;
  out.reserve(1024 + snap.events.size() * 96);
  out += "{\"schema_version\":1,\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) out += ',';
    out += '"';
    append_escaped(out, snap.counters[i].first);
    out += "\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, snap.counters[i].second);
    out += buf;
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) out += ',';
    out += '"';
    append_escaped(out, snap.gauges[i].first);
    out += "\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, snap.gauges[i].second);
    out += buf;
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    if (i) out += ',';
    const auto& [name, h] = snap.histograms[i];
    out += '"';
    append_escaped(out, name);
    out += "\":{\"count\":";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, h.count);
    out += buf;
    out += ",\"min\":";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, h.count ? h.min : 0);
    out += buf;
    out += ",\"max\":";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, h.max);
    out += buf;
    out += ",\"sum\":";
    append_num(out, h.sum);
    out += ",\"mean\":";
    append_num(out, h.mean);
    out += ",\"p50\":";
    append_num(out, h.p50);
    out += ",\"p95\":";
    append_num(out, h.p95);
    out += ",\"p99\":";
    append_num(out, h.p99);
    out += '}';
  }
  out += "},\"events\":{\"recorded\":";
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, snap.events_recorded);
    out += buf;
    out += ",\"dropped\":";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, snap.events_dropped);
    out += buf;
  }
  out += ",\"entries\":[";
  for (std::size_t i = 0; i < snap.events.size(); ++i) {
    if (i) out += ',';
    append_event(out, snap.events[i]);
  }
  out += "]}}";
  return out;
}

std::string export_json() {
  Registry* reg = attached();
  if (!reg) return "null";
  return export_json(*reg);
}

}  // namespace hermes::obs
