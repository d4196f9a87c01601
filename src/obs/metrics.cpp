#include "obs/metrics.h"

#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <unordered_map>

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

// Generation stamp for the thread-local shard cache: destroying any
// registry bumps it, invalidating every thread's cached (registry ->
// shard) pairs so a new registry reusing the address can never alias a
// dead one's shard.
std::atomic<std::uint64_t> g_generation{1};

std::atomic<Registry*> g_attached{nullptr};

}  // namespace

struct HistShardData {
  std::vector<std::uint64_t> buckets;  // lazily sized to kBucketCount
  std::uint64_t count = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;
  double sum = 0;
};

struct Registry::Shard {
  std::vector<std::uint64_t> counters;
  std::vector<HistShardData> hists;
};

struct Registry::Impl {
  mutable std::mutex mutex;  // registration, shard list growth, snapshot
  std::unordered_map<std::string, std::uint32_t> counter_ids;
  std::vector<std::string> counter_names;
  std::unordered_map<std::string, std::uint32_t> gauge_ids;
  std::vector<std::string> gauge_names;
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> gauges;
  std::unordered_map<std::string, std::uint32_t> hist_ids;
  std::vector<std::string> hist_names;
  std::vector<std::unique_ptr<Shard>> shards;

  std::vector<TraceEvent> ring;
  std::atomic<std::uint64_t> events_total{0};
};

namespace {

struct TlsShardCache {
  std::uint64_t generation = 0;
  // Tiny: one entry per live registry this thread records into
  // (typically just the attached registry).
  // Stored untyped because Registry::Shard is private.
  std::vector<std::pair<const void*, void*>> entries;
};

thread_local TlsShardCache t_shard_cache;

}  // namespace

Registry::Registry(std::size_t trace_capacity)
    : impl_(std::make_unique<Impl>()), trace_capacity_(trace_capacity) {
  impl_->ring.resize(trace_capacity_);
}

Registry::~Registry() {
  // Invalidate every thread's cached shard pointers into this registry.
  g_generation.fetch_add(1, std::memory_order_relaxed);
  if (g_attached.load(std::memory_order_relaxed) == this)
    g_attached.store(nullptr, std::memory_order_relaxed);
}

Registry::Shard& Registry::local_shard() {
  TlsShardCache& cache = t_shard_cache;
  if (cache.generation == g_generation.load(std::memory_order_relaxed)) {
    for (auto& [reg, shard] : cache.entries)
      if (reg == this) return *static_cast<Shard*>(shard);
  }
  return local_shard_slow();
}

Registry::Shard& Registry::local_shard_slow() {
  TlsShardCache& cache = t_shard_cache;
  std::uint64_t generation = g_generation.load(std::memory_order_relaxed);
  if (cache.generation != generation) {
    cache.entries.clear();
    cache.generation = generation;
  }
  Shard* shard;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shards.push_back(std::make_unique<Shard>());
    shard = impl_->shards.back().get();
    shard->counters.resize(impl_->counter_names.size(), 0);
    shard->hists.resize(impl_->hist_names.size());
  }
  cache.entries.emplace_back(this, shard);
  return *shard;
}

Counter Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto [it, inserted] =
      impl_->counter_ids.try_emplace(std::string(name),
                                     static_cast<std::uint32_t>(
                                         impl_->counter_names.size()));
  if (inserted) impl_->counter_names.emplace_back(name);
  return Counter(this, it->second);
}

Gauge Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto [it, inserted] = impl_->gauge_ids.try_emplace(
      std::string(name),
      static_cast<std::uint32_t>(impl_->gauge_names.size()));
  if (inserted) {
    impl_->gauge_names.emplace_back(name);
    impl_->gauges.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
  }
  return Gauge(this, it->second);
}

Histogram Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto [it, inserted] = impl_->hist_ids.try_emplace(
      std::string(name),
      static_cast<std::uint32_t>(impl_->hist_names.size()));
  if (inserted) impl_->hist_names.emplace_back(name);
  return Histogram(this, it->second);
}

void Counter::inc(std::uint64_t n) {
  if (!reg_) return;
  Registry::Shard& shard = reg_->local_shard();
  if (id_ >= shard.counters.size()) {
    // Metric registered after this thread's shard was created: grow under
    // the registry mutex so a concurrent snapshot never sees the move.
    std::lock_guard<std::mutex> lock(reg_->impl_->mutex);
    shard.counters.resize(id_ + 1, 0);
  }
  shard.counters[id_] += n;
}

std::uint64_t Counter::value() const {
  if (!reg_) return 0;
  std::lock_guard<std::mutex> lock(reg_->impl_->mutex);
  std::uint64_t total = 0;
  for (const auto& shard : reg_->impl_->shards)
    if (id_ < shard->counters.size()) total += shard->counters[id_];
  return total;
}

void Gauge::set(std::int64_t v) {
  if (!reg_) return;
  reg_->impl_->gauges[id_]->store(v, std::memory_order_relaxed);
}

void Gauge::set_max(std::int64_t v) {
  if (!reg_) return;
  std::atomic<std::int64_t>& cell = *reg_->impl_->gauges[id_];
  std::int64_t cur = cell.load(std::memory_order_relaxed);
  while (v > cur &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::int64_t Gauge::value() const {
  if (!reg_) return 0;
  return reg_->impl_->gauges[id_]->load(std::memory_order_relaxed);
}

void Histogram::record(std::uint64_t value) {
  if (!reg_) return;
  Registry::Shard& shard = reg_->local_shard();
  if (id_ >= shard.hists.size()) {
    std::lock_guard<std::mutex> lock(reg_->impl_->mutex);
    shard.hists.resize(id_ + 1);
  }
  HistShardData& h = shard.hists[id_];
  if (h.buckets.empty()) {
    std::lock_guard<std::mutex> lock(reg_->impl_->mutex);
    h.buckets.resize(kBucketCount, 0);
  }
  ++h.buckets[bucket_of(value)];
  ++h.count;
  h.sum += static_cast<double>(value);
  if (value < h.min) h.min = value;
  if (value > h.max) h.max = value;
}

void Registry::trace(const TraceEvent& event) {
  std::uint64_t idx =
      impl_->events_total.fetch_add(1, std::memory_order_relaxed);
  if (trace_capacity_ == 0) return;
  impl_->ring[idx % trace_capacity_] = event;
}

namespace {

double bucket_quantile(const std::vector<std::uint64_t>& buckets,
                       std::uint64_t count, double q, std::uint64_t min,
                       std::uint64_t max) {
  if (count == 0) return 0;
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count - 1) + 0.5);
  std::uint64_t cum = 0;
  for (std::uint32_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    cum += buckets[i];
    if (cum > rank) {
      auto [lo, hi] = bucket_bounds(i);
      double mid = (static_cast<double>(lo) + static_cast<double>(hi)) / 2;
      if (mid < static_cast<double>(min)) mid = static_cast<double>(min);
      if (mid > static_cast<double>(max)) mid = static_cast<double>(max);
      return mid;
    }
  }
  return static_cast<double>(max);
}

HistogramSummary summarize_hist(const std::vector<std::uint64_t>& buckets,
                                std::uint64_t count, std::uint64_t min,
                                std::uint64_t max, double sum) {
  HistogramSummary s;
  s.count = count;
  if (count == 0) return s;
  s.min = min;
  s.max = max;
  s.sum = sum;
  s.mean = sum / static_cast<double>(count);
  s.p50 = bucket_quantile(buckets, count, 0.50, min, max);
  s.p95 = bucket_quantile(buckets, count, 0.95, min, max);
  s.p99 = bucket_quantile(buckets, count, 0.99, min, max);
  return s;
}

}  // namespace

Snapshot Registry::snapshot() const {
  Snapshot out;
  std::lock_guard<std::mutex> lock(impl_->mutex);

  out.counters.reserve(impl_->counter_names.size());
  for (std::size_t id = 0; id < impl_->counter_names.size(); ++id) {
    std::uint64_t total = 0;
    for (const auto& shard : impl_->shards)
      if (id < shard->counters.size()) total += shard->counters[id];
    out.counters.emplace_back(impl_->counter_names[id], total);
  }

  out.gauges.reserve(impl_->gauge_names.size());
  for (std::size_t id = 0; id < impl_->gauge_names.size(); ++id)
    out.gauges.emplace_back(
        impl_->gauge_names[id],
        impl_->gauges[id]->load(std::memory_order_relaxed));

  out.histograms.reserve(impl_->hist_names.size());
  std::vector<std::uint64_t> merged(kBucketCount, 0);
  for (std::size_t id = 0; id < impl_->hist_names.size(); ++id) {
    std::fill(merged.begin(), merged.end(), 0);
    std::uint64_t count = 0;
    std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max = 0;
    double sum = 0;
    for (const auto& shard : impl_->shards) {
      if (id >= shard->hists.size()) continue;
      const HistShardData& h = shard->hists[id];
      if (h.count == 0) continue;
      count += h.count;
      sum += h.sum;
      if (h.min < min) min = h.min;
      if (h.max > max) max = h.max;
      for (std::size_t b = 0; b < h.buckets.size(); ++b)
        merged[b] += h.buckets[b];
    }
    out.histograms.emplace_back(impl_->hist_names[id],
                                summarize_hist(merged, count, min, max, sum));
  }

  std::uint64_t total = impl_->events_total.load(std::memory_order_relaxed);
  out.events_recorded = total;
  std::uint64_t kept = trace_capacity_ == 0
                           ? 0
                           : std::min<std::uint64_t>(total, trace_capacity_);
  out.events_dropped = total - kept;
  out.events.reserve(static_cast<std::size_t>(kept));
  std::uint64_t start = total > trace_capacity_ && trace_capacity_ > 0
                            ? total % trace_capacity_
                            : 0;
  for (std::uint64_t i = 0; i < kept; ++i)
    out.events.push_back(
        impl_->ring[static_cast<std::size_t>((start + i) % trace_capacity_)]);
  return out;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->counter_ids.find(std::string(name));
  if (it == impl_->counter_ids.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& shard : impl_->shards)
    if (it->second < shard->counters.size())
      total += shard->counters[it->second];
  return total;
}

std::int64_t Registry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->gauge_ids.find(std::string(name));
  if (it == impl_->gauge_ids.end()) return 0;
  return impl_->gauges[it->second]->load(std::memory_order_relaxed);
}

HistogramSummary Registry::histogram_summary(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->hist_ids.find(std::string(name));
  if (it == impl_->hist_ids.end()) return {};
  std::vector<std::uint64_t> merged(kBucketCount, 0);
  std::uint64_t count = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;
  double sum = 0;
  for (const auto& shard : impl_->shards) {
    if (it->second >= shard->hists.size()) continue;
    const HistShardData& h = shard->hists[it->second];
    if (h.count == 0) continue;
    count += h.count;
    sum += h.sum;
    if (h.min < min) min = h.min;
    if (h.max > max) max = h.max;
    for (std::size_t b = 0; b < h.buckets.size(); ++b)
      merged[b] += h.buckets[b];
  }
  return summarize_hist(merged, count, min, max, sum);
}

void attach(Registry* registry) {
  g_attached.store(registry, std::memory_order_relaxed);
}

Registry* attached() {
  return g_attached.load(std::memory_order_relaxed);
}

void trace_event(const TraceEvent& event) {
  if (Registry* reg = attached()) reg->trace(event);
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

void append_event(std::string& out, const TraceEvent& e) {
  char buf[256];
  switch (e.kind) {
    case EventKind::kTcamShift:
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"tcam_shift\",\"t\":%" PRId64
                    ",\"slice\":%u,\"shifts\":%u,\"latency_ns\":%" PRId64
                    "}",
                    e.time, e.arg, e.a, e.latency_ns);
      break;
    case EventKind::kAdmission:
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"admission\",\"t\":%" PRId64 ",\"route\":%u}",
                    e.time, e.arg);
      break;
    case EventKind::kMigrationBatch:
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"migration_batch\",\"t\":%" PRId64
                    ",\"rules\":%.0f,\"pieces\":%u,\"failures\":%u,"
                    "\"latency_ns\":%" PRId64 "}",
                    e.time, e.x, e.a, e.b, e.latency_ns);
      break;
    case EventKind::kPredictorSample:
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"predictor_sample\",\"t\":%" PRId64
                    ",\"forecast\":%.6g,\"actual\":%.6g}",
                    e.time, e.x, e.y);
      break;
    case EventKind::kPartitionExpand:
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"partition_expand\",\"t\":%" PRId64
                    ",\"pieces\":%u,\"blockers\":%u}",
                    e.time, e.a, e.b);
      break;
    case EventKind::kFaultInjected:
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"fault_injected\",\"t\":%" PRId64
                    ",\"slice\":%u,\"fault\":%u,\"stall_ns\":%" PRId64 "}",
                    e.time, e.arg, e.a, e.latency_ns);
      break;
    case EventKind::kRetry:
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"retry\",\"t\":%" PRId64
                    ",\"slice\":%u,\"attempt\":%u}",
                    e.time, e.arg, e.a);
      break;
    case EventKind::kReconcile:
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"reconcile\",\"t\":%" PRId64
                    ",\"rules\":%u,\"pieces\":%u,\"latency_ns\":%" PRId64
                    "}",
                    e.time, e.a, e.b, e.latency_ns);
      break;
    default:
      std::snprintf(buf, sizeof(buf), "{\"kind\":\"unknown\"}");
      break;
  }
  out += buf;
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
