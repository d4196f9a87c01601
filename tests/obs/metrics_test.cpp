// Unit tests for the obs metrics registry: histogram quantile accuracy,
// exact and deterministic totals, registration order, trace-ring
// bookkeeping, gauges, attach/detach and JSON export.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace hermes::obs {
namespace {

TEST(ObsCounter, DetachedHandleIsNoOp) {
  Counter c;
  EXPECT_FALSE(c.attached());
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, CountsAndRereadsByName) {
  Registry reg;
  Counter a = reg.counter("x.a");
  a.inc();
  a.inc(4);
  // Re-registering the same name reaches the same metric.
  Counter again = reg.counter("x.a");
  again.inc(5);
  EXPECT_EQ(a.value(), 10u);
  EXPECT_EQ(reg.counter_value("x.a"), 10u);
  EXPECT_EQ(reg.counter_value("x.unknown"), 0u);
}

TEST(ObsGauge, SetAndRunningMax) {
  Registry reg;
  Gauge g = reg.gauge("g");
  g.set(5);
  g.set_max(3);  // lower: must not regress the value
  EXPECT_EQ(g.value(), 5);
  g.set_max(9);
  EXPECT_EQ(g.value(), 9);
  g.set(2);  // plain set always overwrites
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(reg.gauge_value("g"), 2);
}

// Quantiles of a known uniform distribution: the log-linear buckets (16
// sub-buckets per power of two) guarantee every estimate lands within one
// bucket width -- <= 6.25% -- of the true order statistic.
TEST(ObsHistogram, QuantilesOfKnownUniformDistribution) {
  Registry reg;
  Histogram h = reg.histogram("lat");
  std::vector<std::uint64_t> values(10000);
  for (std::uint64_t i = 0; i < values.size(); ++i) values[i] = i + 1;
  std::shuffle(values.begin(), values.end(), std::mt19937_64(7));
  for (std::uint64_t v : values) h.record(v);

  HistogramSummary s = reg.histogram_summary("lat");
  EXPECT_EQ(s.count, 10000u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 10000u);
  EXPECT_DOUBLE_EQ(s.sum, 50005000.0);
  EXPECT_DOUBLE_EQ(s.mean, 5000.5);
  EXPECT_NEAR(s.p50, 5000.0, 0.07 * 5000.0);
  EXPECT_NEAR(s.p95, 9500.0, 0.07 * 9500.0);
  EXPECT_NEAR(s.p99, 9900.0, 0.07 * 9900.0);
}

TEST(ObsHistogram, ConstantSeriesQuantilesAreExact) {
  Registry reg;
  Histogram h = reg.histogram("const");
  for (int i = 0; i < 50; ++i) h.record(777);
  HistogramSummary s = reg.histogram_summary("const");
  // Quantiles are clamped to [min, max], so a constant series is exact.
  EXPECT_DOUBLE_EQ(s.p50, 777.0);
  EXPECT_DOUBLE_EQ(s.p95, 777.0);
  EXPECT_DOUBLE_EQ(s.p99, 777.0);
  EXPECT_EQ(s.min, 777u);
  EXPECT_EQ(s.max, 777u);
}

TEST(ObsHistogram, ZeroAndLargeValues) {
  Registry reg;
  Histogram h = reg.histogram("edge");
  h.record(0);
  h.record(std::uint64_t{1} << 40);
  HistogramSummary s = reg.histogram_summary("edge");
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, std::uint64_t{1} << 40);
}

// Totals are exact, and a snapshot and an export are pure functions of
// the recorded state: two of each of an idle registry agree bit-for-bit.
TEST(ObsRegistry, ShardMergeIsExactAndDeterministic) {
  Registry reg;
  Counter c = reg.counter("records.count");
  Histogram h = reg.histogram("records.hist");
  constexpr int kRecords = 100000;
  for (int i = 0; i < kRecords; ++i) {
    c.inc();
    h.record(static_cast<std::uint64_t>(i) % 1000 + 1);
  }

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kRecords));
  HistogramSummary s = reg.histogram_summary("records.hist");
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, 100 * 500500.0);  // 100 passes over 1..1000

  Snapshot first = reg.snapshot();
  Snapshot second = reg.snapshot();
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.gauges, second.gauges);
  ASSERT_EQ(first.histograms.size(), second.histograms.size());
  for (std::size_t i = 0; i < first.histograms.size(); ++i) {
    EXPECT_EQ(first.histograms[i].first, second.histograms[i].first);
    EXPECT_DOUBLE_EQ(first.histograms[i].second.sum,
                     second.histograms[i].second.sum);
    EXPECT_EQ(first.histograms[i].second.count,
              second.histograms[i].second.count);
  }
  EXPECT_EQ(export_json(reg), export_json(reg));
}

TEST(ObsRegistry, LateRegisteredMetricsStartAtZeroInRegistrationOrder) {
  Registry reg;
  reg.counter("c.early").inc(3);
  reg.gauge("g.early").set(-4);
  reg.histogram("h.early").record(10);

  Counter c = reg.counter("c.late");
  Gauge g = reg.gauge("g.late");
  Histogram h = reg.histogram("h.late");
  Snapshot snap = reg.snapshot();
  using CounterRow = std::pair<std::string, std::uint64_t>;
  using GaugeRow = std::pair<std::string, std::int64_t>;
  EXPECT_EQ(snap.counters,
            (std::vector<CounterRow>{{"c.early", 3}, {"c.late", 0}}));
  EXPECT_EQ(snap.gauges,
            (std::vector<GaugeRow>{{"g.early", -4}, {"g.late", 0}}));
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].first, "h.early");
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
  EXPECT_EQ(snap.histograms[1].first, "h.late");
  EXPECT_EQ(snap.histograms[1].second.count, 0u);

  // The late metrics record on their own; the early ones are untouched.
  c.inc(2);
  g.set(7);
  h.record(20);
  h.record(30);
  EXPECT_EQ(reg.counter_value("c.early"), 3u);
  EXPECT_EQ(reg.counter_value("c.late"), 2u);
  EXPECT_EQ(reg.gauge_value("g.early"), -4);
  EXPECT_EQ(reg.gauge_value("g.late"), 7);
  EXPECT_EQ(reg.histogram_summary("h.early").count, 1u);
  EXPECT_EQ(reg.histogram_summary("h.late").count, 2u);
  EXPECT_EQ(reg.histogram_summary("h.late").min, 20u);
}

TEST(ObsRegistry, DestroyingTheAttachedRegistryDetachesIt) {
  ASSERT_EQ(attached(), nullptr);
  {
    Registry reg(/*trace_capacity=*/2);
    attach(&reg);
    ASSERT_EQ(attached(), &reg);
  }
  EXPECT_EQ(attached(), nullptr);
  trace_event(admission_event(1, 0));  // must not crash, goes nowhere
  EXPECT_FALSE(attached_counter("after.destroy").attached());
  EXPECT_EQ(export_json(), "null");
}

TEST(ObsTrace, RingKeepsNewestAndCountsDrops) {
  Registry reg(/*trace_capacity=*/8);
  EXPECT_EQ(reg.trace_capacity(), 8u);
  for (int i = 0; i < 20; ++i)
    reg.trace(tcam_shift_event(/*time=*/i, /*slice=*/1, /*shifts=*/i, 100));
  Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.events_recorded, 20u);
  EXPECT_EQ(snap.events_dropped, 12u);
  ASSERT_EQ(snap.events.size(), 8u);
  // Oldest-first slice of the survivors: events 12..19.
  for (std::size_t i = 0; i < snap.events.size(); ++i) {
    EXPECT_EQ(snap.events[i].kind, EventKind::kTcamShift);
    EXPECT_EQ(snap.events[i].time, static_cast<TimeNs>(12 + i));
  }
}

TEST(ObsTrace, ZeroCapacityDisablesRing) {
  Registry reg;  // trace_capacity defaults to 0
  reg.trace(admission_event(5, 2));
  Snapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.events_recorded, 1u);
  EXPECT_EQ(snap.events_dropped, 1u);
}

TEST(ObsExport, JsonCarriesCountersGaugesHistogramsAndEvents) {
  Registry reg(/*trace_capacity=*/4);
  reg.counter("c.total").inc(3);
  reg.gauge("g.level").set(-7);
  reg.histogram("h.ns").record(100);
  reg.trace(migration_batch_event(9, 5, 6, 1, 1234));

  std::string json = export_json(reg);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"c.total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"g.level\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"h.ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("migration_batch"), std::string::npos);
}

// Each kind exports under its own kind_name(), then its time and its
// fields; none falls back to "unknown".
TEST(ObsExport, EveryEventKindExportsItsOwnName) {
  Registry reg(/*trace_capacity=*/kEventKindCount);
  std::set<std::string> names;
  for (int k = 0; k < kEventKindCount; ++k) {
    TraceEvent e;
    e.kind = static_cast<EventKind>(k);
    e.time = 100 + k;
    reg.trace(e);
    names.insert(std::string(kind_name(e.kind)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kEventKindCount));
  EXPECT_EQ(names.count("unknown"), 0u);

  std::string json = export_json(reg);
  EXPECT_EQ(json.find("unknown"), std::string::npos);
  for (int k = 0; k < kEventKindCount; ++k) {
    std::string name(kind_name(static_cast<EventKind>(k)));
    std::string head =
        "{\"kind\":\"" + name + "\",\"t\":" + std::to_string(100 + k) + ",";
    EXPECT_NE(json.find(head), std::string::npos) << name;
  }

  // The fields of the three kinds that once exported as "unknown".
  Registry fields(/*trace_capacity=*/3);
  fields.trace(update_phase_event(7, kUpdateFlip, /*txn=*/42, /*a=*/3, 1));
  fields.trace(cache_op_event(8, kCachePromote, /*rules=*/5, /*aux=*/2));
  fields.trace(policy_decision_event(9, /*action=*/3, 40, 130));
  json = export_json(fields);
  EXPECT_NE(json.find("{\"kind\":\"update_phase\",\"t\":7,\"phase\":1,"
                      "\"txn\":42,\"segment\":3,\"failed_ops\":1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"kind\":\"cache_op\",\"t\":8,\"op\":0,"
                      "\"rules\":5,\"pins\":2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"kind\":\"policy_decision\",\"t\":9,"
                      "\"action\":3,\"occupancy\":40,\"capacity\":130}"),
            std::string::npos)
      << json;
}

TEST(ObsExport, DetachedProcessExportIsNull) {
  ASSERT_EQ(attached(), nullptr) << "tests must not leak an attached registry";
  EXPECT_EQ(export_json(), "null");
}

TEST(ObsAttach, AttachedFactoriesCaptureAndDetachRestoresNull) {
  ASSERT_EQ(attached(), nullptr);
  Registry reg(/*trace_capacity=*/2);
  attach(&reg);
  Counter c = attached_counter("att.count");
  c.inc(2);
  trace_event(admission_event(1, 0));
  attach(nullptr);

  // Handles keep pointing at the registry they captured.
  c.inc();
  EXPECT_EQ(reg.counter_value("att.count"), 3u);
  Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.events_recorded, 1u);

  // Detached again: factories hand out no-op handles.
  EXPECT_FALSE(attached_counter("att.other").attached());
  trace_event(admission_event(2, 0));  // must not crash, goes nowhere
  EXPECT_EQ(reg.snapshot().events_recorded, 1u);
}

}  // namespace
}  // namespace hermes::obs
