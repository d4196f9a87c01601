#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <string>

#include "probes.h"

namespace perfbench {

std::vector<double> OpLog::calibrated_us(const Meter& meter) const {
  std::vector<double> out(ns_.size());
  for (std::size_t i = 0; i < ns_.size(); ++i)
    out[i] = static_cast<double>(ns_[i]) * meter.scale(static_cast<int>(seg_[i])) *
             1e-3;
  return out;
}

double percentile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = k == 0 ? 0 : k - 1;
  return v[std::min(k, v.size() - 1)];
}

double percentile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, q);
}

namespace {

/// A "Vm...:" line of /proc/self/status, in MB.
double status_mb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0)
      return std::stod(line.substr(field.size())) / 1024.0;  // kB -> MB
  }
  return 0;
}

}  // namespace

void RssWindow::open() {
#ifdef __GLIBC__
  // Hand freed heap back, so memory the previous window's system under
  // test left in the allocator is neither counted nor silently reused.
  malloc_trim(0);
#endif
  // "5" resets the VmHWM high-water mark to the current RSS (Linux >= 4.0).
  {
    std::ofstream f("/proc/self/clear_refs");
    if (f) f << "5";
  }
  open_mb_ = status_mb("VmRSS:");
}

double RssWindow::close() const { return status_mb("VmHWM:") - open_mb_; }

void summarize(Context& ctx, const TimedSummary& t, const OpLog& log,
               Result& r) {
  Meter& m = ctx.meter;
  std::vector<double> setup = t.setup_s;
  const double setup_med = percentile(setup, 0.5);
  std::vector<double> setup_raw = t.setup_raw_s;
  const double setup_raw_med = percentile(setup_raw, 0.5);

  double cal = 0, raw = 0;
  for (const auto& [first, last] : t.timed) {
    cal += m.calibrated_s(first, last);
    raw += m.raw_s(first, last);
  }

  r.metric("setup_s", setup_med, "s", setup.size());
  r.metric("ops_per_s", static_cast<double>(t.ops) / cal, "ops/s", t.ops);

  std::vector<double> lat = log.calibrated_us(m);
  std::sort(lat.begin(), lat.end());
  r.metric("op_p50_us", percentile_sorted(lat, 0.5), "us", lat.size());
  r.metric("op_p99_us", percentile_sorted(lat, 0.99), "us", lat.size());
  r.metric("op_p999_us", percentile_sorted(lat, 0.999), "us", lat.size());

  r.metric("peak_rss_mb", *std::max_element(t.peak_rss_mb.begin(), t.peak_rss_mb.end()),
           "MB", t.peak_rss_mb.size());

  r.detail("run.raw_cpu_s", raw, "s");
  r.detail("run.calibrated_cpu_s", cal, "s");
  r.detail("run.wall_s", m.span_wall_s(), "s");
  r.detail("run.cpu_wall_ratio",
           m.span_wall_s() > 0 ? m.span_cpu_s() / m.span_wall_s() : 0, "ratio");
  r.detail("run.calibration_factor", raw > 0 ? cal / raw : 0, "ratio");
  r.detail("run.raw_ops_per_s", static_cast<double>(t.ops) / raw, "ops/s");
  r.detail("run.raw_setup_s", setup_raw_med, "s", setup_raw.size());
  r.detail("calib.samples", m.samples(), "count");
  r.detail("calib.median_sample_ms", m.median_sample_ns() * 1e-6, "ms",
           static_cast<std::uint64_t>(m.samples()));
  r.detail("calib.kernel_cpu_s", m.kernel_cpu_s(), "s");
  r.detail("calib.nominal_ms", RefKernel::kNominalNs * 1e-6, "ms");
}

LayerView::LayerView(Context& ctx, Result& r) : ctx_(ctx), r_(r) {
  scale_ = r.report["run.calibration_factor"].value;
  timed_ns_ = r.report["run.raw_cpu_s"].value * 1e9;
  r.layer("run.calibration_factor", scale_, "ratio");
  r.layer("run.raw_cpu_s", r.report["run.raw_cpu_s"].value, "s");
  r.layer("run.wall_s", r.report["run.wall_s"].value, "s");
  r.layer("run.cpu_wall_ratio", r.report["run.cpu_wall_ratio"].value, "ratio");
}

double LayerView::span_total(const std::string& span) const {
  return ctx_.tracer->stat(span).total_ns;
}

void LayerView::span_percentiles(const std::string& span, const std::string& prefix) {
  const auto n = ctx_.tracer->stat(span).count;
  r_.layer(prefix + "_p50", ctx_.tracer->percentile_ns(span, 0.5) * 1e-3 * scale_, "us", n);
  r_.layer(prefix + "_p99", ctx_.tracer->percentile_ns(span, 0.99) * 1e-3 * scale_, "us", n);
}

void LayerView::span_share(const std::string& span, const std::string& name) {
  r_.layer(name, timed_ns_ > 0 ? span_total(span) / timed_ns_ : 0, "fraction");
}

void LayerView::span_mean(const std::string& span, const std::string& name) {
  const Tracer::Stat& st = ctx_.tracer->stat(span);
  r_.layer(name, st.count ? st.total_ns / static_cast<double>(st.count) * 1e-3 * scale_ : 0,
           "us", st.count);
}

void LayerView::span_max(const std::string& span, const std::string& name) {
  r_.layer(name, ctx_.tracer->stat(span).max_ns * 1e-3 * scale_, "us");
}

void LayerView::probes(const ProbeTotals& p) {
  const auto n = static_cast<std::uint64_t>(p.probes);
  r_.layer("lookup_engine.lookup_ns", p.mean(p.lookup_ns) * scale_, "ns", n);
  r_.layer("lookup_engine.buckets_probed_mean", p.mean(p.buckets_probed), "count", n);
  r_.layer("tcam_table.find_us", p.mean(p.find_us) * scale_, "us", n);
  r_.layer("overlap_index.closure_query_us", p.mean(p.closure_query_us) * scale_, "us", n);
  r_.layer("overlap_index.closure_query_rules", p.mean(p.closure_rules), "count", n);
  r_.layer("partition.call_us", p.mean(p.partition_us) * scale_, "us", n);
}

void LayerView::setup(const std::vector<SetupPhases>& phases) {
  const Meter& m = ctx_.meter;
  std::vector<double> c, p, w;
  for (const SetupPhases& ph : phases) {
    c.push_back(m.calibrated_s(ph.construct, ph.preload));
    p.push_back(m.calibrated_s(ph.preload, ph.warm));
    w.push_back(m.calibrated_s(ph.warm, ph.end));
  }
  r_.layer("setup.construct_s", percentile(c, 0.5), "s", c.size());
  r_.layer("setup.preload_s", percentile(p, 0.5), "s", p.size());
  r_.layer("setup.warm_s", percentile(w, 0.5), "s", w.size());
}

void LayerView::generic(const Generic& g) {
  std::vector<double> lat;
  double request_ns = 0;
  for (const std::string& span : g.request_spans) {
    const Tracer::Stat& st = ctx_.tracer->stat(span);
    request_ns += st.total_ns;
    for (float v : st.durations) lat.push_back(static_cast<double>(v) * 1e-3 * scale_);
  }
  std::sort(lat.begin(), lat.end());
  r_.layer("request.us_p50", percentile_sorted(lat, 0.5), "us", lat.size());
  r_.layer("request.us_p99", percentile_sorted(lat, 0.99), "us", lat.size());
  const double tick_ns = span_total(g.tick_span);
  const double share_req = timed_ns_ > 0 ? request_ns / timed_ns_ : 0;
  const double share_tick = timed_ns_ > 0 ? tick_ns / timed_ns_ : 0;
  r_.layer("request.cpu_share", share_req, "fraction");
  r_.layer("tick.cpu_share", share_tick, "fraction");
  r_.layer("outside.cpu_share", 1.0 - share_req - share_tick, "fraction");
  const Tracer::Stat& t = ctx_.tracer->stat(g.tick_span);
  r_.layer("tick.us_mean", t.count ? t.total_ns / static_cast<double>(t.count) * 1e-3 * scale_ : 0,
           "us", t.count);
  r_.layer("tick.us_max", t.max_ns * 1e-3 * scale_, "us", t.count);
  r_.layer("asic.busy_ratio", g.asic_busy_ratio, "ratio");
}

std::string digest_of(const Result& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const unsigned char* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& [name, v] : r.digest_counts) {
    mix(name.data(), name.size());
    mix(&v, sizeof v);
  }
  for (const auto& [name, v] : r.digest_values) {
    mix(name.data(), name.size());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    mix(buf, std::strlen(buf));
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

}  // namespace perfbench
