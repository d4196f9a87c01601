// Shared plumbing for the three workloads: options, the per-op latency
// log, the result record every workload fills, and small statistics
// helpers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "calib.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for the traced run's artifact.
  std::string out_dir = ".bench_out";
};

/// Host latency of every timed op, tagged with the calibration segment it
/// ran in, so each op is scaled by the samples nearest to it.
class OpLog {
 public:
  /// Allocates room for n ops and touches it, so the log is resident
  /// before a peak-RSS window opens and never counts as the program's.
  void reserve(std::size_t n) {
    ns_.resize(n);
    seg_.resize(n);
    ns_.clear();
    seg_.clear();
  }
  void add(std::int64_t ns, int segment) {
    ns_.push_back(static_cast<float>(ns));
    seg_.push_back(static_cast<std::uint32_t>(segment));
  }
  std::size_t size() const { return ns_.size(); }
  /// Calibrated latencies in µs (call after Meter::finish()).
  std::vector<double> calibrated_us(const Meter& meter) const;

 private:
  std::vector<float> ns_;
  std::vector<std::uint32_t> seg_;
};

/// Nearest-rank percentile of `v` (sorted in place), q in [0, 1].
double percentile(std::vector<double>& v, double q);
double percentile_sorted(const std::vector<double>& v, double q);

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value
};

/// What a workload hands back to main().
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (the untraced run) or per-layer metrics (the
  /// traced run), by name.
  std::map<std::string, Metric> metrics;
  /// Per-layer metrics, filled by the traced run only.
  std::map<std::string, Metric> layers;
  /// Workload-specific figures printed by name but not part of the
  /// result metrics (deterministic guards, run health, layer detail).
  std::map<std::string, Metric> report;
  /// Deterministic quantities folded into the run digest.
  std::vector<std::pair<std::string, std::uint64_t>> digest_counts;
  std::vector<std::pair<std::string, double>> digest_values;

  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples = 0) {
    metrics[name] = {value, unit, samples};
  }
  void detail(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples = 0) {
    report[name] = {value, unit, samples};
  }
  void layer(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples = 0) {
    layers[name] = {value, unit, samples};
  }
};

/// Everything one run shares across its phases. Not copyable or movable:
/// the meter holds a reference to the kernel beside it.
struct Context {
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  Options opt;
  RefKernel kernel;
  Meter meter{kernel};
  std::unique_ptr<Tracer> tracer;  ///< null in the untraced run
};

/// Peak memory the system under test adds over one window: VmHWM at
/// close() minus VmRSS at open(). A window opens once the inputs, the
/// oracle's expectations and the benchmark's buffers are resident and freed
/// heap has been handed back to the kernel, so all of them cancel out.
class RssWindow {
 public:
  /// Trims the heap, resets VmHWM to the current RSS and records it.
  void open();
  /// MB by which the high-water mark rose above the RSS at open().
  double close() const;

 private:
  double open_mb_ = 0;
};

/// Fills the run-health figures and the calibrated host-time metrics the
/// three workloads share: setup_s (median over the set-up repetitions),
/// ops_per_s, op latency percentiles, peak_rss_mb.
struct TimedSummary {
  std::vector<double> setup_s;     ///< calibrated, one per repetition
  std::vector<double> setup_raw_s;
  /// Segment ranges [first, last) of the timed phase.
  std::vector<std::pair<int, int>> timed;
  std::uint64_t ops = 0;
  /// RssWindow::close() of every window (one per set-up + timed phase).
  std::vector<double> peak_rss_mb;
};
void summarize(Context& ctx, const TimedSummary& t, const OpLog& log,
               Result& r);

/// Segment boundaries of one set-up repetition: construct, preload,
/// warm-up, first timed op.
struct SetupPhases {
  int construct = 0, preload = 0, warm = 0, end = 0;
};

struct ProbeTotals;

/// Per-layer metrics of the traced run, derived from the tracer's spans,
/// the probes and the set-up phases. Span times are wall-clock ns scaled
/// by the run's calibration factor; CPU shares are relative to the timed
/// phase's raw CPU time (kernel samples and probes excluded).
class LayerView {
 public:
  LayerView(Context& ctx, Result& r);
  double scale() const { return scale_; }

  /// <prefix>_p50 and <prefix>_p99 of span `span`, in µs.
  void span_percentiles(const std::string& span, const std::string& prefix);
  void span_share(const std::string& span, const std::string& name);
  void span_mean(const std::string& span, const std::string& name);
  void span_max(const std::string& span, const std::string& name);
  /// Mean of the checkpoint probes (lookup_engine.*, tcam_table.find_us,
  /// overlap_index.*, partition.call_us).
  void probes(const ProbeTotals& p);
  /// setup.construct_s / preload_s / warm_s, medians over repetitions.
  void setup(const std::vector<SetupPhases>& phases);

  /// The per-layer figures every workload reports under one name (part of
  /// the traced run's result metrics): latency and CPU share of the
  /// request calls, of the background ticks and of everything outside
  /// them, and the modeled TCAM channel load.
  struct Generic {
    std::vector<std::string> request_spans;
    std::string tick_span;
    /// Modeled TCAM channel busy time over modeled elapsed time (above 1
    /// when installs queue faster than virtual time advances).
    double asic_busy_ratio = 0;
  };
  void generic(const Generic& g);

 private:
  double span_total(const std::string& span) const;

  Context& ctx_;
  Result& r_;
  double scale_ = 1;
  double timed_ns_ = 0;
};

/// FNV-1a over the digest fields, printed as 16 hex digits.
std::string digest_of(const Result& r);

}  // namespace perfbench
