// Calibrated host time.
//
// Raw CPU time on a shared virtual machine drifts by tens of percent
// between runs (frequency, cache and memory-bandwidth contention from
// neighbours). The benchmark therefore interleaves a fixed reference
// kernel of its own through set-up and the timed phase, and expresses the
// workload's CPU time in units of that kernel: each stretch of workload
// CPU time is scaled by R0 / R, the kernel's nominal time over its time
// measured next to that stretch. A drift that slows the kernel and the
// workload alike cancels out.
//
// The kernel never touches program memory. It owns a private arena,
// flushes it from every cache level before each sample, and then runs a
// fixed open-addressing hash-map churn and a sort over it, so its speed
// does not depend on how much cache the program left it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// CPU time of the calling thread, in ns (a system call, ~0.4 µs).
double thread_cpu_ns();
/// Monotonic wall clock, in ns (vDSO, ~40 ns).
std::int64_t mono_ns();

class RefKernel {
 public:
  /// Nominal time of one sample, in ns: the median sample on the
  /// reference machine (see perfbench/README.md). Calibrated times are
  /// expressed in that machine's CPU time.
  static constexpr double kNominalNs = 2.7e6;

  RefKernel();

  /// Flushes the arena, runs the fixed work once and returns its thread
  /// CPU time in ns (flush excluded).
  double sample();

 private:
  void flush() const;

  std::vector<std::uint64_t> table_;
  std::vector<std::uint32_t> sorted_;
  std::uint64_t sink_ = 0;
};

/// Accounts a workload's CPU time in segments separated by kernel samples
/// and converts it to calibrated time at the end of the run.
///
/// A segment is the workload CPU time between two checkpoints; sample k
/// is taken at the checkpoint that closes segment k. Segment k is scaled
/// by the median of the samples within `kWindow` checkpoints of it, so a
/// single disturbed sample does not move the scale while a drift over
/// the run is followed.
class Meter {
 public:
  static constexpr int kWindow = 3;

  explicit Meter(RefKernel& kernel);

  /// Starts accounting (the first segment opens here).
  void start();
  /// Closes the current segment, takes one kernel sample (excluded from
  /// the workload's time) and opens the next segment. Returns the index
  /// of the segment it opened.
  int checkpoint();
  /// Index of the open segment; per-op latencies are tagged with it.
  int segment() const { return static_cast<int>(seg_cpu_.size()); }

  /// Excludes [pause, resume) from the workload's time (trace probes).
  void pause();
  void resume();

  /// Must be called once after the last checkpoint. The open segment is
  /// dropped (a phase always ends with a checkpoint).
  void finish();

  /// Scale R0 / R for segment `s` (valid after finish()).
  double scale(int s) const { return scale_[static_cast<std::size_t>(s)]; }
  /// Calibrated and raw CPU seconds of segments [first, last).
  double calibrated_s(int first, int last) const;
  double raw_s(int first, int last) const;

  /// Wall and thread CPU time from start() to finish(), everything
  /// included (run health: their ratio falls below 1 when the run was
  /// descheduled).
  double span_wall_s() const { return span_wall_ns_ * 1e-9; }
  double span_cpu_s() const { return span_cpu_ns_ * 1e-9; }

  int samples() const { return static_cast<int>(samples_.size()); }
  double median_sample_ns() const;
  double kernel_cpu_s() const { return kernel_cpu_ns_ * 1e-9; }

 private:
  RefKernel& kernel_;
  std::vector<double> seg_cpu_;  ///< closed segments, workload CPU ns
  std::vector<double> samples_;  ///< kernel CPU ns, one per closed segment
  std::vector<double> scale_;
  double seg_start_ = 0;
  double paused_at_ = 0;
  double paused_ns_ = 0;
  double kernel_cpu_ns_ = 0;
  std::int64_t start_wall_ = 0;
  double start_cpu_ = 0;
  double span_wall_ns_ = 0;
  double span_cpu_ns_ = 0;
};

}  // namespace perfbench
