#include "calib.h"

#include <cpuid.h>
#include <immintrin.h>
#include <time.h>

#include <algorithm>

namespace perfbench {

namespace {

// Arena: a 4 MiB hash table (twice the per-core L2, a sliver of the LLC)
// and a 64 KiB sort buffer.
constexpr std::size_t kTableSlots = std::size_t{1} << 19;
constexpr std::size_t kLiveKeys = std::size_t{1} << 15;  // load factor 1/4
constexpr int kChurnSteps = 40000;
constexpr std::size_t kSortWords = std::size_t{1} << 14;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

std::size_t slot_of(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 45) &
         (kTableSlots - 1);
}

__attribute__((target("clflushopt"))) void flush_lines_opt(const char* p,
                                                           std::size_t bytes) {
  for (std::size_t off = 0; off < bytes; off += 64)
    _mm_clflushopt(const_cast<char*>(p + off));
  _mm_sfence();
}

void flush_lines(const char* p, std::size_t bytes) {
  for (std::size_t off = 0; off < bytes; off += 64) _mm_clflush(p + off);
  _mm_mfence();
}

bool has_clflushopt() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & (1u << 23)) != 0;
}

}  // namespace

double thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

std::int64_t mono_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

RefKernel::RefKernel() : table_(kTableSlots), sorted_(kSortWords) {}

void RefKernel::flush() const {
  // clflushopt is ~25x cheaper than clflush for a dirty arena.
  static const bool opt = has_clflushopt();
  auto range = [](const void* p, std::size_t bytes) {
    const char* c = static_cast<const char*>(p);
    if (opt)
      flush_lines_opt(c, bytes);
    else
      flush_lines(c, bytes);
  };
  range(table_.data(), table_.size() * sizeof(table_[0]));
  range(sorted_.data(), sorted_.size() * sizeof(sorted_[0]));
}

double RefKernel::sample() {
  flush();
  const double t0 = thread_cpu_ns();

  // Hash-map churn: linear probing with backward-shift deletion; keep
  // kLiveKeys keys live, inserting a fresh key and erasing the oldest.
  std::fill(table_.begin(), table_.end(), 0);
  std::uint64_t ins = 0x2545F4914F6CDD1Dull;
  std::uint64_t del = ins;
  std::uint64_t found = 0;
  for (int step = 0; step < kChurnSteps; ++step) {
    std::uint64_t key = xorshift(ins);
    std::size_t i = slot_of(key);
    while (table_[i] != 0) i = (i + 1) & (kTableSlots - 1);
    table_[i] = key;
    if (static_cast<std::size_t>(step) < kLiveKeys) continue;
    std::uint64_t old = xorshift(del);
    std::size_t j = slot_of(old);
    while (table_[j] != old) j = (j + 1) & (kTableSlots - 1);
    ++found;
    // Backward-shift deletion keeps probe chains gap-free.
    std::size_t hole = j;
    std::size_t k = (j + 1) & (kTableSlots - 1);
    while (table_[k] != 0) {
      std::size_t home = slot_of(table_[k]);
      if (((k - home) & (kTableSlots - 1)) >=
          ((k - hole) & (kTableSlots - 1))) {
        table_[hole] = table_[k];
        hole = k;
      }
      k = (k + 1) & (kTableSlots - 1);
    }
    table_[hole] = 0;
  }

  // Sort a fixed pseudo-random buffer.
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t& w : sorted_) w = static_cast<std::uint32_t>(xorshift(s));
  std::sort(sorted_.begin(), sorted_.end());

  sink_ += found + sorted_[kSortWords / 2];
  return thread_cpu_ns() - t0;
}

Meter::Meter(RefKernel& kernel) : kernel_(kernel) {}

void Meter::start() {
  seg_cpu_.clear();
  samples_.clear();
  scale_.clear();
  paused_ns_ = 0;
  kernel_cpu_ns_ = 0;
  start_wall_ = mono_ns();
  start_cpu_ = thread_cpu_ns();
  seg_start_ = start_cpu_;
}

int Meter::checkpoint() {
  const double now = thread_cpu_ns();
  seg_cpu_.push_back(now - seg_start_ - paused_ns_);
  paused_ns_ = 0;
  const double k = kernel_.sample();
  samples_.push_back(k);
  seg_start_ = thread_cpu_ns();
  kernel_cpu_ns_ += seg_start_ - now;
  return segment();
}

void Meter::pause() { paused_at_ = thread_cpu_ns(); }

void Meter::resume() { paused_ns_ += thread_cpu_ns() - paused_at_; }

void Meter::finish() {
  span_wall_ns_ = static_cast<double>(mono_ns() - start_wall_);
  span_cpu_ns_ = thread_cpu_ns() - start_cpu_;
  const std::size_t n = samples_.size();
  scale_.assign(n, 1.0);
  std::vector<double> window;
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t lo = s >= static_cast<std::size_t>(kWindow) ? s - kWindow : 0;
    std::size_t hi = std::min(n, s + kWindow + 1);
    window.assign(samples_.begin() + static_cast<std::ptrdiff_t>(lo),
                  samples_.begin() + static_cast<std::ptrdiff_t>(hi));
    std::nth_element(window.begin(),
                     window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2),
                     window.end());
    scale_[s] = RefKernel::kNominalNs / window[window.size() / 2];
  }
}

double Meter::calibrated_s(int first, int last) const {
  double total = 0;
  for (int s = first; s < last; ++s)
    total += seg_cpu_[static_cast<std::size_t>(s)] * scale(s);
  return total * 1e-9;
}

double Meter::raw_s(int first, int last) const {
  double total = 0;
  for (int s = first; s < last; ++s)
    total += seg_cpu_[static_cast<std::size_t>(s)];
  return total * 1e-9;
}

double Meter::median_sample_ns() const {
  if (samples_.empty()) return 0;
  std::vector<double> v = samples_;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

}  // namespace perfbench
