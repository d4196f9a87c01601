#include "fault/fault_plan.h"

#include <algorithm>
#include <cassert>

#include "net/splitmix.h"

namespace hermes::fault {

// Counter-based hashing instead of a stateful RNG: the draw for
// (seed, slice, draw#) is a pure function, so schedules replay
// bit-identically regardless of how calls interleave across slices.
using net::splitmix64;

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(std::move(config)) {
  assert(std::is_sorted(config_.resets.begin(), config_.resets.end()) &&
         "reset schedule must be ascending");
}

const SliceFaults& FaultPlan::faults_for(int slice) const {
  for (const auto& [idx, faults] : config_.slice_overrides)
    if (idx == slice) return faults;
  return config_.default_slice;
}

double FaultPlan::uniform(int slice, std::uint64_t salt) {
  auto s = static_cast<std::size_t>(slice);
  if (s >= draw_counters_.size()) draw_counters_.resize(s + 1, 0);
  std::uint64_t ctr = draw_counters_[s]++;
  std::uint64_t h = splitmix64(
      config_.seed ^ splitmix64(static_cast<std::uint64_t>(slice) ^ salt) ^
      splitmix64(ctr));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultPlan::fail_write(Time now, int slice) {
  const SliceFaults& f = faults_for(slice);
  if (f.write_failure_prob <= 0) return false;
  if (uniform(slice, /*salt=*/0x17A1) >= f.write_failure_prob) return false;
  ++write_failures_;
  obs_write_failures_.inc();
  obs::trace_event(obs::fault_injected_event(
      now, slice, obs::kFaultWriteFailure, /*stall_ns=*/0));
  return true;
}

Duration FaultPlan::stall(Time now, int slice) {
  const SliceFaults& f = faults_for(slice);
  if (!f.stalls_enabled()) return 0;
  double u = uniform(slice, /*salt=*/0x57A1);
  auto span = static_cast<double>(f.stall_max - f.stall_min);
  auto d = static_cast<Duration>(static_cast<double>(f.stall_min) + u * span);
  if (d <= 0) return 0;
  total_stall_ += d;
  obs_stall_ns_.record(static_cast<std::uint64_t>(d));
  obs::trace_event(
      obs::fault_injected_event(now, slice, obs::kFaultStall, d));
  return d;
}

int FaultPlan::consume_resets(Time now) {
  int fired = 0;
  while (reset_cursor_ < config_.resets.size() &&
         config_.resets[reset_cursor_] <= now) {
    last_reset_ = config_.resets[reset_cursor_++];
    ++fired;
    ++resets_fired_;
    obs_resets_.inc();
    obs::trace_event(obs::fault_injected_event(
        last_reset_, /*slice=*/0, obs::kFaultReset, /*stall_ns=*/0));
  }
  return fired;
}

std::optional<Time> FaultPlan::next_reset() const {
  if (reset_cursor_ >= config_.resets.size()) return std::nullopt;
  return config_.resets[reset_cursor_];
}

std::uint64_t FaultPlan::draws(int slice) const {
  auto s = static_cast<std::size_t>(slice);
  return s < draw_counters_.size() ? draw_counters_[s] : 0;
}

}  // namespace hermes::fault
