#include "policy/q_policy.h"

#include <algorithm>
#include <cassert>

#include "net/splitmix.h"

namespace hermes::policy {

// Counter-based: the policy never holds generator state beyond the draw
// index, so a replay from the same seed is trivially bit-identical.
using net::splitmix64;

QPolicy::QPolicy(QPolicyConfig config)
    : config_(config),
      state_count_(config.occupancy_bins * 3 * 3),
      table_(static_cast<std::size_t>(state_count_) * kActions, 0.0),
      visits_(table_.size(), 0),
      epsilon_(config.epsilon0) {
  assert(config_.occupancy_bins > 0);
  for (int s = 0; s < state_count_; ++s)
    table_[static_cast<std::size_t>(s) * kActions +
           static_cast<int>(core::MigrationAction::kMigrateLarge)] =
        config_.migrate_large_prior;
}

double QPolicy::draw01() {
  std::uint64_t h = splitmix64(config_.seed ^ splitmix64(draw_index_++));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

int QPolicy::encode(const core::PolicyState& state) const {
  int occ_bin = 0;
  if (state.shadow_capacity > 0) {
    occ_bin = std::min(
        config_.occupancy_bins - 1,
        state.shadow_occupancy * config_.occupancy_bins /
            state.shadow_capacity);
    occ_bin = std::max(0, occ_bin);
  }
  int trend_bin = 1;  // flat
  if (state.arrival_trend <= -config_.trend_unit) trend_bin = 0;
  else if (state.arrival_trend >= config_.trend_unit) trend_bin = 2;
  int fault_bin = 0;
  if (state.recent_fault_rate >= config_.fault_high) fault_bin = 2;
  else if (state.recent_fault_rate > 1e-9) fault_bin = 1;
  return (occ_bin * 3 + trend_bin) * 3 + fault_bin;
}

int QPolicy::greedy_action(int state) const {
  const double* row = &table_[static_cast<std::size_t>(state) * kActions];
  int best = 0;
  for (int a = 1; a < kActions; ++a)
    if (row[a] > row[best]) best = a;  // ties resolve to the lowest index
  return best;
}

core::MigrationAction QPolicy::decide(const core::PolicyState& state) {
  ++decisions_;
  if (baseline_) {
    core::MigrationAction action = baseline_->decide(state);
    ++action_counts_[static_cast<std::size_t>(action)];
    return action;
  }
  int s = encode(state);
  double occ_fraction =
      state.shadow_capacity > 0
          ? static_cast<double>(state.shadow_occupancy) /
                static_cast<double>(state.shadow_capacity)
          : 0.0;
  double potential = -config_.shaping_us * occ_fraction;

  // One-step TD update for the previous decision, now that both its
  // reward and its successor state are known. The reward is the task
  // reward from feedback() plus the potential-based shaping term
  // gamma * phi(s') - phi(s) (see QPolicyConfig::shaping_us):
  //   Q[s',a'] += alpha * (r + gamma * max_a Q[s][a] - Q[s',a'])
  if (!frozen_ && prev_state_ >= 0 && has_reward_) {
    double reward =
        pending_reward_ + config_.gamma * potential - prev_potential_;
    double bootstrap =
        table_[static_cast<std::size_t>(s) * kActions + greedy_action(s)];
    std::size_t cell =
        static_cast<std::size_t>(prev_state_) * kActions +
        static_cast<std::size_t>(prev_action_);
    double step = config_.alpha;
    if (config_.sample_average_alpha) {
      step = std::max(config_.alpha_floor,
                      std::min(config_.alpha,
                               1.0 / static_cast<double>(visits_[cell] + 1)));
    }
    double& q = table_[cell];
    q += step * (reward + config_.gamma * bootstrap - q);
    ++visits_[cell];
    ++updates_;
  }
  has_reward_ = false;
  prev_potential_ = potential;

  int action;
  if (!frozen_ && draw01() < epsilon_) {
    action = static_cast<int>(draw01() * kActions);
    action = std::min(action, kActions - 1);
  } else {
    action = greedy_action(s);
  }
  if (!frozen_)
    epsilon_ = std::max(config_.epsilon_min, epsilon_ * config_.epsilon_decay);

  prev_state_ = s;
  prev_action_ = action;
  ++action_counts_[static_cast<std::size_t>(action)];
  return static_cast<core::MigrationAction>(action);
}

void QPolicy::feedback(const core::PolicyFeedback& fb) {
  if (frozen_) return;
  pending_reward_ = -(fb.mean_insert_latency_us +
                      config_.violation_penalty_us * fb.violations);
  has_reward_ = true;
}

void QPolicy::end_episode() {
  prev_state_ = -1;
  prev_action_ = 0;
  prev_potential_ = 0.0;
  has_reward_ = false;
  pending_reward_ = 0.0;
}

}  // namespace hermes::policy
