#include "sim/fluid_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace hermes::sim {

FluidNetwork::FluidNetwork(const net::Topology& topology)
    : topology_(&topology) {
  link_capacity_.reserve(static_cast<std::size_t>(topology.link_count()));
  for (const net::Link& l : topology.links())
    link_capacity_.push_back(l.capacity_bps / 8.0);
}

FlowId FluidNetwork::add_flow(double bytes,
                              const std::vector<net::LinkId>& links,
                              [[maybe_unused]] Time now) {
  assert(now == last_advance_ && "advance_to(now) before mutating");
  assert(bytes > 0 && !links.empty());
  FlowId id = next_id_++;
  flows_.emplace(id, FlowState{bytes, 0, links});
  recompute_rates();
  return id;
}

void FluidNetwork::remove_flow(FlowId id, [[maybe_unused]] Time now) {
  assert(now == last_advance_ && "advance_to(now) before mutating");
  flows_.erase(id);
  recompute_rates();
}

void FluidNetwork::reroute_flow(FlowId id,
                                const std::vector<net::LinkId>& links,
                                [[maybe_unused]] Time now) {
  assert(now == last_advance_ && "advance_to(now) before mutating");
  auto it = flows_.find(id);
  if (it == flows_.end()) return;  // completed before the move finished
  it->second.links = links;
  recompute_rates();
}

void FluidNetwork::advance_to(Time now) {
  assert(now >= last_advance_);
  double dt = to_seconds(now - last_advance_);
  if (dt > 0) {
    for (auto& [id, flow] : flows_) {
      flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
    }
  }
  last_advance_ = now;
}

std::optional<FluidNetwork::NextCompletion>
FluidNetwork::next_completion() const {
  std::optional<NextCompletion> best;
  for (const auto& [id, flow] : flows_) {
    if (flow.rate <= 0) continue;
    double seconds = flow.remaining / flow.rate;
    Time when = last_advance_ + from_seconds(seconds);
    // Guard against zero-duration rounding: completions are strictly in
    // the future unless the flow is already drained.
    if (flow.remaining <= 0) when = last_advance_;
    if (!best || when < best->time ||
        (when == best->time && id < best->flow)) {
      best = NextCompletion{id, when};
    }
  }
  return best;
}

double FluidNetwork::remaining_bytes(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0 : it->second.remaining;
}

double FluidNetwork::rate_bytes_per_s(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0 : it->second.rate;
}

const std::vector<net::LinkId>& FluidNetwork::links_of(FlowId id) const {
  static const std::vector<net::LinkId> empty;
  auto it = flows_.find(id);
  return it == flows_.end() ? empty : it->second.links;
}

double FluidNetwork::link_utilization(net::LinkId link) const {
  double used = 0;
  for (const auto& [id, flow] : flows_) {
    if (std::find(flow.links.begin(), flow.links.end(), link) !=
        flow.links.end())
      used += flow.rate;
  }
  double cap = link_capacity_[static_cast<std::size_t>(link)];
  return cap > 0 ? used / cap : 0;
}

std::vector<double> FluidNetwork::all_link_utilization() const {
  std::vector<double> used(link_capacity_.size(), 0.0);
  for (const auto& [id, flow] : flows_) {
    for (net::LinkId l : flow.links)
      used[static_cast<std::size_t>(l)] += flow.rate;
  }
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (link_capacity_[i] > 0) used[i] /= link_capacity_[i];
  }
  return used;
}

std::vector<FlowId> FluidNetwork::flows_on_link(net::LinkId link) const {
  std::vector<FlowId> out;
  for (const auto& [id, flow] : flows_) {
    if (std::find(flow.links.begin(), flow.links.end(), link) !=
        flow.links.end())
      out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FluidNetwork::recompute_rates() {
  // Progressive filling. Only links carrying unfrozen flows participate.
  std::unordered_map<net::LinkId, double> residual;
  std::unordered_map<net::LinkId, int> active_count;
  for (auto& [id, flow] : flows_) {
    flow.rate = 0;
    for (net::LinkId l : flow.links) {
      auto [it, inserted] =
          residual.emplace(l, link_capacity_[static_cast<std::size_t>(l)]);
      (void)it;
      ++active_count[l];
    }
  }

  std::unordered_map<FlowId, char> frozen;
  std::size_t remaining_flows = flows_.size();
  while (remaining_flows > 0) {
    // Bottleneck link: minimal fair share among links with active flows.
    net::LinkId bottleneck = net::kInvalidLink;
    double best_share = std::numeric_limits<double>::infinity();
    for (const auto& [l, count] : active_count) {
      if (count <= 0) continue;
      double share = residual.at(l) / count;
      if (share < best_share ||
          (share == best_share && l < bottleneck)) {
        best_share = share;
        bottleneck = l;
      }
    }
    if (bottleneck == net::kInvalidLink) break;  // defensive

    // Freeze every unfrozen flow crossing the bottleneck at the share.
    for (auto& [id, flow] : flows_) {
      if (frozen.count(id)) continue;
      if (std::find(flow.links.begin(), flow.links.end(), bottleneck) ==
          flow.links.end())
        continue;
      flow.rate = best_share;
      frozen.emplace(id, 1);
      --remaining_flows;
      for (net::LinkId l : flow.links) {
        residual[l] -= best_share;
        --active_count[l];
      }
    }
  }
}

}  // namespace hermes::sim
