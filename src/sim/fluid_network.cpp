#include "sim/fluid_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hermes::sim {

namespace {

// (share, link id) order, evaluated without branches: which of four
// children is least is data-dependent and defeats a branch predictor.
bool before(const std::pair<double, net::LinkId>& a,
            const std::pair<double, net::LinkId>& b) {
  return (a.first < b.first) | ((a.first == b.first) & (a.second < b.second));
}

}  // namespace

FluidNetwork::FluidNetwork(const net::Topology& topology)
    : topology_(&topology) {
  const auto links = static_cast<std::size_t>(topology.link_count());
  link_capacity_.reserve(links);
  for (const net::Link& l : topology.links())
    link_capacity_.push_back(l.capacity_bps / 8.0);
  link_flows_.resize(links);
  links_.resize(links);
}

FlowId FluidNetwork::add_flows(std::vector<NewFlow> flows,
                               [[maybe_unused]] Time now) {
  assert(now == last_advance_ && "advance_to(now) before mutating");
  const FlowId first = next_id_;
  for (NewFlow& flow : flows) {
    assert(flow.bytes > 0 && !flow.links.empty());
    flows_.emplace(next_id_++,
                   FlowState{flow.bytes, 0, std::move(flow.links)});
  }
  recompute_rates();
  return first;
}

FlowId FluidNetwork::add_flow(double bytes,
                              const std::vector<net::LinkId>& links,
                              Time now) {
  return add_flows({{bytes, links}}, now);
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
  // Progressive filling. Only links carrying flows participate. Each
  // round freezes every unfrozen flow on the bottleneck link, the link
  // with the lowest fair share (residual / unfrozen crossings), ties to
  // the lowest link id.
  used_links_.clear();
  for (auto& [id, flow] : flows_) {
    flow.rate = 0;
    flow.frozen = false;
    flow.least_private = kNoSlot;
    for (net::LinkId l : flow.links) {
      const auto li = static_cast<std::size_t>(l);
      if (link_flows_[li].empty()) used_links_.push_back(l);
      link_flows_[li].push_back(&flow);
    }
  }
  // The heap holds every shared link and, of each flow's private links
  // (links it alone crosses, once), the least by (share, link id). A
  // private link keeps its key until its flow freezes and dies in the
  // same round, so no other private link of that flow can reach the top
  // first: the top is the least (share, link id) over all live links.
  heap_.clear();
  for (net::LinkId l : used_links_) {
    const auto li = static_cast<std::size_t>(l);
    LinkState& link = links_[li];
    link.residual = link_capacity_[li];
    link.unfrozen = static_cast<int>(link_flows_[li].size());
    const Entry e{link.residual / link.unfrozen, l};
    if (link.unfrozen == 1) {
      FlowState* flow = link_flows_[li].front();
      if (flow->least_private != kNoSlot) {
        Entry& least = heap_[flow->least_private];
        if (before(e, least)) least = e;
        continue;
      }
      flow->least_private = static_cast<std::uint32_t>(heap_.size());
    }
    heap_.push_back(e);
  }
  build_heap();
  // A link leaves when its last flow freezes, so the heap empties
  // exactly when every flow is frozen.
  while (!heap_.empty()) {
    const auto [share, bottleneck] = heap_.front();
    const auto bi = static_cast<std::size_t>(bottleneck);

    // Freeze every unfrozen flow crossing the bottleneck at the share.
    // Every subtraction in a round is of the same share, so the order in
    // which flows freeze cannot change a residual by a bit.
    ++round_;
    touched_.clear();
    for (FlowState* flow : link_flows_[bi]) {
      if (flow->frozen) continue;
      flow->frozen = true;
      flow->rate = share;
      for (net::LinkId l : flow->links) {
        LinkState& link = links_[static_cast<std::size_t>(l)];
        link.residual -= share;
        --link.unfrozen;
        if (link.round != round_) {
          link.round = round_;
          touched_.push_back(l);
        }
      }
    }
    // Re-key every link the round changed; a link whose last flow froze
    // (the bottleneck among them) leaves the heap if it is there.
    for (net::LinkId l : touched_) {
      const LinkState& link = links_[static_cast<std::size_t>(l)];
      if (link.unfrozen > 0) {
        rekey(l, link.residual / link.unfrozen);
      } else if (link.slot != kNoSlot) {
        erase_from_heap(l);
      }
    }
  }
  for (net::LinkId l : used_links_)
    link_flows_[static_cast<std::size_t>(l)].clear();
}

// --- heap_: 4-ary, children of slot i at 4i+1 .. 4i+4 ------------------------

void FluidNetwork::build_heap() {
  for (std::size_t i = 0; i < heap_.size(); ++i)
    links_[static_cast<std::size_t>(heap_[i].second)].slot =
        static_cast<std::uint32_t>(i);
  for (std::size_t i = (heap_.size() + 2) / 4; i-- > 0;) sift_down(i);
}

void FluidNetwork::place(std::size_t i, const Entry& e) {
  heap_[i] = e;
  links_[static_cast<std::size_t>(e.second)].slot =
      static_cast<std::uint32_t>(i);
}

void FluidNetwork::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void FluidNetwork::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t least = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c)
      least = before(heap_[c], heap_[least]) ? c : least;
    if (!before(heap_[least], e)) break;
    place(i, heap_[least]);
    i = least;
  }
  place(i, e);
}

void FluidNetwork::rekey(net::LinkId link, double share) {
  const std::size_t i = links_[static_cast<std::size_t>(link)].slot;
  assert(i != kNoSlot);
  const bool lower = share < heap_[i].first;
  heap_[i].first = share;
  if (lower) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void FluidNetwork::erase_from_heap(net::LinkId link) {
  std::uint32_t& slot = links_[static_cast<std::size_t>(link)].slot;
  const std::size_t i = slot;
  assert(i != kNoSlot);
  slot = kNoSlot;
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, moved);
  sift_up(i);
  sift_down(links_[static_cast<std::size_t>(moved.second)].slot);
}

}  // namespace hermes::sim
