#include "tcam/tcam_table.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <unordered_set>

namespace hermes::tcam {

namespace {
// upper_bound comparator matching the physical order: non-increasing
// priority.
constexpr auto kPriorityDescUpper = [](int priority, const net::Rule& r) {
  return priority > r.priority;
};
}  // namespace

TcamTable::TcamTable(int capacity) : capacity_(capacity > 0 ? capacity : 0) {
  // The slot arrays are reserved whole, so no insert splice reallocates.
  // The id index grows with what it holds: reserving it to capacity
  // zeroes a full bucket array in every small table.
  entries_.reserve(static_cast<std::size_t>(capacity_));
  stamps_.reserve(static_cast<std::size_t>(capacity_));
}

std::size_t TcamTable::locate(net::RuleId id) const {
  auto it = key_of_.find(id);
  if (it == key_of_.end()) return kNoSlot;
  const SlotKey key = it->second;
  // Whether slot i comes before `key` in slot order. The search below
  // updates `lo` without an if/else, so the stamp comparison becomes a
  // conditional move: inside a long equal-priority run, which half holds
  // the key is a coin flip no branch predictor learns (fib_churn ran ~11%
  // faster than with an if/else). The priority test stays a branch, which
  // predicts well there.
  auto above = [&](std::size_t i) {
    const int p = entries_[i].priority;
    return p > key.priority || (p == key.priority && stamps_[i] < key.stamp);
  };
  std::size_t n = entries_.size();
  if (n == 0) return kNoSlot;
  std::size_t lo = 0;  // the first slot not above `key` is in [lo, lo + n]
  while (n > 1) {
    const std::size_t half = n / 2;
    lo = above(lo + half - 1) ? lo + half : lo;
    n -= half;
  }
  lo += above(lo);
  // The check fails only if the index invariant is broken.
  return lo < entries_.size() && entries_[lo].id == id ? lo : kNoSlot;
}

std::uint32_t TcamTable::take_stamps(std::uint32_t count) {
  if (std::numeric_limits<std::uint32_t>::max() - next_stamp_ < count) {
    // Renumbering in slot order keeps every run's order, so no slot moves.
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      stamps_[i] = static_cast<std::uint32_t>(i);
      key_of_[entries_[i].id].stamp = stamps_[i];
    }
    next_stamp_ = static_cast<std::uint32_t>(entries_.size());
  }
  const std::uint32_t first = next_stamp_;
  next_stamp_ += count;
  return first;
}

OpResult TcamTable::insert(const net::Rule& rule) {
  if (full() || key_of_.count(rule.id) > 0) {
    ++stats_.failed_inserts;
    obs_failed_inserts_.inc();
    return {false, 0};
  }
  // Insertion point: after every entry with priority >= rule.priority.
  // (Equal-priority entries keep arrival order; a new lowest-priority
  // rule appends at the bottom with zero shifts.)
  auto pos = std::upper_bound(entries_.begin(), entries_.end(), rule.priority,
                              kPriorityDescUpper);
  const std::ptrdiff_t slot = pos - entries_.begin();
  int shifts = static_cast<int>(entries_.end() - pos);
  const std::uint32_t stamp = take_stamps(1);
  entries_.insert(pos, rule);
  stamps_.insert(stamps_.begin() + slot, stamp);
  key_of_.emplace(rule.id, SlotKey{rule.priority, stamp});
  engine_.insert(rule, seq_++);
  ++stats_.inserts;
  stats_.total_shifts += static_cast<std::uint64_t>(shifts);
  obs_inserts_.inc();
  obs_shifts_.inc(static_cast<std::uint64_t>(shifts));
  return {true, shifts};
}

TcamTable::BatchInsertResult TcamTable::insert_batch(
    std::span<const net::Rule> rules, std::vector<OpResult>* per_op,
    bool stop_at_first_failure) {
  BatchInsertResult out;
  if (per_op) {
    per_op->clear();
    per_op->resize(rules.size());  // unattempted slots read {false, 0}
  }
  if (rules.empty()) return out;
  obs_batch_size_.record(rules.size());

  // Acceptance pass: replay the sequential accept/fail decisions without
  // touching the array. A rule fails exactly when the per-op insert would
  // have: its id is resident or appeared earlier in the batch, or no slot
  // is free at its turn.
  std::vector<std::size_t> accepted;
  accepted.reserve(rules.size());
  std::unordered_set<net::RuleId> batch_ids;
  int free_slots = capacity_ - occupancy();
  // Sorted (ascending) priorities of already-accepted batch rules, for the
  // sequential shift count: entries a later batch rule would have shifted
  // include earlier batch rules of strictly lower priority.
  std::vector<int> accepted_priorities;
  std::vector<int> shifts_of(rules.size(), 0);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const net::Rule& r = rules[i];
    bool dup = key_of_.count(r.id) > 0 || batch_ids.count(r.id) > 0;
    if (dup || free_slots == 0) {
      ++stats_.failed_inserts;
      obs_failed_inserts_.inc();
      ++out.failed;
      if (stop_at_first_failure) break;
      continue;
    }
    --free_slots;
    batch_ids.insert(r.id);
    auto pos = std::upper_bound(entries_.begin(), entries_.end(), r.priority,
                                kPriorityDescUpper);
    int below_resident = static_cast<int>(entries_.end() - pos);
    auto lower = std::lower_bound(accepted_priorities.begin(),
                                  accepted_priorities.end(), r.priority);
    int below_batch = static_cast<int>(lower - accepted_priorities.begin());
    shifts_of[i] = below_resident + below_batch;
    accepted_priorities.insert(lower, r.priority);
    accepted.push_back(i);
    if (per_op) (*per_op)[i] = {true, shifts_of[i]};
  }

  // Placement pass: ONE backward merge. Stable-sort the accepted rules
  // (by their position in `accepted`) by descending priority — stability
  // keeps batch arrival order within a priority level — then merge from
  // the bottom of the array upward so every resident entry moves at most
  // once. Residents of a priority equal to an incoming rule stay above
  // it, matching the per-op upper_bound placement.
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(entries_.size());
  const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(accepted.size());
  std::vector<std::size_t> order(accepted.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rules[accepted[a]].priority >
                            rules[accepted[b]].priority;
                   });
  // Slot stamps, like the engine's, follow batch order: equal-priority
  // batch rules land in batch arrival order below equal-priority
  // residents, exactly like the sequential insert loop.
  const std::uint32_t first_stamp =
      take_stamps(static_cast<std::uint32_t>(k));
  entries_.resize(static_cast<std::size_t>(n + k));
  stamps_.resize(static_cast<std::size_t>(n + k));
  std::ptrdiff_t src = n - 1;
  std::ptrdiff_t write = n + k - 1;
  std::ptrdiff_t next = k - 1;
  while (next >= 0) {
    const std::size_t pos = order[static_cast<std::size_t>(next)];
    const net::Rule& incoming = rules[accepted[pos]];
    const auto w = static_cast<std::size_t>(write--);
    if (src >= 0 && entries_[static_cast<std::size_t>(src)].priority <
                        incoming.priority) {
      entries_[w] = entries_[static_cast<std::size_t>(src)];
      stamps_[w] = stamps_[static_cast<std::size_t>(src--)];
    } else {
      entries_[w] = incoming;
      stamps_[w] = first_stamp + static_cast<std::uint32_t>(pos);
      --next;
    }
  }

  for (std::size_t pos = 0; pos < accepted.size(); ++pos) {
    const net::Rule& r = rules[accepted[pos]];
    const auto stamp = first_stamp + static_cast<std::uint32_t>(pos);
    key_of_.emplace(r.id, SlotKey{r.priority, stamp});
    engine_.insert(r, seq_++);
    out.total_shifts += static_cast<std::uint64_t>(shifts_of[accepted[pos]]);
  }
  out.inserted = static_cast<int>(k);
  stats_.inserts += static_cast<std::uint64_t>(k);
  stats_.total_shifts += out.total_shifts;
  obs_inserts_.inc(static_cast<std::uint64_t>(k));
  obs_shifts_.inc(out.total_shifts);
  return out;
}

OpResult TcamTable::erase(net::RuleId id) {
  std::size_t slot = locate(id);
  if (slot == kNoSlot) return {false, 0};
  engine_.erase(entries_[slot]);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(slot));
  stamps_.erase(stamps_.begin() + static_cast<std::ptrdiff_t>(slot));
  key_of_.erase(id);
  ++stats_.deletes;
  obs_deletes_.inc();
  return {true, 0};
}

int TcamTable::erase_batch(std::span<const net::RuleId> ids) {
  // Locate every slot on the untouched array, then compact once.
  std::vector<std::size_t> slots;
  slots.reserve(ids.size());
  for (net::RuleId id : ids) {
    const std::size_t slot = locate(id);
    if (slot == kNoSlot) continue;
    engine_.erase(entries_[slot]);
    key_of_.erase(id);
    slots.push_back(slot);
  }
  if (slots.empty()) return 0;
  std::sort(slots.begin(), slots.end());
  std::size_t write = slots.front();
  std::size_t next = 0;  // next slot in `slots` to drop
  for (std::size_t read = write; read < entries_.size(); ++read) {
    if (next < slots.size() && slots[next] == read) {
      ++next;
      continue;
    }
    entries_[write] = entries_[read];
    stamps_[write++] = stamps_[read];
  }
  entries_.resize(write);
  stamps_.resize(write);
  stats_.deletes += slots.size();
  obs_deletes_.inc(slots.size());
  return static_cast<int>(slots.size());
}

void TcamTable::modify_action(const net::Rule& entry,
                              const net::Action& action) {
  const auto slot = static_cast<std::size_t>(&entry - entries_.data());
  assert(slot < entries_.size());
  engine_.modify_action(entries_[slot], action);
  entries_[slot].action = action;
  ++stats_.modifies;
  obs_modifies_.inc();
}

OpResult TcamTable::modify_match(net::RuleId id, const net::Prefix& match) {
  std::size_t slot = locate(id);
  if (slot == kNoSlot) return {false, 0};
  // Re-keys the engine node in place, preserving its arrival stamp (the
  // entry keeps its slot, so its tie-break position must not move).
  engine_.modify_match(entries_[slot], match);
  entries_[slot].match = match;
  ++stats_.modifies;
  obs_modifies_.inc();
  return {true, 0};
}

const net::Rule* TcamTable::lookup_ptr(net::Ipv4Address addr) {
  ++stats_.lookups;
  obs_lookups_.inc();
  int probed = 0;
  const net::Rule* r = engine_.lookup(addr, &probed);
  obs_lookup_probes_.record(static_cast<std::uint64_t>(probed));
  if (r != nullptr) {
    obs_lookup_hits_.inc();
  } else {
    obs_lookup_misses_.inc();
  }
  return r;
}

std::optional<net::Rule> TcamTable::peek(net::Ipv4Address addr) const {
  for (const net::Rule& r : entries_) {
    if (r.match.contains(addr)) return r;
  }
  return std::nullopt;
}

bool TcamTable::contains(net::RuleId id) const {
  return key_of_.count(id) > 0;
}

const net::Rule* TcamTable::find_ptr(net::RuleId id) const {
  std::size_t slot = locate(id);
  return slot == kNoSlot ? nullptr : &entries_[slot];
}

void TcamTable::clear() {
  entries_.clear();
  stamps_.clear();
  key_of_.clear();
  engine_.clear();
}

bool TcamTable::check_invariant() const {
  if (static_cast<int>(entries_.size()) > capacity_) return false;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].priority > entries_[i - 1].priority) return false;
  }
  // Index <-> array agreement: exactly one index entry per rule, carrying
  // its slot's priority and stamp, and slot order is (priority
  // descending, stamp ascending) — what locate() relies on.
  if (key_of_.size() != entries_.size() || stamps_.size() != entries_.size())
    return false;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    auto it = key_of_.find(entries_[i].id);
    if (it == key_of_.end() || it->second.priority != entries_[i].priority ||
        it->second.stamp != stamps_[i] || stamps_[i] >= next_stamp_)
      return false;
    if (i > 0 && entries_[i].priority == entries_[i - 1].priority &&
        stamps_[i] <= stamps_[i - 1])
      return false;
  }
  // Engine <-> array agreement: same population, structurally sound.
  if (engine_.size() != entries_.size()) return false;
  if (!engine_.check_invariant()) return false;
  return true;
}

}  // namespace hermes::tcam
