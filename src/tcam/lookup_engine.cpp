#include "tcam/lookup_engine.h"

#include <bit>
#include <limits>

namespace hermes::tcam {

namespace {

constexpr std::uint32_t masked_key(net::Ipv4Address addr, int length) {
  return addr.value() & net::Prefix::mask_for(length);
}

}  // namespace

std::uint32_t LookupEngine::alloc_node(const net::Rule& rule,
                                       std::uint64_t seq) {
  std::uint32_t idx;
  if (!free_nodes_.empty()) {
    idx = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[idx].rule = rule;
  pool_[idx].seq = seq;
  pool_[idx].next = kNil;
  return idx;
}

void LookupEngine::free_node(std::uint32_t idx) {
  pool_[idx].next = kNil;
  free_nodes_.push_back(idx);
}

std::uint32_t LookupEngine::find_cell(const Bucket& b,
                                      std::uint32_t key) const {
  if (b.cells.empty()) return kNil;
  const std::uint32_t mask = static_cast<std::uint32_t>(b.cells.size()) - 1;
  std::uint32_t i = hash(key) & mask;
  while (true) {
    const Cell& c = b.cells[i];
    if (c.head == kEmpty) return kNil;
    if (c.head != kTombstone && c.key == key) return i;
    i = (i + 1) & mask;
  }
}

void LookupEngine::ensure_capacity(Bucket& b) {
  // Rehash at 1/2 occupancy (live + tombstones); rebuilding from live
  // keys sweeps the tombstones out. The threshold is deliberately low:
  // most buckets a lookup probes do NOT contain the address's key, and
  // an unsuccessful linear probe runs until an empty cell — at 3/4 load
  // that is ~8 dependent loads per miss bucket, at 1/2 it is ~2.5
  // (bench_lookup's uniform scenarios are dominated by exactly this).
  if (!b.cells.empty() && (b.used + 1) * 2 <= b.cells.size()) return;
  std::size_t want = std::max<std::size_t>(16, (b.keys + 1) * 3);
  std::size_t cap = std::bit_ceil(want);
  std::vector<Cell> fresh(cap);
  const std::uint32_t mask = static_cast<std::uint32_t>(cap) - 1;
  for (const Cell& c : b.cells) {
    if (c.head == kEmpty || c.head == kTombstone) continue;
    std::uint32_t i = hash(c.key) & mask;
    while (fresh[i].head != kEmpty) i = (i + 1) & mask;
    fresh[i] = c;
  }
  b.cells.swap(fresh);
  b.used = b.keys;
}

void LookupEngine::insert_node(int length, std::uint32_t key,
                               std::uint32_t node_idx) {
  Bucket& b = buckets_[static_cast<std::size_t>(length)];
  ensure_capacity(b);
  const std::uint32_t mask = static_cast<std::uint32_t>(b.cells.size()) - 1;
  std::uint32_t i = hash(key) & mask;
  std::uint32_t slot = kNil;  // first tombstone seen, reusable
  while (true) {
    Cell& c = b.cells[i];
    if (c.head == kEmpty) {
      if (slot == kNil) slot = i;
      break;
    }
    if (c.head == kTombstone) {
      if (slot == kNil) slot = i;
    } else if (c.key == key) {
      slot = i;
      break;
    }
    i = (i + 1) & mask;
  }
  Cell& c = b.cells[slot];
  Node& n = pool_[node_idx];
  if (c.head == kEmpty || c.head == kTombstone) {
    if (c.head == kEmpty) ++b.used;
    c.key = key;
    c.head = node_idx + kHeadBias;
    c.head_priority = n.rule.priority;
    c.head_seq = n.seq;
    n.next = kNil;  // a re-keyed node may carry a stale chain pointer
    ++b.keys;
  } else {
    // Splice into the chain keeping (priority desc, seq asc) order, so
    // the head is always this key's first-match winner.
    std::uint32_t head = c.head - kHeadBias;
    Node& h = pool_[head];
    if (n.rule.priority > h.rule.priority ||
        (n.rule.priority == h.rule.priority && n.seq < h.seq)) {
      n.next = head;
      c.head = node_idx + kHeadBias;
      c.head_priority = n.rule.priority;
      c.head_seq = n.seq;
    } else {
      std::uint32_t prev = head;
      std::uint32_t cur = pool_[head].next;
      while (cur != kNil) {
        const Node& cn = pool_[cur];
        if (n.rule.priority > cn.rule.priority ||
            (n.rule.priority == cn.rule.priority && n.seq < cn.seq)) {
          break;
        }
        prev = cur;
        cur = cn.next;
      }
      n.next = cur;
      pool_[prev].next = node_idx;
    }
  }
  ++b.entries;
  nonempty_lengths_ |= std::uint64_t{1} << length;
  ++size_;
}

std::uint32_t LookupEngine::remove_node(int length, std::uint32_t key,
                                        net::RuleId id) {
  Bucket& b = buckets_[static_cast<std::size_t>(length)];
  std::uint32_t cell_idx = find_cell(b, key);
  if (cell_idx == kNil) return kNil;
  Cell& c = b.cells[cell_idx];
  std::uint32_t cur = c.head - kHeadBias;
  std::uint32_t prev = kNil;
  while (cur != kNil && pool_[cur].rule.id != id) {
    prev = cur;
    cur = pool_[cur].next;
  }
  if (cur == kNil) return kNil;
  if (prev == kNil) {
    std::uint32_t next = pool_[cur].next;
    if (next == kNil) {
      c.head = kTombstone;  // chain emptied; `used` stays until rehash
      --b.keys;
    } else {
      c.head = next + kHeadBias;
      c.head_priority = pool_[next].rule.priority;
      c.head_seq = pool_[next].seq;
    }
  } else {
    pool_[prev].next = pool_[cur].next;
  }
  --b.entries;
  if (b.entries == 0) nonempty_lengths_ &= ~(std::uint64_t{1} << length);
  --size_;
  return cur;
}

void LookupEngine::insert(const net::Rule& rule, std::uint64_t seq) {
  std::uint32_t node = alloc_node(rule, seq);
  insert_node(rule.match.length(),
              masked_key(rule.match.address(), rule.match.length()), node);
}

std::uint64_t LookupEngine::erase(const net::Rule& rule) {
  std::uint32_t node = remove_node(
      rule.match.length(),
      masked_key(rule.match.address(), rule.match.length()), rule.id);
  if (node == kNil) return 0;
  std::uint64_t seq = pool_[node].seq;
  free_node(node);
  return seq;
}

void LookupEngine::modify_action(const net::Rule& rule,
                                 const net::Action& action) {
  const Bucket& b = buckets_[static_cast<std::size_t>(rule.match.length())];
  std::uint32_t cell_idx =
      find_cell(b, masked_key(rule.match.address(), rule.match.length()));
  if (cell_idx == kNil) return;
  std::uint32_t cur = b.cells[cell_idx].head - kHeadBias;
  while (cur != kNil && pool_[cur].rule.id != rule.id) cur = pool_[cur].next;
  if (cur != kNil) pool_[cur].rule.action = action;
}

void LookupEngine::modify_match(const net::Rule& rule,
                                const net::Prefix& match) {
  std::uint32_t node = remove_node(
      rule.match.length(),
      masked_key(rule.match.address(), rule.match.length()), rule.id);
  if (node == kNil) return;
  pool_[node].rule.match = match;
  insert_node(match.length(), masked_key(match.address(), match.length()),
              node);
}

void LookupEngine::clear() {
  for (Bucket& b : buckets_) b = Bucket{};
  nonempty_lengths_ = 0;
  pool_.clear();
  free_nodes_.clear();
  size_ = 0;
}

const net::Rule* LookupEngine::lookup(net::Ipv4Address addr,
                                      int* buckets_probed) const {
  // Shaped by three measured constraints (see bench/bench_lookup.cpp):
  //
  //  * Whether a bucket matches is a per-address coin flip no branch
  //    predictor can learn, and one mispredict costs more than the
  //    probe — so accept/improve decisions are conditional-move
  //    arithmetic, never branches.
  //  * A single cmov tournament whose skip test reads the running best
  //    serializes every cell load behind the previous compare; striding
  //    the tournament across four independent accumulators keeps the
  //    (L2/LLC) cell loads overlapped.
  //  * Phase 1 computes every probe slot from the L1-resident bucket
  //    headers and prefetches the cells before phase 2 consumes them.
  //
  // The cells' cached (priority, seq) winner keys carry the whole
  // tournament; the node pool is dereferenced exactly once, for the
  // overall winner. The only branch left in the common path is the
  // collision fallback, which linear probing at <= 3/4 load keeps rare.
  struct Candidate {
    const Cell* cells;
    std::uint32_t mask;
    std::uint32_t slot;
    std::uint32_t key;
  };
  Candidate cands[33];
  int n_cands = 0;
  const std::uint32_t a = addr.value();
  std::uint64_t lengths = nonempty_lengths_;
  while (lengths != 0) {
    const int length = std::countr_zero(lengths);
    lengths &= lengths - 1;
    const Bucket& b = buckets_[static_cast<std::size_t>(length)];
    const std::uint32_t key = a & net::Prefix::mask_for(length);
    const std::uint32_t mask = static_cast<std::uint32_t>(b.cells.size()) - 1;
    const std::uint32_t slot = hash(key) & mask;
    __builtin_prefetch(b.cells.data() + slot);
    cands[n_cands++] = {b.cells.data(), mask, slot, key};
  }

  // Strided lane accumulators; the LLONG_MIN sentinel priority folds the
  // "first match" case into the ordinary comparison.
  constexpr int kLanes = 4;
  std::uint32_t lane_head[kLanes];
  long long lane_priority[kLanes];
  std::uint64_t lane_seq[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    lane_head[l] = kNil;
    lane_priority[l] = std::numeric_limits<long long>::min();
    lane_seq[l] = 0;
  }
  for (int ci = 0; ci < n_cands; ++ci) {
    const Candidate& cand = cands[ci];
    std::uint32_t i = cand.slot;
    Cell c = cand.cells[i];
    if (c.head != kEmpty && (c.head == kTombstone || c.key != cand.key))
        [[unlikely]] {
      do {
        i = (i + 1) & cand.mask;
        c = cand.cells[i];
      } while (c.head != kEmpty && (c.head == kTombstone || c.key != cand.key));
    }
    // c is either this key's live cell or the empty cell that ends its
    // probe sequence; a tombstone's stale key must not count as a match.
    const int lane = ci & (kLanes - 1);
    const bool match = c.head >= kHeadBias && c.key == cand.key;
    const bool better =
        match &&
        (c.head_priority > lane_priority[lane] ||
         (c.head_priority == lane_priority[lane] && c.head_seq < lane_seq[lane]));
    lane_head[lane] = better ? c.head - kHeadBias : lane_head[lane];
    lane_priority[lane] = better ? c.head_priority : lane_priority[lane];
    lane_seq[lane] = better ? c.head_seq : lane_seq[lane];
  }
  std::uint32_t best_head = kNil;
  long long best_priority = std::numeric_limits<long long>::min();
  std::uint64_t best_seq = 0;
  for (int l = 0; l < kLanes; ++l) {
    const bool better =
        lane_head[l] != kNil &&
        (lane_priority[l] > best_priority ||
         (lane_priority[l] == best_priority && lane_seq[l] < best_seq));
    best_head = better ? lane_head[l] : best_head;
    best_priority = better ? lane_priority[l] : best_priority;
    best_seq = better ? lane_seq[l] : best_seq;
  }
  if (buckets_probed != nullptr) *buckets_probed = n_cands;
  return best_head == kNil ? nullptr : &pool_[best_head].rule;
}

bool LookupEngine::check_invariant() const {
  std::size_t total = 0;
  std::uint64_t expect_mask = 0;
  for (int length = 0; length <= 32; ++length) {
    const Bucket& b = buckets_[static_cast<std::size_t>(length)];
    std::uint32_t keys = 0;
    std::uint32_t live_or_tomb = 0;
    std::uint32_t entries = 0;
    for (const Cell& c : b.cells) {
      if (c.head == kEmpty) continue;
      ++live_or_tomb;
      if (c.head == kTombstone) continue;
      ++keys;
      // The cell's cached winner key mirrors the chain head.
      const Node& head = pool_[c.head - kHeadBias];
      if (c.head_priority != head.rule.priority || c.head_seq != head.seq)
        return false;
      // Every chain: keys consistent, ordered by (priority desc, seq asc).
      std::uint32_t cur = c.head - kHeadBias;
      const Node* prev = nullptr;
      while (cur != kNil) {
        const Node& n = pool_[cur];
        ++entries;
        std::uint32_t k =
            masked_key(n.rule.match.address(), n.rule.match.length());
        if (n.rule.match.length() != length || k != c.key) return false;
        if (prev != nullptr &&
            (prev->rule.priority < n.rule.priority ||
             (prev->rule.priority == n.rule.priority && prev->seq > n.seq)))
          return false;
        prev = &n;
        cur = n.next;
      }
    }
    if (keys != b.keys || entries != b.entries) return false;
    if (live_or_tomb != b.used) return false;
    if (b.entries > 0) expect_mask |= std::uint64_t{1} << length;
  }
  if (expect_mask != nonempty_lengths_) return false;
  for (int length = 0; length <= 32; ++length)
    total += buckets_[static_cast<std::size_t>(length)].entries;
  if (total != size_) return false;
  if (pool_.size() != size_ + free_nodes_.size()) return false;
  return true;
}

}  // namespace hermes::tcam
