// Raw-speed software classification engine: priority-aware tuple-space
// search over the table's prefix match keys.
//
// The TCAM's linear first-match scan (TcamTable::peek) is O(occupancy)
// per packet — fine as a semantic oracle, hopeless as the data-plane
// backend once flow counts reach the millions the ROADMAP targets. This
// engine is the classification backend the paper's hardware performs in
// parallel match lines: a tuple-space search (one "tuple" per prefix
// length, the classic Srinivasan/Varghese decomposition) where each
// tuple is a flat open-addressing hash table keyed by the masked
// address. A lookup probes at most 33 buckets (lengths 0..32), and in
// practice only the handful of lengths the rule set actually uses.
//
// Layout (cache-behavior is the whole point):
//
//   * Per length L, a power-of-two array of Cells {masked key, chain
//     head, cached head priority + seq}. One probe touches one or two
//     consecutive cells — a single cache line in the common case.
//     Collisions resolve by linear probing; deletions leave tombstones
//     that the next rehash sweeps out. Caching the head's (priority,
//     seq) in the cell keeps the whole best-match tournament inside the
//     cell arrays: a lookup dereferences exactly ONE pool node (the
//     winner's), instead of one per matching bucket — at 64k rules the
//     pool is megabytes while the hot cells stay cache-resident.
//   * Rules of identical (length, masked key) — equal match, different
//     priority or arrival — form a chain of pool nodes kept sorted by
//     (priority desc, seq asc), so the chain HEAD is always that key's
//     winner and a lookup reads exactly one node per matching bucket.
//   * Nodes live in one flat pool with a free list; a node's index is
//     stable across unrelated mutations, so returned pointers survive
//     until the next engine mutation (the lookup_ptr contract).
//
// Ordering invariant: the engine reproduces the table's first-match
// semantics exactly. The linear scan returns the topmost matching slot,
// which is the highest-priority match, ties broken by physical position;
// physical position among equal priorities is arrival order (inserts
// place below equal-priority residents). The table therefore stamps
// every inserted rule with a monotone arrival sequence number, and the
// engine breaks priority ties by minimum seq. `modify_match` keeps the
// rule's slot — and hence its seq — which re-keying preserves.
//
// Maintained incrementally by TcamTable on every insert / erase /
// modify / clear: lookups NEVER rebuild. The linear peek() stays as the
// differential-test oracle (tests/tcam/lookup_engine_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/ipv4.h"
#include "net/rule.h"

namespace hermes::tcam {

class LookupEngine {
 public:
  LookupEngine() = default;

  /// Indexes `rule` under arrival stamp `seq`. Priority ties anywhere in
  /// the engine resolve to the smallest seq, so the caller must stamp
  /// rules in the order the table places them (strictly increasing).
  void insert(const net::Rule& rule, std::uint64_t seq);

  /// De-indexes `rule`. The caller passes the rule AS STORED (its match
  /// selects the bucket, its id the chain node); a rule that was never
  /// inserted is ignored. Returns the rule's arrival stamp (0 if absent).
  std::uint64_t erase(const net::Rule& rule);

  /// In-place action rewrite (same key, same slot, same seq).
  void modify_action(const net::Rule& rule, const net::Action& action);

  /// Re-keys `rule` (as stored) under `match`, PRESERVING its arrival
  /// stamp — mirroring TcamTable::modify_match, which edits the entry in
  /// its slot without moving it.
  void modify_match(const net::Rule& rule, const net::Prefix& match);

  /// Drops every indexed rule (slice reset).
  void clear();

  /// First-match classification: the highest-priority rule containing
  /// `addr`, ties broken by earliest arrival — bit-identical to the
  /// linear scan over the priority-ordered array. The pointer is
  /// invalidated by the next engine mutation. `buckets_probed`, when
  /// non-null, receives the number of non-empty length buckets probed —
  /// the tuple-space work metric; lookup cost is linear in the number of
  /// distinct prefix lengths the rule set uses.
  const net::Rule* lookup(net::Ipv4Address addr,
                          int* buckets_probed = nullptr) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Structural self-check, for tests: chain keys and ordering, each
  /// cell's cached head key, cell/occupancy accounting, the non-empty-
  /// length bitmap and the node pool's size. O(size).
  bool check_invariant() const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  // Cell.head encoding: 0 = empty, 1 = tombstone, else node index + 2.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kTombstone = 1;
  static constexpr std::uint32_t kHeadBias = 2;

  struct Node {
    net::Rule rule;
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;  ///< next node of the same (length, key)
  };

  struct Cell {
    std::uint32_t key = 0;
    std::uint32_t head = kEmpty;
    /// Mirror of pool_[head].rule.priority / .seq — the chain winner's
    /// tournament key, refreshed whenever the chain head changes. Lets
    /// lookup() rank candidates without touching the node pool.
    int head_priority = 0;
    std::uint64_t head_seq = 0;
  };

  /// One tuple: all rules whose prefix length is this bucket's length.
  struct Bucket {
    std::vector<Cell> cells;  ///< power-of-two open-addressing array
    std::uint32_t keys = 0;   ///< live cells (distinct masked keys)
    std::uint32_t used = 0;   ///< live cells + tombstones
    std::uint32_t entries = 0;  ///< rules (chain nodes) in this bucket
  };

  static std::uint32_t hash(std::uint32_t key) {
    // Fibonacci multiplicative hash, taking the HIGH word of the widened
    // product. Masked keys have their low (32 - length) bits forced to
    // zero, so a low-bits hash (key * c mod 2^k) collapses every key of
    // a short-prefix bucket into one probe cluster; the high bits mix
    // all of the key's bits regardless of the trailing zeros.
    return static_cast<std::uint32_t>(
        (key * std::uint64_t{0x9E3779B97F4A7C15ull}) >> 32);
  }

  std::uint32_t alloc_node(const net::Rule& rule, std::uint64_t seq);
  void free_node(std::uint32_t idx);
  /// Index into bucket.cells of `key`'s cell, or kNil when absent.
  std::uint32_t find_cell(const Bucket& b, std::uint32_t key) const;
  /// Grows/compacts the cell array so one more key always fits.
  void ensure_capacity(Bucket& b);
  void insert_node(int length, std::uint32_t key, std::uint32_t node_idx);
  /// Unlinks the node with `id` from its chain; kNil if absent.
  std::uint32_t remove_node(int length, std::uint32_t key, net::RuleId id);

  std::array<Bucket, 33> buckets_{};  // index = prefix length
  std::uint64_t nonempty_lengths_ = 0;  ///< bit L set iff bucket L has rules
  std::vector<Node> pool_;
  std::vector<std::uint32_t> free_nodes_;
  std::size_t size_ = 0;
};

}  // namespace hermes::tcam
