// Cloaking region over a road network: a set of road segments, with the
// derived views both ReverseCloak algorithms need — canonical length-sorted
// ordering (the paper sorts transition-table rows/columns by segment
// length) and the candidate frontier CanA.
//
// The region is an *incremental engine*: every derived view is maintained
// under Insert/Erase instead of being recomputed from scratch
// (docs/PERFORMANCE.md):
//   * membership      — dense per-network bitmap, O(1);
//   * id order        — sorted vector (canonical published form);
//   * length order    — the members as a RankBitset over the network's
//                       length rank (RoadNetwork::LengthRank): a join or a
//                       removal is one bit flip, and the i-th member in
//                       (length, id) order is one Select;
//   * frontier        — lazily enabled adjacency counters driving a ring-1
//                       frontier bitset over the same rank, so the ring-1
//                       frontier needs no BFS;
//   * ring fallback   — the frontier grown ring by ring, carried across
//                       Inserts, its output a third rank bitset;
//   * bounds          — extended on Insert, recomputed lazily after Erase;
//   * user count      — running sum against one occupancy snapshot, so
//                       Satisfied() checks stop re-scanning the region.
// The vector views (LengthSorted, Frontier, FrontierAtLeast) are filled
// from the bitsets on demand; RGE reads the bitsets directly. All views
// stay bit-identical to their from-scratch definitions; the region-engine
// property test pins that against a naive reference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mobility/trace.h"
#include "roadnet/road_network.h"
#include "util/rank_bitset.h"

namespace rcloak::core {

using roadnet::LengthOrder;
using roadnet::SegmentId;

class CloakRegion {
 public:
  explicit CloakRegion(const roadnet::RoadNetwork& net)
      : net_(&net),
        member_(net.segment_count(), 0),
        ranked_(net.segment_count()) {}

  static CloakRegion FromSegments(const roadnet::RoadNetwork& net,
                                  const std::vector<SegmentId>& segments);

  bool Contains(SegmentId id) const noexcept {
    return member_[roadnet::Index(id)] != 0;
  }
  void Insert(SegmentId id);
  void Erase(SegmentId id);
  // Resets to the empty region while keeping allocations, so per-worker
  // engine sessions can reuse one region across requests. Equivalent to a
  // freshly constructed region over the same network.
  void Clear();
  std::size_t size() const noexcept { return segments_.size(); }
  bool empty() const noexcept { return segments_.empty(); }

  // Members sorted ascending by id (the canonical published form — id order
  // carries no information about insertion order).
  const std::vector<SegmentId>& segments_by_id() const noexcept {
    return segments_;
  }

  // Members as a bitset over the network's length rank: bit r is set iff
  // net.SegmentAtLengthRank(r) is a member, so Select(i) is the i-th
  // member in (length, id) order — the transition table's i-th row.
  const RankBitset& RankedMembers() const noexcept { return ranked_; }

  // The candidate set CanA for a transition table of `min_size` rows, as a
  // bitset over the length rank (Select(j) is column j). Starts from ring
  // 1; while the candidate set is smaller than `min_size`,
  // deterministically expands by one more adjacency ring ("links rebuilt
  // on the fly", DESIGN.md §3). `rings_used` (optional) reports how many
  // rings were taken. The reference stays valid until the next call or
  // the next Insert/Erase.
  const RankBitset& RankedCandidates(std::size_t min_size,
                                     int* rings_used = nullptr) const;

  // Members sorted by the canonical (length, id) order: the table's rows,
  // filled from RankedMembers() on first use after a change.
  const std::vector<SegmentId>& LengthSorted() const;

  // Copying wrapper kept for callers that want to own the vector.
  std::vector<SegmentId> SortedByLength() const { return LengthSorted(); }

  // Rank of `id` in the (length, id) order, or size() if not a member.
  std::size_t LengthRankOf(SegmentId id) const;

  // Ring-1 frontier: segments adjacent to the region but outside it,
  // sorted by (length, id). The reference stays valid until the next
  // Insert/Erase.
  const std::vector<SegmentId>& Frontier() const;

  // RankedCandidates as a (length, id)-sorted list: the table's columns.
  // The span stays valid until the next call or the next Insert/Erase.
  std::span<const SegmentId> FrontierAtLeast(std::size_t min_size,
                                             int* rings_used = nullptr) const;

  // Users covered by the region under the given occupancy snapshot. The
  // first call against a snapshot scans the region and starts a running
  // count that Insert/Erase keep current; subsequent calls against the
  // same (unmutated) snapshot are O(1). The snapshot must outlive the
  // region or the cache must be dropped with InvalidateUserCountCache().
  std::uint64_t UserCount(const mobility::OccupancySnapshot& occupancy) const;
  void InvalidateUserCountCache() const noexcept {
    user_cache_occ_ = nullptr;
  }

  // Bounding box of all member segments.
  geo::BoundingBox Bounds() const;

  const roadnet::RoadNetwork& network() const noexcept { return *net_; }

 private:
  std::uint32_t RankOf(SegmentId id) const noexcept {
    return net_->LengthRank(id);
  }
  // Fills `out` with the segments of `bits`, ascending by length rank.
  void FillFromRanks(const RankBitset& bits,
                     std::vector<SegmentId>& out) const;

  void EnsureFrontier() const;
  void FrontierInsertDeltas(SegmentId id);
  void FrontierEraseDeltas(SegmentId id);

  // Multi-ring fallback engine (see the member block below).
  std::uint32_t FallbackDist(SegmentId id) const noexcept;
  void FallbackReset() const;
  std::size_t FallbackGrowRing() const;
  void FallbackRetire(SegmentId id) noexcept;
  void FallbackWave();
  void FallbackOnErase(SegmentId id);

  const roadnet::RoadNetwork* net_;
  // O(1) membership; one byte per network segment.
  std::vector<std::uint8_t> member_;
  // Sorted-by-id members: the deterministic canonical form.
  std::vector<SegmentId> segments_;
  // Members by length rank: the length order.
  RankBitset ranked_;
  mutable std::vector<SegmentId> by_length_;  // LengthSorted() fill
  mutable bool length_dirty_ = true;

  // ---- frontier engine (lazily enabled) ----------------------------------
  // adjacent_members_[s] = number of region members adjacent to segment s;
  // frontier_ = non-members with adjacent_members_ > 0, by length rank.
  // Once enabled it stays enabled: Clear() zeroes the members' neighbours'
  // counters, which are the only nonzero ones.
  mutable bool frontier_enabled_ = false;
  mutable std::vector<std::uint32_t> adjacent_members_;
  mutable RankBitset frontier_;
  mutable std::vector<SegmentId> frontier_list_;     // Frontier() fill
  mutable std::vector<SegmentId> candidates_list_;   // FrontierAtLeast fill

  // ---- multi-ring fallback engine (carried across Insert and Erase) -------
  // When ring-1 cannot satisfy RankedCandidates, the fallback materializes
  // BFS rings 2..R and KEEPS them: while the region only grows, every
  // segment's distance-to-region only shrinks, so Insert() runs a bounded
  // decrease-only BFS wave (classic dynamic-BFS edge insertion) instead of
  // the next call re-walking the whole candidate ball — the path-topology
  // hot spot of bench_e11. Erase() — every step of a de-anonymization —
  // recomputes only the ball of segments within R hops of the erased one,
  // the only ones whose distance can grow. Clear invalidates; the next
  // fallback call rebuilds from ring 1. All outputs stay bit-identical to
  // the from-scratch BFS (pinned by region_engine_test).
  //
  // Distances are derived, not stored, for rings 0/1 (membership bitmap /
  // adjacency counters); fb_dist_ holds exact distances >= 2 for every
  // segment within the built horizon, valid iff its epoch equals fb_epoch_
  // (one slot per segment, so a BFS visit touches one cache line).
  // While live, the output fb_out_ holds exactly the segments at distance
  // 1..fb_rings_out_: Inserts flip its bits as distances shrink, and a
  // call that moves the radius walks only the rings it crosses.
  mutable bool fb_live_ = false;
  mutable std::uint32_t fb_epoch_ = 0;
  mutable int fb_rings_built_ = 1;  // deepest materialized ring
  mutable int fb_rings_out_ = 1;    // rings currently in fb_out_
  struct FbDist {
    std::uint32_t epoch = 0;
    std::uint32_t dist = 0;
    std::uint32_t visit = 0;  // == fb_visit_: in the ball an Erase repairs
  };
  mutable std::vector<FbDist> fb_dist_;
  // Ring r (r >= 2) members at index r-2; entries are lazily deleted (an
  // entry is live iff the segment's current distance still equals r).
  mutable std::vector<std::vector<SegmentId>> fb_rings_;
  mutable std::vector<std::size_t> fb_ring_count_;  // live entries per ring
  // The fallback result: rings 1..fb_rings_out_, by length rank.
  mutable RankBitset fb_out_;
  mutable std::vector<SegmentId> fb_wave_;  // BFS wave scratch
  // Erase repair scratch: the ball, its old ring slots, distance buckets.
  mutable std::uint32_t fb_visit_ = 0;
  mutable std::vector<SegmentId> fb_ball_;
  mutable std::vector<std::uint32_t> fb_ball_old_;
  mutable std::vector<std::vector<SegmentId>> fb_buckets_;

  // ---- bounds cache ------------------------------------------------------
  mutable geo::BoundingBox bounds_;
  mutable bool bounds_dirty_ = false;  // empty region: clean empty box

  // ---- running user count ------------------------------------------------
  mutable const mobility::OccupancySnapshot* user_cache_occ_ = nullptr;
  mutable std::uint64_t user_cache_stamp_ = 0;
  mutable std::uint64_t user_count_ = 0;
};

}  // namespace rcloak::core
