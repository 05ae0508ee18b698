// Cloaking region over a road network: a set of road segments, with the
// derived views both ReverseCloak algorithms need — canonical length-sorted
// ordering (the paper sorts transition-table rows/columns by segment
// length) and the candidate frontier CanA.
//
// The region is an *incremental engine*: every derived view is maintained
// under Insert/Erase instead of being recomputed from scratch, which is
// what turns per-level expansion from O(n^2) into O(log n) amortized per
// step (docs/PERFORMANCE.md):
//   * membership      — dense per-network bitmap, O(1);
//   * id order        — sorted vector (canonical published form);
//   * length order    — lazily built, dirty-flagged cache; once built it
//                       is maintained by O(log n) positional insert/erase;
//   * frontier        — lazily enabled adjacency counters; once enabled,
//                       Insert/Erase apply adjacency deltas so the ring-1
//                       frontier needs no BFS;
//   * bounds          — extended on Insert, recomputed lazily after Erase;
//   * user count      — running sum against one occupancy snapshot, so
//                       Satisfied() checks stop re-scanning the region.
// All views stay bit-identical to their from-scratch definitions; the
// region-engine property test pins that against a naive reference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mobility/trace.h"
#include "roadnet/road_network.h"

namespace rcloak::core {

using roadnet::SegmentId;

// Canonical segment ordering used for every table row/column: ascending
// (length, id). The id tiebreak makes the order total and deterministic on
// maps with equal-length segments (e.g. perfect grids).
struct LengthOrder {
  const roadnet::RoadNetwork* net;
  bool operator()(SegmentId x, SegmentId y) const {
    const double lx = net->segment(x).length;
    const double ly = net->segment(y).length;
    if (lx != ly) return lx < ly;
    return roadnet::Index(x) < roadnet::Index(y);
  }
};

class CloakRegion {
 public:
  explicit CloakRegion(const roadnet::RoadNetwork& net)
      : net_(&net), member_(net.segment_count(), 0) {}

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

  // Members sorted by the canonical (length, id) order: the table's rows.
  // The cache is built on first use and maintained incrementally after.
  const std::vector<SegmentId>& LengthSorted() const;

  // Copying wrapper kept for callers that want to own the vector.
  std::vector<SegmentId> SortedByLength() const { return LengthSorted(); }

  // Rank of `id` in the (length, id) order, or size() if not a member.
  std::size_t LengthRankOf(SegmentId id) const;

  // Ring-1 frontier: segments adjacent to the region but outside it,
  // sorted by (length, id): the table's columns. The reference stays valid
  // until the next Insert/Erase.
  const std::vector<SegmentId>& Frontier() const;

  // Frontier for the RGE transition table. Starts from ring-1; while the
  // candidate set is smaller than `min_size`, deterministically expands by
  // one more adjacency ring ("links rebuilt on the fly", DESIGN.md §3).
  // `rings_used` (optional) reports how many rings were taken. The span
  // stays valid until the next call or the next Insert/Erase.
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
  void EnsureFrontier() const;
  void FrontierInsertDeltas(SegmentId id);
  void FrontierEraseDeltas(SegmentId id);

  // Multi-ring fallback engine (see the member block below).
  std::uint32_t FallbackDist(SegmentId id) const noexcept;
  void FallbackReset() const;
  std::size_t FallbackGrowRing() const;
  void FallbackOnInsert(SegmentId id);

  const roadnet::RoadNetwork* net_;
  // O(1) membership; one byte per network segment.
  std::vector<std::uint8_t> member_;
  // Sorted-by-id members: the deterministic canonical form.
  std::vector<SegmentId> segments_;

  // ---- length-order cache ------------------------------------------------
  mutable std::vector<SegmentId> by_length_;
  mutable bool length_dirty_ = true;

  // ---- frontier engine (lazily enabled) ----------------------------------
  // adjacent_members_[s] = number of region members adjacent to segment s;
  // frontier_ = non-members with adjacent_members_ > 0, length-sorted.
  mutable bool frontier_enabled_ = false;
  mutable std::vector<std::uint32_t> adjacent_members_;
  mutable std::vector<SegmentId> frontier_;

  // ---- multi-ring fallback engine (carried across Inserts) ---------------
  // When ring-1 cannot satisfy FrontierAtLeast, the fallback materializes
  // BFS rings 2..R and KEEPS them: while the region only grows, every
  // segment's distance-to-region only shrinks, so Insert() runs a bounded
  // decrease-only BFS wave (classic dynamic-BFS edge insertion) instead of
  // the next call re-walking and re-sorting the whole candidate ball —
  // the path-topology hot spot of bench_e11. Erase/Clear invalidate; the
  // next fallback call rebuilds from ring 1. All outputs stay bit-identical
  // to the from-scratch BFS (pinned by region_engine_test).
  //
  // Distances are derived, not stored, for rings 0/1 (membership bitmap /
  // adjacency counters); fb_dist_ holds exact distances >= 2 for every
  // segment within the built horizon, valid iff its mark equals fb_epoch_.
  mutable bool fb_live_ = false;
  mutable std::uint32_t fb_epoch_ = 0;
  mutable int fb_rings_built_ = 1;  // deepest materialized ring
  mutable int fb_rings_out_ = 1;    // rings currently merged into fb_sorted_
  mutable std::vector<std::uint32_t> fb_dist_;
  mutable std::vector<std::uint32_t> fb_dist_mark_;
  // Segment is in fb_sorted_ iff its mark equals fb_epoch_.
  mutable std::vector<std::uint32_t> fb_out_mark_;
  // Ring r (r >= 2) members at index r-2; entries are lazily deleted (an
  // entry is live iff the segment's current distance still equals r).
  mutable std::vector<std::vector<SegmentId>> fb_rings_;
  mutable std::vector<std::size_t> fb_ring_count_;  // live entries per ring
  // The fallback result: rings 1..fb_rings_out_, length-sorted.
  mutable std::vector<SegmentId> fb_sorted_;
  mutable std::vector<SegmentId> fb_joins_;    // pending output additions
  mutable std::vector<SegmentId> fb_removed_;  // members pending removal
  mutable std::vector<SegmentId> fb_join_batch_;  // per-call scratch
  mutable std::vector<SegmentId> fb_merged_;      // merge scratch
  mutable std::vector<SegmentId> fb_wave_;        // BFS wave scratch
  mutable std::vector<std::uint32_t> fb_wave_dist_;

  // ---- bounds cache ------------------------------------------------------
  mutable geo::BoundingBox bounds_;
  mutable bool bounds_dirty_ = false;  // empty region: clean empty box

  // ---- running user count ------------------------------------------------
  mutable const mobility::OccupancySnapshot* user_cache_occ_ = nullptr;
  mutable std::uint64_t user_cache_stamp_ = 0;
  mutable std::uint64_t user_count_ = 0;
};

}  // namespace rcloak::core
