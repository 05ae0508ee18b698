#include "core/cloak_region.h"

#include <algorithm>
#include <cassert>

namespace rcloak::core {

namespace {
struct IdLess {
  bool operator()(SegmentId x, SegmentId y) const noexcept {
    return roadnet::Index(x) < roadnet::Index(y);
  }
};
}  // namespace

CloakRegion CloakRegion::FromSegments(const roadnet::RoadNetwork& net,
                                      const std::vector<SegmentId>& segments) {
  CloakRegion region(net);
  region.segments_ = segments;
  std::sort(region.segments_.begin(), region.segments_.end(), IdLess{});
  region.segments_.erase(
      std::unique(region.segments_.begin(), region.segments_.end()),
      region.segments_.end());
  for (SegmentId sid : region.segments_) {
    region.member_[roadnet::Index(sid)] = 1;
  }
  region.bounds_dirty_ = !region.segments_.empty();
  return region;
}

void CloakRegion::Insert(SegmentId id) {
  if (Contains(id)) return;
  member_[roadnet::Index(id)] = 1;
  const auto it =
      std::lower_bound(segments_.begin(), segments_.end(), id, IdLess{});
  segments_.insert(it, id);
  if (!length_dirty_) {
    const auto pos = std::lower_bound(by_length_.begin(), by_length_.end(),
                                      id, LengthOrder{net_});
    by_length_.insert(pos, id);
  }
  if (frontier_enabled_) {
    FrontierInsertDeltas(id);
    if (fb_live_) FallbackOnInsert(id);
  }
  if (!bounds_dirty_) bounds_.Extend(net_->SegmentBounds(id));
  if (user_cache_occ_ != nullptr) {
    if (user_cache_stamp_ == user_cache_occ_->stamp()) {
      user_count_ += user_cache_occ_->count(id);
    } else {
      user_cache_occ_ = nullptr;
    }
  }
}

void CloakRegion::Erase(SegmentId id) {
  if (!Contains(id)) return;
  member_[roadnet::Index(id)] = 0;
  const auto it =
      std::lower_bound(segments_.begin(), segments_.end(), id, IdLess{});
  segments_.erase(it);
  if (!length_dirty_) {
    const auto pos = std::lower_bound(by_length_.begin(), by_length_.end(),
                                      id, LengthOrder{net_});
    assert(pos != by_length_.end() && *pos == id);
    by_length_.erase(pos);
  }
  if (frontier_enabled_) FrontierEraseDeltas(id);
  // Distances can grow after an erase; the carried fallback only models
  // shrinkage, so it rebuilds on next use.
  fb_live_ = false;
  if (segments_.empty()) {
    bounds_ = geo::BoundingBox{};
    bounds_dirty_ = false;
  } else {
    bounds_dirty_ = true;
  }
  if (user_cache_occ_ != nullptr) {
    if (user_cache_stamp_ == user_cache_occ_->stamp()) {
      user_count_ -= user_cache_occ_->count(id);
    } else {
      user_cache_occ_ = nullptr;
    }
  }
}

void CloakRegion::Clear() {
  for (SegmentId sid : segments_) member_[roadnet::Index(sid)] = 0;
  segments_.clear();
  by_length_.clear();
  length_dirty_ = true;
  // Adjacency counters are stale once members vanish wholesale; disable the
  // frontier engine and let EnsureFrontier rebuild it lazily on next use.
  frontier_enabled_ = false;
  frontier_.clear();
  fb_live_ = false;
  bounds_ = geo::BoundingBox{};
  bounds_dirty_ = false;
  user_cache_occ_ = nullptr;
}

const std::vector<SegmentId>& CloakRegion::LengthSorted() const {
  if (length_dirty_) {
    by_length_ = segments_;
    std::sort(by_length_.begin(), by_length_.end(), LengthOrder{net_});
    length_dirty_ = false;
  }
  return by_length_;
}

std::size_t CloakRegion::LengthRankOf(SegmentId id) const {
  if (!Contains(id)) return size();
  const auto& sorted = LengthSorted();
  const auto pos = std::lower_bound(sorted.begin(), sorted.end(), id,
                                    LengthOrder{net_});
  assert(pos != sorted.end() && *pos == id);
  return static_cast<std::size_t>(pos - sorted.begin());
}

void CloakRegion::EnsureFrontier() const {
  if (frontier_enabled_) return;
  adjacent_members_.assign(net_->segment_count(), 0);
  frontier_.clear();
  for (SegmentId sid : segments_) {
    net_->ForEachAdjacentSegment(sid, [&](SegmentId adj) {
      if (++adjacent_members_[roadnet::Index(adj)] == 1 && !Contains(adj)) {
        frontier_.push_back(adj);
      }
    });
  }
  std::sort(frontier_.begin(), frontier_.end(), LengthOrder{net_});
  frontier_enabled_ = true;
}

void CloakRegion::FrontierInsertDeltas(SegmentId id) {
  // `id` is already a member: drop it from the frontier if it was there.
  if (adjacent_members_[roadnet::Index(id)] > 0) {
    const auto pos = std::lower_bound(frontier_.begin(), frontier_.end(), id,
                                      LengthOrder{net_});
    if (pos != frontier_.end() && *pos == id) frontier_.erase(pos);
  }
  net_->ForEachAdjacentSegment(id, [&](SegmentId adj) {
    if (++adjacent_members_[roadnet::Index(adj)] == 1 && !Contains(adj)) {
      const auto pos = std::lower_bound(frontier_.begin(), frontier_.end(),
                                        adj, LengthOrder{net_});
      frontier_.insert(pos, adj);
      // New ring-1 segments join the fallback output on its next call.
      if (fb_live_) fb_joins_.push_back(adj);
    }
  });
}

void CloakRegion::FrontierEraseDeltas(SegmentId id) {
  // `id` is no longer a member: retract its adjacency contributions.
  net_->ForEachAdjacentSegment(id, [&](SegmentId adj) {
    if (--adjacent_members_[roadnet::Index(adj)] == 0 && !Contains(adj)) {
      const auto pos = std::lower_bound(frontier_.begin(), frontier_.end(),
                                        adj, LengthOrder{net_});
      if (pos != frontier_.end() && *pos == adj) frontier_.erase(pos);
    }
  });
  if (adjacent_members_[roadnet::Index(id)] > 0) {
    const auto pos = std::lower_bound(frontier_.begin(), frontier_.end(), id,
                                      LengthOrder{net_});
    frontier_.insert(pos, id);
  }
}

const std::vector<SegmentId>& CloakRegion::Frontier() const {
  EnsureFrontier();
  return frontier_;
}

namespace {
constexpr std::uint32_t kFbUnknown = 0xFFFFFFFFu;
}  // namespace

std::uint32_t CloakRegion::FallbackDist(SegmentId id) const noexcept {
  const std::uint32_t i = roadnet::Index(id);
  if (member_[i] != 0) return 0;
  if (adjacent_members_[i] > 0) return 1;
  if (fb_dist_mark_[i] == fb_epoch_) return fb_dist_[i];
  return kFbUnknown;
}

void CloakRegion::FallbackReset() const {
  if (fb_dist_.size() != net_->segment_count()) {
    fb_dist_.assign(net_->segment_count(), 0);
    fb_dist_mark_.assign(net_->segment_count(), 0);
    fb_out_mark_.assign(net_->segment_count(), 0);
    fb_epoch_ = 0;
  }
  if (++fb_epoch_ == 0) {  // epoch wrap: clear stale marks
    std::fill(fb_dist_mark_.begin(), fb_dist_mark_.end(), 0);
    std::fill(fb_out_mark_.begin(), fb_out_mark_.end(), 0);
    fb_epoch_ = 1;
  }
  // Ring storage beyond fb_rings_built_ is stale, never cleared: GrowRing
  // overwrites a slot before the ring becomes visible again.
  fb_rings_built_ = 1;
  fb_rings_out_ = 1;
  fb_sorted_ = frontier_;
  for (SegmentId sid : frontier_) {
    fb_out_mark_[roadnet::Index(sid)] = fb_epoch_;
  }
  fb_joins_.clear();
  fb_removed_.clear();
  fb_live_ = true;
}

std::size_t CloakRegion::FallbackGrowRing() const {
  const int r = fb_rings_built_ + 1;
  if (fb_rings_.size() < static_cast<std::size_t>(r - 1)) {
    fb_rings_.resize(static_cast<std::size_t>(r - 1));
    fb_ring_count_.resize(static_cast<std::size_t>(r - 1), 0);
  }
  auto& ring = fb_rings_[static_cast<std::size_t>(r - 2)];
  ring.clear();
  auto scan_source = [&](SegmentId v) {
    net_->ForEachAdjacentSegment(v, [&](SegmentId w) {
      const std::uint32_t wi = roadnet::Index(w);
      if (member_[wi] != 0 || adjacent_members_[wi] > 0) return;
      if (fb_dist_mark_[wi] == fb_epoch_) return;  // already at a dist < r
      fb_dist_[wi] = static_cast<std::uint32_t>(r);
      fb_dist_mark_[wi] = fb_epoch_;
      ring.push_back(w);
    });
  };
  if (fb_rings_built_ == 1) {
    for (SegmentId v : frontier_) scan_source(v);
  } else {
    // Live entries of the current outermost ring are the BFS sources.
    for (SegmentId v : fb_rings_[static_cast<std::size_t>(
             fb_rings_built_ - 2)]) {
      if (FallbackDist(v) == static_cast<std::uint32_t>(fb_rings_built_)) {
        scan_source(v);
      }
    }
  }
  fb_ring_count_[static_cast<std::size_t>(r - 2)] = ring.size();
  fb_rings_built_ = r;
  return ring.size();
}

void CloakRegion::FallbackOnInsert(SegmentId id) {
  const std::uint32_t i = roadnet::Index(id);
  auto retire_ring_slot = [&](std::uint32_t seg) {
    if (fb_dist_mark_[seg] == fb_epoch_) {
      --fb_ring_count_[fb_dist_[seg] - 2];
      fb_dist_mark_[seg] = 0;
    }
  };
  // `id` is a member now: retire its ring slot and queue its removal from
  // the merged output.
  retire_ring_slot(i);
  if (fb_out_mark_[i] == fb_epoch_) {
    fb_out_mark_[i] = 0;
    fb_removed_.push_back(id);
  }
  // Decrease-only BFS wave from the new member: a segment's distance to
  // the region shrinks iff its distance to `id` is smaller, and the wave
  // visits exactly those segments (bounded by the built horizon — deeper
  // distances are unknown by invariant and stay unknown).
  fb_wave_.clear();
  fb_wave_dist_.clear();
  net_->ForEachAdjacentSegment(id, [&](SegmentId v) {
    const std::uint32_t vi = roadnet::Index(v);
    if (member_[vi] != 0) return;
    // Adjacency counters already include `id`: a second member neighbour
    // means v was ring-1 before this insert, so nothing shrank.
    if (adjacent_members_[vi] >= 2) return;
    retire_ring_slot(vi);  // v moved into ring 1 (frontier hook queued it)
    fb_wave_.push_back(v);
    fb_wave_dist_.push_back(1);
  });
  for (std::size_t head = 0; head < fb_wave_.size(); ++head) {
    const SegmentId v = fb_wave_[head];
    const std::uint32_t cand = fb_wave_dist_[head] + 1;
    if (cand > static_cast<std::uint32_t>(fb_rings_built_)) continue;
    net_->ForEachAdjacentSegment(v, [&](SegmentId w) {
      const std::uint32_t wi = roadnet::Index(w);
      if (member_[wi] != 0 || adjacent_members_[wi] > 0) return;
      const std::uint32_t old = fb_dist_mark_[wi] == fb_epoch_
                                    ? fb_dist_[wi]
                                    : kFbUnknown;
      if (cand >= old) return;
      if (old != kFbUnknown) --fb_ring_count_[old - 2];
      fb_dist_[wi] = cand;
      fb_dist_mark_[wi] = fb_epoch_;
      ++fb_ring_count_[cand - 2];
      fb_rings_[cand - 2].push_back(w);
      if (fb_out_mark_[wi] != fb_epoch_) fb_joins_.push_back(w);
      fb_wave_.push_back(w);
      fb_wave_dist_.push_back(cand);
    });
  }
}

std::span<const SegmentId> CloakRegion::FrontierAtLeast(
    std::size_t min_size, int* rings_used) const {
  assert(!segments_.empty() && "frontier of empty region");
  EnsureFrontier();
  const std::size_t target = std::max<std::size_t>(min_size, 1);
  if (frontier_.empty()) {
    if (rings_used != nullptr) *rings_used = 0;
    return {};
  }
  if (frontier_.size() >= target) {
    if (rings_used != nullptr) *rings_used = 1;
    return frontier_;
  }

  // Ring-1 is too small: serve from the carried multi-ring structure,
  // (re)building it only after an invalidating Erase/Clear.
  if (!fb_live_) FallbackReset();

  // How many rings the target needs, growing the horizon as required.
  // Ring counts are exact, so interior rings can never be empty while a
  // deeper ring is populated; an empty next ring means the component is
  // exhausted (matching the from-scratch BFS).
  std::size_t cum = frontier_.size();
  int rings = 1;
  while (cum < target) {
    if (rings + 1 > fb_rings_built_) {
      if (FallbackGrowRing() == 0) break;
    }
    const std::size_t count =
        fb_ring_count_[static_cast<std::size_t>(rings - 1)];
    if (count == 0) break;
    ++rings;
    cum += count;
  }

  // Reconcile the merged output. Members leave point-wise; a shrunk
  // radius filters one pass (and re-queues nothing — deeper rings stay
  // materialized for the next growth).
  if (rings < fb_rings_out_) {
    fb_removed_.clear();  // the filter drops members as well
    std::size_t kept = 0;
    for (SegmentId sid : fb_sorted_) {
      const std::uint32_t dist = FallbackDist(sid);
      if (dist >= 1 && dist <= static_cast<std::uint32_t>(rings)) {
        fb_sorted_[kept++] = sid;
      } else {
        fb_out_mark_[roadnet::Index(sid)] = 0;
      }
    }
    fb_sorted_.resize(kept);
  } else {
    for (SegmentId sid : fb_removed_) {
      const auto pos = std::lower_bound(fb_sorted_.begin(), fb_sorted_.end(),
                                        sid, LengthOrder{net_});
      assert(pos != fb_sorted_.end() && *pos == sid);
      fb_sorted_.erase(pos);
    }
    fb_removed_.clear();
  }

  // Joins: wave-discovered / new ring-1 segments, plus whole rings that
  // moved inside the output radius.
  fb_join_batch_.clear();
  for (SegmentId sid : fb_joins_) {
    const std::uint32_t i = roadnet::Index(sid);
    if (member_[i] != 0 || fb_out_mark_[i] == fb_epoch_) continue;
    const std::uint32_t dist = FallbackDist(sid);
    // Too-deep nodes are dropped here; their ring list re-surfaces them
    // if the radius ever grows past them.
    if (dist <= static_cast<std::uint32_t>(rings)) {
      fb_join_batch_.push_back(sid);
    }
  }
  fb_joins_.clear();
  for (int r = std::max(fb_rings_out_ + 1, 2); r <= rings; ++r) {
    for (SegmentId sid : fb_rings_[static_cast<std::size_t>(r - 2)]) {
      if (FallbackDist(sid) == static_cast<std::uint32_t>(r) &&
          fb_out_mark_[roadnet::Index(sid)] != fb_epoch_) {
        fb_join_batch_.push_back(sid);
      }
    }
  }
  if (!fb_join_batch_.empty()) {
    std::sort(fb_join_batch_.begin(), fb_join_batch_.end(),
              LengthOrder{net_});
    fb_join_batch_.erase(
        std::unique(fb_join_batch_.begin(), fb_join_batch_.end()),
        fb_join_batch_.end());
    for (SegmentId sid : fb_join_batch_) {
      fb_out_mark_[roadnet::Index(sid)] = fb_epoch_;
    }
    // Merged into the reused scratch, then swapped in: std::inplace_merge
    // would allocate a temporary buffer on every call.
    fb_merged_.resize(fb_sorted_.size() + fb_join_batch_.size());
    std::merge(fb_sorted_.begin(), fb_sorted_.end(), fb_join_batch_.begin(),
               fb_join_batch_.end(), fb_merged_.begin(), LengthOrder{net_});
    fb_sorted_.swap(fb_merged_);
  }
  fb_rings_out_ = rings;
  if (rings_used != nullptr) *rings_used = rings;
  return fb_sorted_;
}

std::uint64_t CloakRegion::UserCount(
    const mobility::OccupancySnapshot& occupancy) const {
  if (user_cache_occ_ == &occupancy &&
      user_cache_stamp_ == occupancy.stamp()) {
    return user_count_;
  }
  std::uint64_t users = 0;
  for (SegmentId sid : segments_) users += occupancy.count(sid);
  user_cache_occ_ = &occupancy;
  user_cache_stamp_ = occupancy.stamp();
  user_count_ = users;
  return users;
}

geo::BoundingBox CloakRegion::Bounds() const {
  if (bounds_dirty_) {
    bounds_ = geo::BoundingBox{};
    for (SegmentId sid : segments_) bounds_.Extend(net_->SegmentBounds(sid));
    bounds_dirty_ = false;
  }
  return bounds_;
}

}  // namespace rcloak::core
