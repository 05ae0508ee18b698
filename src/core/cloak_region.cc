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
    region.ranked_.Set(net.LengthRank(sid));
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
  ranked_.Set(RankOf(id));
  length_dirty_ = true;
  if (frontier_enabled_) FrontierInsertDeltas(id);
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
  ranked_.Reset(RankOf(id));
  length_dirty_ = true;
  if (frontier_enabled_) FrontierEraseDeltas(id);
  if (fb_live_) FallbackOnErase(id);
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
  for (SegmentId sid : segments_) {
    member_[roadnet::Index(sid)] = 0;
    // The members' neighbours hold the only nonzero adjacency counters, so
    // zeroing them keeps the frontier engine enabled over an empty region.
    if (frontier_enabled_) {
      net_->ForEachAdjacentSegment(sid, [&](SegmentId adj) {
        adjacent_members_[roadnet::Index(adj)] = 0;
      });
    }
  }
  segments_.clear();
  ranked_.Clear();
  length_dirty_ = true;
  frontier_.Clear();
  fb_live_ = false;
  bounds_ = geo::BoundingBox{};
  bounds_dirty_ = false;
  user_cache_occ_ = nullptr;
}

void CloakRegion::FillFromRanks(const RankBitset& bits,
                                std::vector<SegmentId>& out) const {
  out.clear();
  out.reserve(bits.count());
  bits.ForEach([&](std::uint32_t rank) {
    out.push_back(net_->SegmentAtLengthRank(rank));
  });
}

const std::vector<SegmentId>& CloakRegion::LengthSorted() const {
  if (length_dirty_) {
    FillFromRanks(ranked_, by_length_);
    length_dirty_ = false;
  }
  return by_length_;
}

std::size_t CloakRegion::LengthRankOf(SegmentId id) const {
  if (!Contains(id)) return size();
  return ranked_.Rank(RankOf(id));
}

void CloakRegion::EnsureFrontier() const {
  if (frontier_enabled_) return;
  adjacent_members_.assign(net_->segment_count(), 0);
  frontier_ = RankBitset(net_->segment_count());
  for (SegmentId sid : segments_) {
    net_->ForEachAdjacentSegment(sid, [&](SegmentId adj) {
      if (++adjacent_members_[roadnet::Index(adj)] == 1 && !Contains(adj)) {
        frontier_.Set(RankOf(adj));
      }
    });
  }
  frontier_enabled_ = true;
}

void CloakRegion::FrontierInsertDeltas(SegmentId id) {
  // `id` is already a member: drop it from the frontier and the fallback
  // if it was there.
  frontier_.Reset(RankOf(id));
  if (fb_live_) {
    FallbackRetire(id);
    fb_out_.Reset(RankOf(id));
    fb_wave_.clear();
  }
  net_->ForEachAdjacentSegment(id, [&](SegmentId adj) {
    if (++adjacent_members_[roadnet::Index(adj)] == 1 && !Contains(adj)) {
      frontier_.Set(RankOf(adj));
      if (fb_live_) {
        // adj moved into ring 1, which lies inside every fallback radius;
        // its distance shrank, so the fallback's wave starts from it.
        FallbackRetire(adj);
        fb_out_.Set(RankOf(adj));
        fb_wave_.push_back(adj);
      }
    }
  });
  if (fb_live_) FallbackWave();
}

void CloakRegion::FrontierEraseDeltas(SegmentId id) {
  // `id` is no longer a member: retract its adjacency contributions.
  net_->ForEachAdjacentSegment(id, [&](SegmentId adj) {
    if (--adjacent_members_[roadnet::Index(adj)] == 0 && !Contains(adj)) {
      frontier_.Reset(RankOf(adj));
    }
  });
  if (adjacent_members_[roadnet::Index(id)] > 0) frontier_.Set(RankOf(id));
}

const std::vector<SegmentId>& CloakRegion::Frontier() const {
  EnsureFrontier();
  FillFromRanks(frontier_, frontier_list_);
  return frontier_list_;
}

namespace {
constexpr std::uint32_t kFbUnknown = 0xFFFFFFFFu;
}  // namespace

std::uint32_t CloakRegion::FallbackDist(SegmentId id) const noexcept {
  const std::uint32_t i = roadnet::Index(id);
  if (member_[i] != 0) return 0;
  if (adjacent_members_[i] > 0) return 1;
  if (fb_dist_[i].epoch == fb_epoch_) return fb_dist_[i].dist;
  return kFbUnknown;
}

void CloakRegion::FallbackReset() const {
  if (fb_dist_.size() != net_->segment_count()) {
    fb_dist_.assign(net_->segment_count(), FbDist{});
    fb_epoch_ = 0;
  }
  if (++fb_epoch_ == 0) {  // epoch wrap: clear stale marks
    std::fill(fb_dist_.begin(), fb_dist_.end(), FbDist{});
    fb_epoch_ = 1;
  }
  // Ring storage beyond fb_rings_built_ is stale, never cleared: GrowRing
  // overwrites a slot before the ring becomes visible again.
  fb_rings_built_ = 1;
  fb_rings_out_ = 1;
  fb_out_.CopyFrom(frontier_);
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
      if (fb_dist_[wi].epoch == fb_epoch_) return;  // already at a dist < r
      fb_dist_[wi].dist = static_cast<std::uint32_t>(r);
      fb_dist_[wi].epoch = fb_epoch_;
      ring.push_back(w);
    });
  };
  if (fb_rings_built_ == 1) {
    frontier_.ForEach([&](std::uint32_t rank) {
      scan_source(net_->SegmentAtLengthRank(rank));
    });
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

void CloakRegion::FallbackRetire(SegmentId id) noexcept {
  FbDist& slot = fb_dist_[roadnet::Index(id)];
  if (slot.epoch == fb_epoch_) {
    --fb_ring_count_[slot.dist - 2];
    slot.epoch = 0;
  }
}

void CloakRegion::FallbackWave() {
  // Decrease-only BFS wave from the segments that just moved into ring 1:
  // a segment's distance to the region shrinks iff its distance to the
  // new member is smaller, and the wave visits exactly those segments
  // (bounded by the built horizon — deeper distances are unknown by
  // invariant and stay unknown). BFS order reaches each segment first at
  // its final distance, so FallbackDist of a queued segment is the
  // distance it was queued at.
  for (std::size_t head = 0; head < fb_wave_.size(); ++head) {
    const std::uint32_t cand = FallbackDist(fb_wave_[head]) + 1;
    if (cand > static_cast<std::uint32_t>(fb_rings_built_)) continue;
    net_->ForEachAdjacentSegment(fb_wave_[head], [&](SegmentId w) {
      const std::uint32_t wi = roadnet::Index(w);
      if (member_[wi] != 0 || adjacent_members_[wi] > 0) return;
      FbDist& slot = fb_dist_[wi];
      const std::uint32_t old = slot.epoch == fb_epoch_ ? slot.dist : kFbUnknown;
      if (cand >= old) return;
      if (old != kFbUnknown) --fb_ring_count_[old - 2];
      slot = {fb_epoch_, cand};
      ++fb_ring_count_[cand - 2];
      fb_rings_[cand - 2].push_back(w);
      if (cand <= static_cast<std::uint32_t>(fb_rings_out_)) {
        fb_out_.Set(RankOf(w));
      }
      fb_wave_.push_back(w);
    });
  }
}

void CloakRegion::FallbackOnErase(SegmentId id) {
  // Distances to the region only grow, and only for the segments that had
  // a shortest way to the region through `id`: every other segment keeps
  // one that avoids it, and with it its distance. Those segments form a
  // BFS tree from `id` whose every hop adds exactly one to the old
  // distance, at most fb_rings_built_ deep. Only that ball is recomputed:
  // a BFS inside it, seeded from ring 1 and from the distances just
  // outside it.
  const auto horizon = static_cast<std::uint32_t>(fb_rings_built_);
  if (++fb_visit_ == 0) {  // stamp wrap: clear stale stamps
    for (FbDist& slot : fb_dist_) slot.visit = 0;
    fb_visit_ = 1;
  }
  const auto in_ball = [&](SegmentId s) {
    return fb_dist_[roadnet::Index(s)].visit == fb_visit_;
  };
  fb_ball_.assign(1, id);
  fb_dist_[roadnet::Index(id)].visit = fb_visit_;
  for (std::size_t begin = 0, depth = 0; depth < horizon; ++depth) {
    const std::size_t end = fb_ball_.size();
    for (std::size_t k = begin; k < end; ++k) {
      net_->ForEachAdjacentSegment(fb_ball_[k], [&](SegmentId w) {
        if (member_[roadnet::Index(w)] != 0 || in_ball(w)) return;
        // Every neighbour of `id` was at distance 1 through it; deeper, a
        // way through `id` reaches w at depth + 1 only if that was its
        // distance.
        if (depth > 0 && FallbackDist(w) != depth + 1) return;
        fb_dist_[roadnet::Index(w)].visit = fb_visit_;
        fb_ball_.push_back(w);
      });
    }
    begin = end;
  }

  // Retire the ball's distances, remembering which ring list holds each.
  fb_ball_old_.resize(fb_ball_.size());
  for (std::size_t k = 0; k < fb_ball_.size(); ++k) {
    FbDist& slot = fb_dist_[roadnet::Index(fb_ball_[k])];
    fb_ball_old_[k] = slot.epoch == fb_epoch_ ? slot.dist : 0;
    FallbackRetire(fb_ball_[k]);
  }
  // Seed every ball segment with its best way out of the ball, then relax
  // inside it in distance order (.dist holds the tentative distance).
  fb_buckets_.resize(horizon + 1);
  for (auto& bucket : fb_buckets_) bucket.clear();
  for (const SegmentId s : fb_ball_) {
    std::uint32_t best = kFbUnknown;
    if (adjacent_members_[roadnet::Index(s)] > 0) {
      best = 1;
    } else {
      net_->ForEachAdjacentSegment(s, [&](SegmentId t) {
        if (in_ball(t)) return;
        const std::uint32_t d = FallbackDist(t);
        if (d != kFbUnknown) best = std::min(best, d + 1);
      });
    }
    fb_dist_[roadnet::Index(s)].dist = best;
    if (best <= horizon) fb_buckets_[best].push_back(s);
  }
  for (std::uint32_t d = 1; d < horizon; ++d) {
    for (const SegmentId s : fb_buckets_[d]) {
      if (fb_dist_[roadnet::Index(s)].dist != d) continue;  // improved
      net_->ForEachAdjacentSegment(s, [&](SegmentId u) {
        FbDist& slot = fb_dist_[roadnet::Index(u)];
        if (slot.visit != fb_visit_ || slot.dist <= d + 1) return;
        slot.dist = d + 1;
        fb_buckets_[d + 1].push_back(u);
      });
    }
  }

  // Publish: ring slots and counts, ring lists, and the output radius.
  for (std::size_t k = 0; k < fb_ball_.size(); ++k) {
    const SegmentId s = fb_ball_[k];
    FbDist& slot = fb_dist_[roadnet::Index(s)];
    const std::uint32_t d =
        adjacent_members_[roadnet::Index(s)] > 0 ? 1 : slot.dist;
    if (d >= 2 && d <= horizon) {
      slot.epoch = fb_epoch_;
      ++fb_ring_count_[d - 2];
      if (fb_ball_old_[k] != d) fb_rings_[d - 2].push_back(s);
    }
    if (d <= static_cast<std::uint32_t>(fb_rings_out_)) {
      fb_out_.Set(RankOf(s));
    } else {
      fb_out_.Reset(RankOf(s));
    }
  }
}

const RankBitset& CloakRegion::RankedCandidates(std::size_t min_size,
                                                int* rings_used) const {
  assert(!segments_.empty() && "frontier of empty region");
  EnsureFrontier();
  const std::size_t target = std::max<std::size_t>(min_size, 1);
  if (frontier_.empty()) {
    if (rings_used != nullptr) *rings_used = 0;
    return frontier_;
  }
  if (frontier_.count() >= target) {
    if (rings_used != nullptr) *rings_used = 1;
    return frontier_;
  }

  // Ring-1 is too small: serve from the carried multi-ring structure,
  // (re)building it only after a Clear.
  if (!fb_live_) FallbackReset();

  // How many rings the target needs, growing the horizon as required.
  // Ring counts are exact, so interior rings can never be empty while a
  // deeper ring is populated; an empty next ring means the component is
  // exhausted (matching the from-scratch BFS).
  std::size_t cum = frontier_.count();
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

  // Move the output radius. Every segment at distance r >= 2 sits in ring
  // list r, so walking the lists between the old and the new radius finds
  // exactly the segments that cross it; deeper rings stay materialized
  // for the next growth.
  for (int r = rings + 1; r <= fb_rings_out_; ++r) {
    for (SegmentId sid : fb_rings_[static_cast<std::size_t>(r - 2)]) {
      if (FallbackDist(sid) > static_cast<std::uint32_t>(rings)) {
        fb_out_.Reset(RankOf(sid));
      }
    }
  }
  for (int r = std::max(fb_rings_out_ + 1, 2); r <= rings; ++r) {
    for (SegmentId sid : fb_rings_[static_cast<std::size_t>(r - 2)]) {
      if (FallbackDist(sid) == static_cast<std::uint32_t>(r)) {
        fb_out_.Set(RankOf(sid));
      }
    }
  }
  fb_rings_out_ = rings;
  if (rings_used != nullptr) *rings_used = rings;
  return fb_out_;
}

std::span<const SegmentId> CloakRegion::FrontierAtLeast(
    std::size_t min_size, int* rings_used) const {
  FillFromRanks(RankedCandidates(min_size, rings_used), candidates_list_);
  return candidates_list_;
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
