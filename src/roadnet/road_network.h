// Road network model: junctions (intersections) joined by segments, per the
// paper's road-network cloaking setting ("a set of segments as the
// connections of adjacent junctions and a set of junctions as the
// intersections of segments").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geo/geometry.h"
#include "util/status.h"

namespace rcloak::roadnet {

// Strong index types. 32-bit indices are plenty (the paper's largest map is
// ~9.2k segments; scaling benches go to ~100k).
enum class JunctionId : std::uint32_t {};
enum class SegmentId : std::uint32_t {};

constexpr std::uint32_t Index(JunctionId id) noexcept {
  return static_cast<std::uint32_t>(id);
}
constexpr std::uint32_t Index(SegmentId id) noexcept {
  return static_cast<std::uint32_t>(id);
}

inline constexpr SegmentId kInvalidSegment{0xFFFFFFFFu};
inline constexpr JunctionId kInvalidJunction{0xFFFFFFFFu};

// Road category; affects default travel speed in the mobility simulator.
enum class RoadClass : std::uint8_t {
  kResidential = 0,
  kCollector = 1,
  kArterial = 2,
  kHighway = 3,
};

double DefaultSpeedMps(RoadClass road_class) noexcept;

struct Junction {
  geo::Point position;
  // Incident segment ids, sorted ascending (canonical form).
  std::vector<SegmentId> incident;
};

struct Segment {
  JunctionId a = kInvalidJunction;
  JunctionId b = kInvalidJunction;
  double length = 0.0;  // meters; >= Euclidean distance of endpoints
  RoadClass road_class = RoadClass::kResidential;

  JunctionId Other(JunctionId j) const noexcept { return j == a ? b : a; }
  bool Touches(JunctionId j) const noexcept { return j == a || j == b; }
};

// Immutable after Build(); cheap shared reads from many threads.
class RoadNetwork {
 public:
  class Builder;

  std::size_t junction_count() const noexcept { return junctions_.size(); }
  std::size_t segment_count() const noexcept { return segments_.size(); }

  const Junction& junction(JunctionId id) const {
    return junctions_[Index(id)];
  }
  const Segment& segment(SegmentId id) const { return segments_[Index(id)]; }

  bool IsValid(SegmentId id) const noexcept {
    return Index(id) < segments_.size();
  }
  bool IsValid(JunctionId id) const noexcept {
    return Index(id) < junctions_.size();
  }

  geo::Point SegmentMidpoint(SegmentId id) const {
    const Segment& s = segment(id);
    return geo::Midpoint(junction(s.a).position, junction(s.b).position);
  }
  geo::BoundingBox SegmentBounds(SegmentId id) const {
    const Segment& s = segment(id);
    geo::BoundingBox box;
    box.Extend(junction(s.a).position);
    box.Extend(junction(s.b).position);
    return box;
  }

  // Segments sharing a junction with `id`, excluding `id` itself.
  // Deterministic order (ascending segment id), duplicates removed.
  std::vector<SegmentId> AdjacentSegments(SegmentId id) const;

  // Allocation-free visitor over the same set as AdjacentSegments (each
  // neighbour exactly once, in unspecified order). The hot path of the
  // incremental cloak-region frontier, so Build() flattens every
  // segment's neighbours into one contiguous array.
  template <typename Fn>
  void ForEachAdjacentSegment(SegmentId id, Fn&& fn) const {
    const std::uint32_t end = adjacency_offset_[Index(id) + 1];
    for (std::uint32_t k = adjacency_offset_[Index(id)]; k < end; ++k) {
      fn(adjacency_[k]);
    }
  }

  // True if the two distinct segments share at least one junction.
  bool AreAdjacent(SegmentId x, SegmentId y) const;

  // Dense rank of a segment in the canonical (length, id) order
  // (LengthOrder below), and its inverse. Built once by Builder::Build; the
  // cloak region keeps its length-ordered views as bitsets over this rank.
  std::uint32_t LengthRank(SegmentId id) const {
    return length_rank_[Index(id)];
  }
  SegmentId SegmentAtLengthRank(std::uint32_t rank) const {
    return by_length_[rank];
  }

  geo::BoundingBox bounds() const noexcept { return bounds_; }
  double total_length() const noexcept { return total_length_; }

  // Structural invariants: endpoint validity, incident-list symmetry,
  // positive lengths. Used by tests and after deserialization.
  Status Validate() const;

  std::span<const Junction> junctions() const noexcept { return junctions_; }
  std::span<const Segment> segments() const noexcept { return segments_; }

 private:
  friend class Builder;
  std::vector<Junction> junctions_;
  std::vector<Segment> segments_;
  // Segment i's neighbours are adjacency_[adjacency_offset_[i] ..
  // adjacency_offset_[i + 1]).
  std::vector<std::uint32_t> adjacency_offset_;
  std::vector<SegmentId> adjacency_;
  std::vector<std::uint32_t> length_rank_;  // segment index -> rank
  std::vector<SegmentId> by_length_;        // rank -> segment
  geo::BoundingBox bounds_;
  double total_length_ = 0.0;
};

// Canonical segment ordering used for every transition-table row/column:
// ascending (length, id). The id tiebreak makes the order total and
// deterministic on maps with equal-length segments (e.g. perfect grids).
// Defined on the segment lengths themselves; RoadNetwork::LengthRank is
// derived from it.
struct LengthOrder {
  const RoadNetwork* net;
  bool operator()(SegmentId x, SegmentId y) const {
    const double lx = net->segment(x).length;
    const double ly = net->segment(y).length;
    if (lx != ly) return lx < ly;
    return Index(x) < Index(y);
  }
};

class RoadNetwork::Builder {
 public:
  JunctionId AddJunction(geo::Point position);
  // Length defaults to the Euclidean endpoint distance.
  StatusOr<SegmentId> AddSegment(JunctionId a, JunctionId b,
                                 RoadClass road_class = RoadClass::kResidential,
                                 double length = -1.0);
  std::size_t junction_count() const noexcept { return junctions_.size(); }
  std::size_t segment_count() const noexcept { return segments_.size(); }

  // Finalizes incident lists and summary fields. Builder is left empty.
  RoadNetwork Build();

 private:
  std::vector<Junction> junctions_;
  std::vector<Segment> segments_;
};

}  // namespace rcloak::roadnet
