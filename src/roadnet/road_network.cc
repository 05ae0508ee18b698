#include "roadnet/road_network.h"

#include <algorithm>

namespace rcloak::roadnet {

double DefaultSpeedMps(RoadClass road_class) noexcept {
  switch (road_class) {
    case RoadClass::kResidential: return 8.3;   // ~30 km/h
    case RoadClass::kCollector: return 11.1;    // ~40 km/h
    case RoadClass::kArterial: return 16.7;     // ~60 km/h
    case RoadClass::kHighway: return 27.8;      // ~100 km/h
  }
  return 8.3;
}

std::vector<SegmentId> RoadNetwork::AdjacentSegments(SegmentId id) const {
  const Segment& s = segment(id);
  std::vector<SegmentId> out;
  const auto& inc_a = junction(s.a).incident;
  const auto& inc_b = junction(s.b).incident;
  out.reserve(inc_a.size() + inc_b.size());
  for (SegmentId other : inc_a) {
    if (other != id) out.push_back(other);
  }
  for (SegmentId other : inc_b) {
    if (other != id) out.push_back(other);
  }
  std::sort(out.begin(), out.end(),
            [](SegmentId x, SegmentId y) { return Index(x) < Index(y); });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool RoadNetwork::AreAdjacent(SegmentId x, SegmentId y) const {
  if (x == y) return false;
  const Segment& sx = segment(x);
  const Segment& sy = segment(y);
  return sy.Touches(sx.a) || sy.Touches(sx.b);
}

Status RoadNetwork::Validate() const {
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    if (Index(s.a) >= junctions_.size() || Index(s.b) >= junctions_.size()) {
      return Status::DataLoss("segment " + std::to_string(i) +
                              " has out-of-range junction");
    }
    if (s.a == s.b) {
      return Status::DataLoss("segment " + std::to_string(i) +
                              " is a self-loop");
    }
    if (!(s.length > 0.0)) {
      return Status::DataLoss("segment " + std::to_string(i) +
                              " has non-positive length");
    }
    const SegmentId sid{static_cast<std::uint32_t>(i)};
    const auto& inc_a = junctions_[Index(s.a)].incident;
    const auto& inc_b = junctions_[Index(s.b)].incident;
    if (std::find(inc_a.begin(), inc_a.end(), sid) == inc_a.end() ||
        std::find(inc_b.begin(), inc_b.end(), sid) == inc_b.end()) {
      return Status::DataLoss("segment " + std::to_string(i) +
                              " missing from incident list");
    }
  }
  for (std::size_t j = 0; j < junctions_.size(); ++j) {
    for (SegmentId sid : junctions_[j].incident) {
      if (Index(sid) >= segments_.size()) {
        return Status::DataLoss("junction " + std::to_string(j) +
                                " lists out-of-range segment");
      }
      if (!segments_[Index(sid)].Touches(JunctionId{
              static_cast<std::uint32_t>(j)})) {
        return Status::DataLoss("junction " + std::to_string(j) +
                                " lists non-incident segment");
      }
    }
  }
  return Status::Ok();
}

JunctionId RoadNetwork::Builder::AddJunction(geo::Point position) {
  const JunctionId id{static_cast<std::uint32_t>(junctions_.size())};
  junctions_.push_back(Junction{position, {}});
  return id;
}

StatusOr<SegmentId> RoadNetwork::Builder::AddSegment(JunctionId a,
                                                     JunctionId b,
                                                     RoadClass road_class,
                                                     double length) {
  if (Index(a) >= junctions_.size() || Index(b) >= junctions_.size()) {
    return Status::InvalidArgument("AddSegment: unknown junction");
  }
  if (a == b) {
    return Status::InvalidArgument("AddSegment: self-loop segments are not "
                                   "allowed on road networks");
  }
  Segment s;
  s.a = a;
  s.b = b;
  s.road_class = road_class;
  const double euclid =
      geo::Distance(junctions_[Index(a)].position, junctions_[Index(b)].position);
  s.length = length > 0.0 ? length : euclid;
  if (!(s.length > 0.0)) {
    return Status::InvalidArgument(
        "AddSegment: zero-length segment (coincident junctions)");
  }
  const SegmentId id{static_cast<std::uint32_t>(segments_.size())};
  segments_.push_back(s);
  junctions_[Index(a)].incident.push_back(id);
  junctions_[Index(b)].incident.push_back(id);
  return id;
}

RoadNetwork RoadNetwork::Builder::Build() {
  RoadNetwork net;
  net.junctions_ = std::move(junctions_);
  net.segments_ = std::move(segments_);
  junctions_.clear();
  segments_.clear();
  for (auto& junction : net.junctions_) {
    std::sort(junction.incident.begin(), junction.incident.end(),
              [](SegmentId x, SegmentId y) { return Index(x) < Index(y); });
    net.bounds_.Extend(junction.position);
  }
  for (const auto& segment : net.segments_) {
    net.total_length_ += segment.length;
  }
  const std::size_t n = net.segments_.size();
  net.adjacency_offset_.reserve(n + 1);
  net.adjacency_offset_.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    const SegmentId id{static_cast<std::uint32_t>(i)};
    const Segment& s = net.segments_[i];
    for (SegmentId other : net.junction(s.a).incident) {
      if (other != id) net.adjacency_.push_back(other);
    }
    for (SegmentId other : net.junction(s.b).incident) {
      // A neighbour incident to both endpoints was already listed via a.
      if (other != id && !net.segment(other).Touches(s.a)) {
        net.adjacency_.push_back(other);
      }
    }
    net.adjacency_offset_.push_back(
        static_cast<std::uint32_t>(net.adjacency_.size()));
  }
  net.by_length_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    net.by_length_[i] = SegmentId{static_cast<std::uint32_t>(i)};
  }
  std::sort(net.by_length_.begin(), net.by_length_.end(), LengthOrder{&net});
  net.length_rank_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    net.length_rank_[Index(net.by_length_[r])] = static_cast<std::uint32_t>(r);
  }
  return net;
}

}  // namespace rcloak::roadnet
