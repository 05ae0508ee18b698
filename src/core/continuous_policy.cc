#include "core/continuous_policy.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/algorithm.h"
#include "core/reversecloak.h"
#include "roadnet/road_network.h"

namespace rcloak::core {

namespace {

void PutDouble(Bytes& out, double v) {
  PutU64le(out, std::bit_cast<std::uint64_t>(v));
}

std::optional<double> GetDouble(const Bytes& in, std::size_t* offset) {
  const auto bits = GetU64le(in, offset);
  if (!bits) return std::nullopt;
  return std::bit_cast<double>(*bits);
}

Status Truncated() { return Status::DataLoss("policy blob truncated"); }

}  // namespace

ValidityRegion::ValidityRegion(std::vector<roadnet::SegmentId> segments)
    : segments_(std::move(segments)) {
  std::sort(segments_.begin(), segments_.end(),
            [](roadnet::SegmentId a, roadnet::SegmentId b) {
              return roadnet::Index(a) < roadnet::Index(b);
            });
}

bool ValidityRegion::Contains(roadnet::SegmentId id) const noexcept {
  return std::binary_search(segments_.begin(), segments_.end(), id,
                            [](roadnet::SegmentId a, roadnet::SegmentId b) {
                              return roadnet::Index(a) < roadnet::Index(b);
                            });
}

std::string ContinuousPolicy::EpochContext(std::uint64_t epoch) const {
  return core::EpochContext(user_id_, epoch);
}

ContinuousPolicy::Action ContinuousPolicy::OnUpdate(
    double now_s, roadnet::SegmentId current_segment) {
  ++stats_.updates;
  const bool have = artifact_ != nullptr;
  const bool inside =
      have && validity_region_ && validity_region_->Contains(current_segment);
  if (inside) return Action::kServe;
  const bool throttled =
      have && (now_s - stats_.last_recloak_time_s <
               options_.min_recloak_interval_s);
  if (throttled) {
    ++stats_.throttled_stale;
    return Action::kServeStale;
  }
  return Action::kRecloak;
}

void ContinuousPolicy::CommitRecloak(double now_s, CloakedArtifact artifact,
                                     CloakRegion validity_region) {
  // Keep only the segment set: the CloakRegion engine state (bitmap,
  // frontier caches) is per-network-sized and dies here.
  CommitRecloak(now_s,
                std::make_shared<const CloakedArtifact>(std::move(artifact)),
                ValidityRegion(validity_region.segments_by_id()));
}

void ContinuousPolicy::CommitRecloak(
    double now_s, std::shared_ptr<const CloakedArtifact> artifact,
    ValidityRegion validity_region) {
  if (artifact_) {
    stats_.validity_duration_total_s += now_s - artifact_created_s_;
  }
  ++epoch_;
  artifact_ = std::move(artifact);
  validity_region_ = std::move(validity_region);
  artifact_created_s_ = now_s;
  stats_.last_recloak_time_s = now_s;
  ++stats_.recloaks;
}

void ContinuousPolicy::Serialize(Bytes& out) const {
  out.push_back(static_cast<std::uint8_t>(algorithm_));
  PutVarint(out, static_cast<std::uint64_t>(profile_.num_levels()));
  for (int level = 1; level <= profile_.num_levels(); ++level) {
    const LevelRequirement& req = profile_.level(level);
    PutVarint(out, req.delta_k);
    PutVarint(out, req.delta_l);
    PutDouble(out, req.sigma_s);
  }
  PutVarint(out, static_cast<std::uint64_t>(options_.validity_level));
  PutDouble(out, options_.min_recloak_interval_s);
  PutVarint(out, epoch_);
  out.push_back(artifact_ ? 1 : 0);
  if (artifact_) {
    const Bytes encoded = EncodeArtifact(*artifact_);
    PutVarint(out, encoded.size());
    out.insert(out.end(), encoded.begin(), encoded.end());
  }
  out.push_back(validity_region_ ? 1 : 0);
  if (validity_region_) {
    const auto& segments = validity_region_->segments_by_id();
    PutVarint(out, segments.size());
    for (const roadnet::SegmentId sid : segments) {
      PutVarint(out, roadnet::Index(sid));
    }
  }
  PutDouble(out, artifact_created_s_);
  PutVarint(out, stats_.updates);
  PutVarint(out, stats_.recloaks);
  PutVarint(out, stats_.throttled_stale);
  PutDouble(out, stats_.last_recloak_time_s);
  PutDouble(out, stats_.validity_duration_total_s);
}

StatusOr<ContinuousPolicy> ContinuousPolicy::Deserialize(
    std::string user_id, const Bytes& data, std::size_t offset,
    const roadnet::RoadNetwork& net) {
  if (offset >= data.size()) return Truncated();
  ContinuousPolicy policy;
  policy.user_id_ = std::move(user_id);
  policy.algorithm_ = static_cast<Algorithm>(data[offset++]);
  if (FindAlgorithm(policy.algorithm_) == nullptr) {
    return Status::InvalidArgument("policy blob: unknown algorithm id");
  }
  const auto num_levels = GetVarint(data, &offset);
  if (!num_levels) return Truncated();
  std::vector<LevelRequirement> levels;
  for (std::uint64_t i = 0; i < *num_levels; ++i) {
    LevelRequirement req;
    const auto delta_k = GetVarint(data, &offset);
    const auto delta_l = GetVarint(data, &offset);
    const auto sigma_s = GetDouble(data, &offset);
    if (!delta_k || !delta_l || !sigma_s) return Truncated();
    req.delta_k = static_cast<std::uint32_t>(*delta_k);
    req.delta_l = static_cast<std::uint32_t>(*delta_l);
    req.sigma_s = *sigma_s;
    levels.push_back(req);
  }
  policy.profile_ = PrivacyProfile(std::move(levels));
  RCLOAK_RETURN_IF_ERROR(policy.profile_.Validate());
  const auto validity_level = GetVarint(data, &offset);
  const auto throttle_s = GetDouble(data, &offset);
  const auto epoch = GetVarint(data, &offset);
  if (!validity_level || !throttle_s || !epoch) return Truncated();
  if (*validity_level >
      static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return Status::DataLoss("policy blob: validity level out of range");
  }
  policy.options_.validity_level = static_cast<int>(*validity_level);
  policy.options_.min_recloak_interval_s = *throttle_s;
  policy.epoch_ = *epoch;
  if (offset >= data.size()) return Truncated();
  if (data[offset++] != 0) {
    const auto artifact_size = GetVarint(data, &offset);
    // Subtract-side compare: a hostile length near 2^64 must not wrap.
    if (!artifact_size || *artifact_size > data.size() - offset) {
      return Truncated();
    }
    const Bytes encoded(data.begin() + static_cast<std::ptrdiff_t>(offset),
                        data.begin() + static_cast<std::ptrdiff_t>(
                                           offset + *artifact_size));
    offset += *artifact_size;
    RCLOAK_ASSIGN_OR_RETURN(auto artifact, DecodeArtifact(encoded));
    policy.artifact_ =
        std::make_shared<const CloakedArtifact>(std::move(artifact));
  }
  if (offset >= data.size()) return Truncated();
  if (data[offset++] != 0) {
    const auto segment_count = GetVarint(data, &offset);
    if (!segment_count) return Truncated();
    std::vector<roadnet::SegmentId> segments;
    for (std::uint64_t i = 0; i < *segment_count; ++i) {
      const auto raw = GetVarint(data, &offset);
      if (!raw) return Truncated();
      const roadnet::SegmentId sid{static_cast<std::uint32_t>(*raw)};
      if (*raw != roadnet::Index(sid) || !net.IsValid(sid)) {
        return Status::DataLoss(
            "policy blob: validity region references unknown segment");
      }
      segments.push_back(sid);
    }
    policy.validity_region_ = ValidityRegion(std::move(segments));
  }
  const auto created_s = GetDouble(data, &offset);
  const auto updates = GetVarint(data, &offset);
  const auto recloaks = GetVarint(data, &offset);
  const auto throttled = GetVarint(data, &offset);
  const auto last_recloak_s = GetDouble(data, &offset);
  const auto validity_total_s = GetDouble(data, &offset);
  if (!created_s || !updates || !recloaks || !throttled || !last_recloak_s ||
      !validity_total_s) {
    return Truncated();
  }
  if (offset != data.size()) {
    return Status::DataLoss("policy blob: trailing bytes");
  }
  policy.artifact_created_s_ = *created_s;
  policy.stats_.updates = *updates;
  policy.stats_.recloaks = *recloaks;
  policy.stats_.throttled_stale = *throttled;
  policy.stats_.last_recloak_time_s = *last_recloak_s;
  policy.stats_.validity_duration_total_s = *validity_total_s;
  return policy;
}

std::size_t ContinuousPolicy::MemoryFootprint() const noexcept {
  std::size_t bytes = sizeof(ContinuousPolicy);
  bytes += user_id_.capacity();
  bytes += static_cast<std::size_t>(profile_.num_levels()) *
           sizeof(LevelRequirement);
  if (artifact_) {
    bytes += sizeof(CloakedArtifact);
    bytes += artifact_->context.capacity();
    bytes += artifact_->levels.capacity() * sizeof(LevelRecord);
    for (const LevelRecord& level : artifact_->levels) {
      bytes += level.step_bits_blinded.capacity();
    }
    bytes += artifact_->region_segments.capacity() * sizeof(SegmentId);
  }
  if (validity_region_) bytes += validity_region_->memory_bytes();
  return bytes;
}

}  // namespace rcloak::core
