#include "core/artifact.h"

#include <cstring>
#include <utility>

#include "core/algorithm.h"
#include "crypto/siphash.h"

namespace rcloak::core {

namespace {
constexpr std::uint32_t kMagic = 0x524B4C43;  // "CLKR" little-endian
// Version 1: RGE / RPLE / baseline artifacts (unchanged bytes — golden SHA
// pins hold). Version 2: same layout, introduced with the grid backend so
// version-1-only decoders reject grid artifacts instead of misreading the
// grid seal/walk semantics.
constexpr std::uint8_t kVersionRoad = 1;
constexpr std::uint8_t kVersionGrid = 2;

constexpr std::uint8_t VersionFor(Algorithm algorithm) noexcept {
  return algorithm == Algorithm::kGrid ? kVersionGrid : kVersionRoad;
}
// Fixed public key: fingerprints are integrity checks, not secrets.
constexpr crypto::SipKey kFingerprintKey = {
    'r', 'c', 'l', 'o', 'a', 'k', '/', 'm',
    'a', 'p', '/', 'f', 'p', '/', 'v', '1'};
}  // namespace

std::string_view AlgorithmName(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kRge: return "RGE";
    case Algorithm::kRple: return "RPLE";
    case Algorithm::kRandomExpand: return "RandomExpand";
    case Algorithm::kGrid: return "Grid";
  }
  return "?";
}

std::uint64_t FingerprintNetwork(const roadnet::RoadNetwork& net) {
  Bytes stream;
  stream.reserve(net.segment_count() * 20 + 16);
  PutU64le(stream, net.junction_count());
  PutU64le(stream, net.segment_count());
  for (const auto& junction : net.junctions()) {
    std::uint64_t xbits = 0, ybits = 0;
    std::memcpy(&xbits, &junction.position.x, 8);
    std::memcpy(&ybits, &junction.position.y, 8);
    PutU64le(stream, xbits);
    PutU64le(stream, ybits);
  }
  for (const auto& segment : net.segments()) {
    PutU32le(stream, roadnet::Index(segment.a));
    PutU32le(stream, roadnet::Index(segment.b));
  }
  return crypto::SipHash24(kFingerprintKey, stream);
}

Bytes EncodeArtifact(const CloakedArtifact& artifact) {
  Bytes out;
  PutU32le(out, kMagic);
  out.push_back(VersionFor(artifact.algorithm));
  out.push_back(static_cast<std::uint8_t>(artifact.algorithm));
  PutVarint(out, artifact.context.size());
  out.insert(out.end(), artifact.context.begin(), artifact.context.end());
  PutU64le(out, artifact.map_fingerprint);
  PutVarint(out, artifact.rple_T);
  PutVarint(out, artifact.levels.size());
  for (const auto& level : artifact.levels) {
    PutVarint(out, level.region_size);
    PutU64le(out, level.seal);
    PutU32le(out, level.walk_len_blinded);
    PutVarint(out, level.step_bits_blinded.size());
    out.insert(out.end(), level.step_bits_blinded.begin(),
               level.step_bits_blinded.end());
  }
  PutVarint(out, artifact.region_segments.size());
  // Delta-encode sorted ids.
  std::uint32_t prev = 0;
  for (SegmentId sid : artifact.region_segments) {
    const std::uint32_t id = roadnet::Index(sid);
    PutVarint(out, id - prev);
    prev = id;
  }
  return out;
}

SharedEncodedArtifact KeepEncoded(CloakedArtifact artifact) {
  Bytes wire = EncodeArtifact(artifact);
  return std::make_shared<const EncodedArtifact>(
      EncodedArtifact{std::move(artifact), std::move(wire)});
}

StatusOr<CloakedArtifact> DecodeArtifact(const Bytes& data) {
  std::size_t off = 0;
  const auto magic = GetU32le(data, &off);
  if (!magic || *magic != kMagic) {
    return Status::DataLoss("artifact: bad magic");
  }
  if (off >= data.size() ||
      (data[off] != kVersionRoad && data[off] != kVersionGrid)) {
    return Status::DataLoss("artifact: unsupported version");
  }
  const std::uint8_t version = data[off++];
  if (off >= data.size()) return Status::DataLoss("artifact: truncated");
  const std::uint8_t algorithm_raw = data[off++];
  // Valid ids are whatever the strategy registry knows — built-ins plus
  // RegisterAlgorithm'd backends — so registered algorithms' artifacts
  // round-trip the wire format without codec changes.
  if (FindAlgorithm(static_cast<Algorithm>(algorithm_raw)) == nullptr) {
    return Status::DataLoss("artifact: bad algorithm");
  }
  if (version != VersionFor(static_cast<Algorithm>(algorithm_raw))) {
    return Status::DataLoss("artifact: version/algorithm mismatch");
  }

  CloakedArtifact artifact;
  artifact.algorithm = static_cast<Algorithm>(algorithm_raw);

  const auto ctx_len = GetVarint(data, &off);
  if (!ctx_len || off + *ctx_len > data.size()) {
    return Status::DataLoss("artifact: bad context");
  }
  artifact.context.assign(data.begin() + static_cast<long>(off),
                          data.begin() + static_cast<long>(off + *ctx_len));
  off += *ctx_len;

  const auto fingerprint = GetU64le(data, &off);
  if (!fingerprint) return Status::DataLoss("artifact: truncated fingerprint");
  artifact.map_fingerprint = *fingerprint;

  const auto rple_T = GetVarint(data, &off);
  if (!rple_T) return Status::DataLoss("artifact: truncated T");
  artifact.rple_T = static_cast<std::uint32_t>(*rple_T);

  const auto num_levels = GetVarint(data, &off);
  if (!num_levels || *num_levels == 0 || *num_levels > 64) {
    return Status::DataLoss("artifact: bad level count");
  }
  artifact.levels.resize(static_cast<std::size_t>(*num_levels));
  for (auto& level : artifact.levels) {
    const auto size = GetVarint(data, &off);
    const auto seal = GetU64le(data, &off);
    const auto walk = GetU32le(data, &off);
    const auto bits_len = GetVarint(data, &off);
    if (!size || !seal || !walk || !bits_len ||
        off + *bits_len > data.size()) {
      return Status::DataLoss("artifact: truncated level record");
    }
    level.region_size = static_cast<std::uint32_t>(*size);
    level.seal = *seal;
    level.walk_len_blinded = *walk;
    level.step_bits_blinded.assign(
        data.begin() + static_cast<long>(off),
        data.begin() + static_cast<long>(off + *bits_len));
    off += *bits_len;
  }

  const auto seg_count = GetVarint(data, &off);
  if (!seg_count) return Status::DataLoss("artifact: truncated region");
  artifact.region_segments.reserve(static_cast<std::size_t>(*seg_count));
  std::uint32_t prev = 0;
  for (std::uint64_t i = 0; i < *seg_count; ++i) {
    const auto delta = GetVarint(data, &off);
    if (!delta) return Status::DataLoss("artifact: truncated segment ids");
    prev += static_cast<std::uint32_t>(*delta);
    artifact.region_segments.push_back(SegmentId{prev});
  }
  if (off != data.size()) {
    return Status::DataLoss("artifact: trailing bytes");
  }
  // Cross-field sanity: outermost level size must match the region list.
  if (artifact.levels.back().region_size != artifact.region_segments.size()) {
    return Status::DataLoss("artifact: level size / region mismatch");
  }
  return artifact;
}

}  // namespace rcloak::core
