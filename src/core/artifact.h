// The cloaked artifact: what the trusted anonymizer uploads to the LBS
// provider and what data requesters de-anonymize level by level.
//
// Contents visible without any key:
//   * the segment set of the outermost (most private) cloaking region,
//     published sorted by id so insertion order leaks nothing;
//   * per-level region sizes (sizes are not locations);
//   * per-level opaque metadata (seal, walk length, step bits) — each
//     blinded with the level key's PRF/keystream, so without the key they
//     are uniformly distributed and carry no information (DESIGN.md §3).
//
// With Key_N, Key_{N-1}, ..., the region can be reduced level by level; the
// artifact is self-describing about algorithm and level count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cloak_region.h"
#include "roadnet/road_network.h"
#include "util/bytes.h"
#include "util/status.h"

namespace rcloak::core {

enum class Algorithm : std::uint8_t {
  kRge = 0,   // Reversible Global Expansion
  kRple = 1,  // Reversible Pre-assignment-based Local Expansion
  // Non-reversible random-expansion baseline (comparator workloads). Its
  // artifacts publish the outer region but cannot be reduced level by
  // level; Deanonymizer::Reduce reports Unimplemented for them.
  kRandomExpand = 2,
  // Grid/Hilbert-cell cloaking for the non-road-constrained case
  // (core/grid_cloak.h). Reversible; encodes with wire version 2 (older
  // decoders reject grid artifacts cleanly instead of misreading them).
  kGrid = 3,
};

std::string_view AlgorithmName(Algorithm algorithm) noexcept;

// Per-level opaque record.
struct LevelRecord {
  // |region| at this level, cumulative (clear).
  std::uint32_t region_size = 0;
  // Blinded rank of the level's last-added segment (RGE) / walk end (RPLE)
  // within the level region sorted by (length, id).
  std::uint64_t seal = 0;
  // RPLE only: walk length XOR PRF (fixed width), and the per-step
  // "added a new segment" bits XOR keystream, padded to blur length.
  std::uint32_t walk_len_blinded = 0;
  Bytes step_bits_blinded;
};

struct CloakedArtifact {
  Algorithm algorithm = Algorithm::kRge;
  // Request context: binds PRNG streams; e.g. "user42/req7". Public.
  std::string context;
  // Structural fingerprint of the road network the artifact was built on;
  // de-anonymization refuses to run against a different map.
  std::uint64_t map_fingerprint = 0;
  // Keyed-walk fan-out T: the RPLE transition-list length / the grid
  // cell-walk fan-out (0 for RGE and the baseline).
  std::uint32_t rple_T = 0;
  // Levels L^1..L^N in order.
  std::vector<LevelRecord> levels;
  // Outermost region (level N), segment ids sorted ascending.
  std::vector<SegmentId> region_segments;

  int num_levels() const noexcept { return static_cast<int>(levels.size()); }
};

// Structural fingerprint of a road network (SipHash over the geometry
// stream under a fixed public key — integrity check, not a MAC).
std::uint64_t FingerprintNetwork(const roadnet::RoadNetwork& net);

// Binary codec. Encode never fails; Decode validates structure.
Bytes EncodeArtifact(const CloakedArtifact& artifact);
StatusOr<CloakedArtifact> DecodeArtifact(const Bytes& data);

// An artifact kept together with its EncodeArtifact bytes, in one
// allocation: a continuous session's artifact in force is encoded once
// and every reply sends `wire` by reference. ArtifactOf and WireOf hand
// out aliasing references that share the allocation's ownership.
struct EncodedArtifact {
  CloakedArtifact artifact;
  Bytes wire;  // EncodeArtifact(artifact)
};
using SharedEncodedArtifact = std::shared_ptr<const EncodedArtifact>;

// Encodes `artifact` and keeps both in one allocation.
SharedEncodedArtifact KeepEncoded(CloakedArtifact artifact);

// Null for a null `encoded`.
inline std::shared_ptr<const CloakedArtifact> ArtifactOf(
    const SharedEncodedArtifact& encoded) {
  if (encoded == nullptr) return nullptr;
  return {encoded, &encoded->artifact};
}
inline std::shared_ptr<const Bytes> WireOf(
    const SharedEncodedArtifact& encoded) {
  if (encoded == nullptr) return nullptr;
  return {encoded, &encoded->wire};
}

}  // namespace rcloak::core
