// Per-user reply-sequence digests: the correctness gate's currency.
//
// Both sides of the comparison — the wire generator reading ARTIFACT_REPLY
// frames and the in-process twin encoding its own artifacts — feed every
// reply for a user into that user's ReplyTrack, in order. Memory stays flat
// (a few dozen bytes per user) because only the digest chain is kept:
//
//   * a reply whose bytes differ from the user's previous reply starts a
//     new epoch: chain = SHA-256(chain || repeats || len || bytes);
//   * a reply equal to the previous one only bumps `repeats`.
//
// "Equal" is decided by a 64-bit word hash of the bytes, identically on
// both sides, so a changed reply that is not folded into the chain would
// need a 64-bit collision with the reply before it.
#pragma once

#include <cstdint>
#include <cstring>

#include "crypto/sha256.h"
#include "roadnet/road_network.h"
#include "util/bytes.h"

namespace perfbench {

inline std::uint64_t WordHash(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0x243f6a8885a308d3ull ^ (n * 0x9e3779b97f4a7c15ull);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = (h ^ word) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, data + i, n - i);
  h = (h ^ tail) * 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 29);
}

struct ReplyTrack {
  std::uint64_t last_hash = 0;
  std::uint32_t replies = 0;
  std::uint32_t repeats = 0;
  // Artifacts seen so far; equals the pool's epoch of the latest one.
  std::uint32_t epoch = 0;
  // Segment of the update that produced the current artifact — its exact
  // origin, which a full-key reduce to level 0 must return.
  rcloak::roadnet::SegmentId origin = rcloak::roadnet::kInvalidSegment;
  rcloak::crypto::Sha256::Digest chain{};

  // Returns true when the reply starts a new epoch.
  bool OnReply(const std::uint8_t* data, std::size_t n,
               rcloak::roadnet::SegmentId segment) {
    const std::uint64_t h = WordHash(data, n);
    ++replies;
    if (replies > 1 && h == last_hash) {
      ++repeats;
      return false;
    }
    rcloak::crypto::Sha256 sha;
    sha.Update(chain.data(), chain.size());
    std::uint8_t header[8];
    const auto len = static_cast<std::uint32_t>(n);
    std::memcpy(header, &repeats, 4);
    std::memcpy(header + 4, &len, 4);
    sha.Update(header, sizeof(header));
    sha.Update(data, n);
    chain = sha.Finish();
    last_hash = h;
    repeats = 0;
    ++epoch;
    origin = segment;
    return true;
  }

  rcloak::crypto::Sha256::Digest Final() const {
    rcloak::crypto::Sha256 sha;
    sha.Update(chain.data(), chain.size());
    std::uint8_t tail[8];
    std::memcpy(tail, &repeats, 4);
    std::memcpy(tail + 4, &replies, 4);
    sha.Update(tail, sizeof(tail));
    return sha.Finish();
  }
};

// SHA-256 of a sorted segment list (REDUCE_REPLY payloads).
inline rcloak::crypto::Sha256::Digest SegmentsDigest(
    const std::vector<rcloak::roadnet::SegmentId>& segments) {
  rcloak::crypto::Sha256 sha;
  for (const auto segment : segments) {
    const std::uint32_t id = rcloak::roadnet::Index(segment);
    std::uint8_t le[4];
    std::memcpy(le, &id, 4);
    sha.Update(le, 4);
  }
  return sha.Finish();
}

}  // namespace perfbench
