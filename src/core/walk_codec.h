// The keyed walk of RPLE and Grid (paper §III-B), and the scaffolding all
// keyed backends (RGE, RPLE, Grid) share: the per-level PRNG context
// strings, the satisfaction predicate, the walk budget, and the
// key-blinded "step added something" bit codec.
//
// RPLE walks segments and Grid walks cells, but both run the same walk
// w[j+1] = FT[w[j]][R_j mod T] and reverse it by replaying BT, so its
// tables (WalkTables), forward walk (WalkForward) and reverse replay
// (WalkReverse) live here once. A backend keeps its node type, the
// segments a node stands for, and its seal of the walk end.
//
// This is wire-format-defining code — the context strings bind the PRNG
// streams and the bit packing (pad to a 16-byte multiple, blind with the
// meta keystream) is replayed byte-exactly by the de-anonymizer — so it
// lives in exactly one place. The golden artifact SHA pins would catch any
// drift, but sharing makes drift impossible by construction.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact.h"
#include "core/cloak_region.h"
#include "core/privacy_profile.h"
#include "core/user_counter.h"
#include "crypto/keyed_prng.h"
#include "util/bytes.h"
#include "util/status.h"

namespace rcloak::core {

// Per-level PRNG stream contexts: "<request>/L<i>" for the walk draws and
// seals, "<request>/L<i>/meta" for the step-bit blinding keystream.
inline std::string LevelStreamContext(const std::string& context,
                                      int level_index) {
  return context + "/L" + std::to_string(level_index);
}

// The two keyed streams of one walk level.
struct LevelStreams {
  LevelStreams(const crypto::AccessKey& key, const std::string& context,
               int level_index)
      : prng(key, LevelStreamContext(context, level_index)),
        meta(key, LevelStreamContext(context, level_index) + "/meta") {}
  crypto::KeyedPrng prng;  // walk draws, seals, walk-length blinding
  crypto::KeyedPrng meta;  // step-bit blinding
};

// The level-expansion stop condition shared by every backend: enough
// segments (l-diversity) and enough users (k-anonymity). sigma_s is
// checked separately, per inserted step.
inline bool LevelSatisfied(const CloakRegion& region, const UserCounter& users,
                           const LevelRequirement& requirement) {
  return region.size() >= requirement.delta_l &&
         users.Count(region) >= requirement.delta_k;
}

// Walk-step budget before a level expansion gives up (unreachable
// requirements must fail, not spin).
inline std::uint64_t WalkBudget(const LevelRequirement& requirement) {
  return 4096 + 512ULL * (requirement.delta_k + requirement.delta_l);
}

// Packs the per-step "added something new" bits: pad to a 16-byte multiple
// (blurs the exact walk length without a key), then blind every byte with
// the meta keystream.
Bytes PackStepBits(const std::vector<bool>& added_bits,
                   const crypto::KeyedPrng& meta_prng);

// Inverse of PackStepBits: checks the blinded payload can hold `walk_len`
// bits (the capacity check doubles as a wrong-key detector — a bad key
// decodes walk_len to a near-uniform 32-bit value that cannot fit) and
// returns the unblinded bytes. `what` names the backend for the error.
StatusOr<Bytes> UnblindStepBits(const Bytes& step_bits_blinded,
                                const crypto::KeyedPrng& meta_prng,
                                std::uint32_t walk_len, const char* what);

inline bool StepBitAt(const Bytes& bits, std::uint64_t j) {
  return ((bits[static_cast<std::size_t>(j / 8)] >> (j % 8)) & 1u) != 0;
}

// Hole-free forward/backward transition tables over walk nodes numbered
// 0..node_count()-1: RPLE's segments (Node = SegmentId) or Grid's cells
// (Node = std::uint32_t). Every slot is filled and pairs both ways,
// FT[n][j] = m ⟺ BT[m][j] = n, which is what lets the walk replay
// backwards exactly.
template <typename Node>
class WalkTables {
 public:
  // `ft` and `bt` are node_count * T entries, row-major by node.
  WalkTables(std::uint32_t T, std::vector<Node> ft, std::vector<Node> bt)
      : t_(T), ft_(std::move(ft)), bt_(std::move(bt)) {}

  std::uint32_t T() const noexcept { return t_; }
  std::size_t node_count() const noexcept { return ft_.size() / t_; }

  Node Forward(Node n, std::uint32_t slot) const {
    return ft_[static_cast<std::size_t>(n) * t_ + slot];
  }
  Node Backward(Node n, std::uint32_t slot) const {
    return bt_[static_cast<std::size_t>(n) * t_ + slot];
  }

  // Every FT slot names a node and BT pairs it back (which also fills
  // every BT slot: the pairing maps FT slots one-to-one onto BT slots).
  Status ValidatePairing() const;

  // Approximate resident size (the RPLE memory-cost axis, experiment E6).
  std::size_t MemoryBytes() const noexcept {
    return (ft_.capacity() + bt_.capacity()) * sizeof(Node);
  }

 private:
  std::uint32_t t_;
  std::vector<Node> ft_;
  std::vector<Node> bt_;
};

// Instrumentation of one keyed walk (bench_e12, bench_e21).
struct WalkStats {
  std::uint64_t walk_steps = 0;
  // Steps that added nothing: an already-covered node or an empty cell.
  std::uint64_t revisits = 0;
};

// One level of the keyed walk from `position` until `requirement` holds;
// `region` must be non-empty. `members(node)` is the range of segments a
// node stands for: RPLE's segment itself, a Grid cell's segments (possibly
// none). A step is new when its node has members and the first is not yet
// in the region (nodes are pulled in whole); then every member is
// inserted. A region wider than sigma_s (the one the level starts from
// included, even when it already satisfies the requirement), or a walk
// past the WalkBudget, is ResourceExhausted and restores `region_before`
// and `position_before`, the state the level began from. On success
// `position` is the walk end and the record lacks only the backend's seal.
// `what` names the backend in error messages.
template <typename Node, typename Members>
StatusOr<LevelRecord> WalkForward(const WalkTables<Node>& tables,
                                  const Members& members,
                                  const UserCounter& users,
                                  CloakRegion& region, Node& position,
                                  std::vector<SegmentId> region_before,
                                  Node position_before,
                                  const LevelStreams& streams,
                                  const LevelRequirement& requirement,
                                  const char* what, WalkStats* stats) {
  if (region.empty()) {
    return Status::FailedPrecondition(std::string(what) +
                                      " level expansion on empty region");
  }
  auto fail = [&](const char* why) {
    region = CloakRegion::FromSegments(region.network(), region_before);
    position = position_before;
    return Status::ResourceExhausted(std::string(what) + ": " + why +
                                     " before reaching (delta_k, delta_l)");
  };
  std::vector<bool> added_bits;
  const std::uint64_t max_steps = WalkBudget(requirement);
  for (;;) {
    if (region.Bounds().Diagonal() > requirement.sigma_s) {
      return fail("spatial tolerance sigma_s exceeded");
    }
    if (LevelSatisfied(region, users, requirement)) break;
    if (added_bits.size() >= max_steps) return fail("walk budget exhausted");
    const Node next = tables.Forward(
        position, static_cast<std::uint32_t>(
                      streams.prng.Draw(added_bits.size()) % tables.T()));
    const auto nodes = members(next);
    const bool is_new = !nodes.empty() && !region.Contains(nodes.front());
    if (is_new) {
      for (const SegmentId sid : nodes) region.Insert(sid);
    }
    added_bits.push_back(is_new);
    position = next;
    if (stats != nullptr) {
      ++stats->walk_steps;
      if (!is_new) ++stats->revisits;
    }
  }
  LevelRecord record;
  record.region_size = static_cast<std::uint32_t>(region.size());
  record.walk_len_blinded =
      static_cast<std::uint32_t>(added_bits.size()) ^
      static_cast<std::uint32_t>(streams.prng.Prf("walklen"));
  record.step_bits_blinded = PackStepBits(added_bits, streams.meta);
  return record;
}

// Reverse replay of one WalkForward level from its walk end `end` (opened
// from the backend's seal): for j = walk_len-1 .. 0, a set step bit erases
// the node's members, then the walk steps back through BT. Returns the
// node the level's walk started from. Erasing an empty node or a
// non-member is DataLoss (wrong key or corrupt artifact).
template <typename Node, typename Members>
StatusOr<Node> WalkReverse(const WalkTables<Node>& tables,
                           const Members& members, CloakRegion& region,
                           Node end, const LevelRecord& record,
                           const LevelStreams& streams, const char* what) {
  const std::uint32_t walk_len =
      record.walk_len_blinded ^
      static_cast<std::uint32_t>(streams.prng.Prf("walklen"));
  RCLOAK_ASSIGN_OR_RETURN(
      const Bytes bits,
      UnblindStepBits(record.step_bits_blinded, streams.meta, walk_len, what));
  Node walk = end;
  for (std::uint64_t j = walk_len; j-- > 0;) {
    if (StepBitAt(bits, j)) {
      const auto nodes = members(walk);
      if (nodes.empty()) {
        return Status::DataLoss(std::string(what) +
                                " de-anonymize: walk removed an empty node "
                                "(wrong key or corrupt artifact)");
      }
      for (const SegmentId sid : nodes) {
        if (!region.Contains(sid)) {
          return Status::DataLoss(
              std::string(what) +
              " de-anonymize: walk erased a non-member segment (wrong key "
              "or corrupt artifact)");
        }
        region.Erase(sid);
      }
    }
    walk = tables.Backward(
        walk, static_cast<std::uint32_t>(streams.prng.Draw(j) % tables.T()));
  }
  return walk;
}

}  // namespace rcloak::core
