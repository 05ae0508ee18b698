#include "core/rge.h"

#include <algorithm>
#include <cassert>

#include "core/transition_table.h"
#include "core/walk_codec.h"

namespace rcloak::core {

namespace {

// One step of the table over the region's rows and the candidate columns
// `cols` (both length-rank bitsets, TransitionTable's closed form):
// forward from the last-added segment's row to the column to add next...
StatusOr<SegmentId> ForwardStep(const CloakRegion& region,
                                const RankBitset& cols, SegmentId last_added,
                                std::uint64_t draw) {
  if (!region.Contains(last_added)) {
    return Status::InvalidArgument("segment is not a table row");
  }
  const roadnet::RoadNetwork& net = region.network();
  const std::size_t row =
      region.RankedMembers().Rank(net.LengthRank(last_added));
  return net.SegmentAtLengthRank(
      cols.Select(TransitionPartner(row, draw, cols.count())));
}

// ...and backward from the last-removed segment's column to the row added
// just before it.
StatusOr<SegmentId> BackwardStep(const CloakRegion& region,
                                 const RankBitset& cols,
                                 SegmentId last_removed, std::uint64_t draw) {
  const roadnet::RoadNetwork& net = region.network();
  const std::uint32_t rank = net.LengthRank(last_removed);
  if (!cols.Test(rank)) {
    return Status::InvalidArgument("segment is not a table column");
  }
  const std::size_t row =
      TransitionPartner(cols.Rank(rank), draw, cols.count());
  if (row >= region.size()) {
    return Status::DataLoss(
        "backward transition resolves to no row: artifact/key mismatch");
  }
  return net.SegmentAtLengthRank(region.RankedMembers().Select(row));
}

}  // namespace

std::uint64_t SealRank(const CloakRegion& region, SegmentId member,
                       const crypto::KeyedPrng& prng) {
  const std::uint64_t rank = region.LengthRankOf(member);
  assert(rank < region.size() && "seal member not in region");
  return (rank + prng.Prf("seal")) % region.size();
}

StatusOr<SegmentId> OpenSeal(const CloakRegion& region, std::uint64_t seal,
                             const crypto::KeyedPrng& prng) {
  if (region.empty()) return Status::DataLoss("seal over empty region");
  const std::uint64_t n = region.size();
  if (seal >= n) return Status::DataLoss("seal out of range");
  const std::uint64_t blind = prng.Prf("seal") % n;
  const std::uint64_t rank = (seal + n - blind) % n;
  return region.network().SegmentAtLengthRank(
      region.RankedMembers().Select(static_cast<std::size_t>(rank)));
}

StatusOr<LevelRecord> RgeAnonymizeLevel(
    const UserCounter& users, CloakRegion& region, SegmentId& last_added,
    const crypto::AccessKey& key, const std::string& context,
    int level_index, const LevelRequirement& requirement, RgeStats* stats) {
  if (region.empty()) {
    return Status::FailedPrecondition("RGE level expansion on empty region");
  }
  const crypto::KeyedPrng prng(key, LevelStreamContext(context, level_index));

  // Snapshot for rollback on failure.
  const std::vector<SegmentId> region_before = region.segments_by_id();
  const SegmentId last_added_before = last_added;
  auto rollback = [&] {
    region = CloakRegion::FromSegments(region.network(), region_before);
    last_added = last_added_before;
  };

  std::uint64_t transition = 0;
  // Every region the level passes through must fit sigma_s, the one it
  // starts from included: an origin wider than sigma_s is refused even
  // when it alone satisfies (delta_k, delta_l).
  for (;;) {
    if (region.Bounds().Diagonal() > requirement.sigma_s) {
      rollback();
      return Status::ResourceExhausted(
          "RGE: spatial tolerance sigma_s exceeded before reaching "
          "(delta_k, delta_l)");
    }
    if (LevelSatisfied(region, users, requirement)) break;
    int rings = 0;
    const RankBitset& candidates =
        region.RankedCandidates(region.size(), &rings);
    if (candidates.count() < region.size()) {
      rollback();
      return Status::ResourceExhausted(
          "RGE: candidate set cannot reach region size (component too "
          "small for collision-free expansion)");
    }
    if (stats != nullptr) {
      ++stats->transitions;
      if (rings > 1) ++stats->ring_fallbacks;
      stats->max_rings = std::max(stats->max_rings, rings);
    }
    const auto next =
        ForwardStep(region, candidates, last_added, prng.Draw(transition));
    if (!next.ok()) {
      rollback();
      return next.status();
    }
    region.Insert(*next);
    last_added = *next;
    ++transition;
  }

  LevelRecord record;
  record.region_size = static_cast<std::uint32_t>(region.size());
  record.seal = SealRank(region, last_added, prng);
  return record;
}

Status RgeDeanonymizeLevel(CloakRegion& region, const crypto::AccessKey& key,
                           const std::string& context, int level_index,
                           const LevelRecord& record,
                           std::uint32_t prev_region_size) {
  if (region.size() != record.region_size) {
    return Status::FailedPrecondition(
        "RGE de-anonymize: region size does not match level record");
  }
  if (prev_region_size > record.region_size) {
    return Status::DataLoss("RGE de-anonymize: level sizes not monotone");
  }
  const std::uint64_t to_remove = record.region_size - prev_region_size;
  if (to_remove == 0) return Status::Ok();

  const crypto::KeyedPrng prng(key, LevelStreamContext(context, level_index));
  RCLOAK_ASSIGN_OR_RETURN(SegmentId current, OpenSeal(region, record.seal, prng));

  // Remove λ_n .. λ_1; transition j (1-based) used draw j-1.
  for (std::uint64_t j = to_remove; j >= 1; --j) {
    if (!region.Contains(current)) {
      return Status::DataLoss(
          "RGE de-anonymize: chain left the region (wrong key or corrupt "
          "artifact)");
    }
    region.Erase(current);
    if (j == 1) break;  // λ_0 (the lower level's chain seed) is not needed
    const RankBitset& candidates = region.RankedCandidates(region.size());
    if (candidates.count() < region.size()) {
      return Status::DataLoss(
          "RGE de-anonymize: candidate set shrank below region size");
    }
    RCLOAK_ASSIGN_OR_RETURN(
        current, BackwardStep(region, candidates, current, prng.Draw(j - 1)));
  }
  return Status::Ok();
}

}  // namespace rcloak::core
