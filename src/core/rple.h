// Reversible Pre-assignment-based Local Expansion (RPLE), paper §III-B.
//
// Phase 1 (pre-assignment): every segment is linked to T other segments and
// the links are arranged into a forward table FT and a backward table BT
// with the pairing invariant FT[s][j] = t  ⟺  BT[t][j] = s. The paper's
// greedy Algorithm 1 is implemented verbatim (PreassignGreedy); because
// greedy first-fit can leave empty slots — and any hole makes the keyed
// walk irreversible (a forward "skip" is undetectable backwards) — the
// production builder (BuildTransitionTables) completes the assignment into
// hole-free tables: it builds a T-regular link digraph (graph-adjacent
// neighbours first, then nearest-by-distance) and T-arc-colors it with
// Kempe-chain augmentation; the tail/head constraint graph is bipartite, so
// T colors always suffice (König). See DESIGN.md §3.
//
// Phase 2 (cloaking): a keyed random walk w_{j+1} = FT[w_j][R_j mod T]
// whose support is the cloaking region. Revisits are allowed — the walk has
// no data-dependent rejection, which is exactly what makes the reverse
// replay w_j = BT[w_{j+1}][R_j mod T] exact. Which steps introduced a new
// segment is recorded as key-blinded bits in the level record. The walk and
// its replay are the ones Grid runs over cells (WalkForward / WalkReverse,
// core/walk_codec.h); RPLE adds only its seal of the walk end (SealRank /
// OpenSeal, core/rge.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/cloak_region.h"
#include "core/privacy_profile.h"
#include "core/user_counter.h"
#include "core/walk_codec.h"
#include "crypto/keyed_prng.h"
#include "mobility/trace.h"
#include "roadnet/spatial_index.h"
#include "util/status.h"

namespace rcloak::core {

// RPLE's walk nodes are segments: the shared walk tables over SegmentId
// (core/walk_codec.h). BuildTransitionTables adds RPLE's own rule that no
// slot links a segment to itself.
using TransitionTables = WalkTables<SegmentId>;

// Production pre-assignment (regularized links + arc coloring). Requires
// segment_count > 2*T. Deterministic in (network, T): anonymizer and
// de-anonymizer derive identical tables from their map copies.
//
// The preference pass (per-segment link candidates) is embarrassingly
// parallel and runs on `preassign_threads` threads (0 = one per hardware
// core); each thread writes only its own slots of the preference array, so
// the resulting tables are byte-identical for every thread count (pinned
// by transition_table_test.cc).
StatusOr<TransitionTables> BuildTransitionTables(
    const roadnet::RoadNetwork& net, const roadnet::SpatialIndex& index,
    std::uint32_t T, unsigned preassign_threads = 0);

// Paper Algorithm 1, verbatim greedy first-fit over per-segment neighbour
// lists. May leave holes; returned tables are for fidelity measurements
// (fill-rate ablation E12), not for production walks.
struct GreedyPreassignResult {
  std::vector<SegmentId> ft;  // kInvalidSegment = empty slot
  std::vector<SegmentId> bt;
  std::uint32_t T = 0;
  std::size_t filled_slots = 0;
  std::size_t total_slots = 0;
  double FillRate() const noexcept {
    return total_slots ? static_cast<double>(filled_slots) /
                             static_cast<double>(total_slots)
                       : 0.0;
  }
};
GreedyPreassignResult PreassignGreedy(const roadnet::RoadNetwork& net,
                                      const roadnet::SpatialIndex& index,
                                      std::uint32_t T,
                                      std::size_t neighbor_list_cap = 0);

using RpleStats = WalkStats;

// Walk-based level expansion; mirrors RgeAnonymizeLevel's contract.
// `walk_position` is the chain seed (origin for level 1 / previous level's
// walk end) and is updated to this level's walk end on success.
StatusOr<LevelRecord> RpleAnonymizeLevel(
    const TransitionTables& tables, const UserCounter& users,
    CloakRegion& region, SegmentId& walk_position,
    const crypto::AccessKey& key, const std::string& context,
    int level_index, const LevelRequirement& requirement,
    RpleStats* stats = nullptr);

// Convenience overload for the instantaneous-snapshot case.
inline StatusOr<LevelRecord> RpleAnonymizeLevel(
    const TransitionTables& tables,
    const mobility::OccupancySnapshot& occupancy, CloakRegion& region,
    SegmentId& walk_position, const crypto::AccessKey& key,
    const std::string& context, int level_index,
    const LevelRequirement& requirement, RpleStats* stats = nullptr) {
  const SnapshotCounter counter(occupancy);
  return RpleAnonymizeLevel(tables, counter, region, walk_position, key,
                            context, level_index, requirement, stats);
}

// Reverse walk replay; removes this level's segments from `region`.
Status RpleDeanonymizeLevel(const TransitionTables& tables,
                            CloakRegion& region, const crypto::AccessKey& key,
                            const std::string& context, int level_index,
                            const LevelRecord& record);

}  // namespace rcloak::core
