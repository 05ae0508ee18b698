// Region-engine equivalence: the incremental CloakRegion (bitmap
// membership, length order and candidate sets as rank bitsets over the
// map's length rank, adjacency-delta frontier, running user count,
// incremental bounds) must be observationally identical to the
// from-scratch reference implementation it replaced. The reference below is
// a faithful port of the seed-era CloakRegion, ordered by LengthOrder on
// the segment lengths themselves (never by the precomputed rank); the
// property tests drive both through randomized insert/erase sequences and
// compare every derived view, and the algorithm-level tests prove the RGE
// fast path (Rank and Select on the region's bitsets) produces
// bit-identical sealed artifacts and de-anonymization output.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cloak_region.h"
#include "core/privacy_profile.h"
#include "core/rge.h"
#include "core/transition_table.h"
#include "crypto/keyed_prng.h"
#include "mobility/trace.h"
#include "roadnet/generators.h"
#include "roadnet/spatial_index.h"
#include "util/rng.h"

namespace rcloak::core {
namespace {

using roadnet::RoadNetwork;
using roadnet::SegmentId;

// ---------------------------------------------------------------- reference
// Seed-era CloakRegion, recomputing every view from scratch. Kept verbatim
// (modulo naming) as the semantic oracle for the incremental engine.
class NaiveRegion {
 public:
  explicit NaiveRegion(const RoadNetwork& net) : net_(&net) {}

  bool Contains(SegmentId id) const {
    return std::binary_search(segments_.begin(), segments_.end(), id,
                              IdLess{});
  }
  void Insert(SegmentId id) {
    const auto it =
        std::lower_bound(segments_.begin(), segments_.end(), id, IdLess{});
    if (it != segments_.end() && *it == id) return;
    segments_.insert(it, id);
  }
  void Erase(SegmentId id) {
    const auto it =
        std::lower_bound(segments_.begin(), segments_.end(), id, IdLess{});
    if (it != segments_.end() && *it == id) segments_.erase(it);
  }
  std::size_t size() const { return segments_.size(); }
  const std::vector<SegmentId>& segments_by_id() const { return segments_; }

  std::vector<SegmentId> SortedByLength() const {
    std::vector<SegmentId> sorted = segments_;
    std::sort(sorted.begin(), sorted.end(), LengthOrder{net_});
    return sorted;
  }

  std::vector<SegmentId> FrontierAtLeast(std::size_t min_size,
                                         int* rings_used) const {
    std::vector<SegmentId> collected;
    std::vector<SegmentId> current_ring = segments_;
    auto seen = [&](SegmentId id) {
      if (Contains(id)) return true;
      return std::find(collected.begin(), collected.end(), id) !=
             collected.end();
    };
    int rings = 0;
    while (true) {
      std::vector<SegmentId> next_ring;
      for (SegmentId sid : current_ring) {
        for (SegmentId adj : net_->AdjacentSegments(sid)) {
          if (seen(adj)) continue;
          if (std::find(next_ring.begin(), next_ring.end(), adj) !=
              next_ring.end()) {
            continue;
          }
          next_ring.push_back(adj);
        }
      }
      if (next_ring.empty()) break;
      ++rings;
      collected.insert(collected.end(), next_ring.begin(), next_ring.end());
      if (rings >= 1 &&
          collected.size() >= std::max<std::size_t>(min_size, 1)) {
        break;
      }
      current_ring = std::move(next_ring);
    }
    if (rings_used != nullptr) *rings_used = rings;
    std::sort(collected.begin(), collected.end(), LengthOrder{net_});
    return collected;
  }

  std::uint64_t UserCount(const mobility::OccupancySnapshot& occupancy) const {
    std::uint64_t users = 0;
    for (SegmentId sid : segments_) users += occupancy.count(sid);
    return users;
  }

  geo::BoundingBox Bounds() const {
    geo::BoundingBox box;
    for (SegmentId sid : segments_) box.Extend(net_->SegmentBounds(sid));
    return box;
  }

 private:
  struct IdLess {
    bool operator()(SegmentId x, SegmentId y) const noexcept {
      return roadnet::Index(x) < roadnet::Index(y);
    }
  };
  const RoadNetwork* net_;
  std::vector<SegmentId> segments_;
};

void ExpectViewsMatch(const RoadNetwork& net, const CloakRegion& fast,
                      const NaiveRegion& naive,
                      const mobility::OccupancySnapshot& occupancy) {
  ASSERT_EQ(fast.size(), naive.size());
  EXPECT_EQ(fast.segments_by_id(), naive.segments_by_id());
  EXPECT_EQ(fast.LengthSorted(), naive.SortedByLength());
  EXPECT_EQ(fast.UserCount(occupancy), naive.UserCount(occupancy));
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    ASSERT_EQ(fast.Contains(SegmentId{i}), naive.Contains(SegmentId{i}))
        << "membership diverged at segment " << i;
  }
  const auto fast_bounds = fast.Bounds();
  const auto naive_bounds = naive.Bounds();
  EXPECT_EQ(fast_bounds.min_x, naive_bounds.min_x);
  EXPECT_EQ(fast_bounds.max_x, naive_bounds.max_x);
  EXPECT_EQ(fast_bounds.min_y, naive_bounds.min_y);
  EXPECT_EQ(fast_bounds.max_y, naive_bounds.max_y);
  if (!fast.segments_by_id().empty()) {
    for (const std::size_t min_size : {std::size_t{0}, fast.size(),
                                       fast.size() * 2 + 5}) {
      int fast_rings = -1, naive_rings = -1;
      const auto fast_frontier = fast.FrontierAtLeast(min_size, &fast_rings);
      const auto naive_frontier =
          naive.FrontierAtLeast(min_size, &naive_rings);
      EXPECT_EQ(std::vector<SegmentId>(fast_frontier.begin(),
                                       fast_frontier.end()),
                naive_frontier)
          << "frontier diverged at min_size " << min_size;
      EXPECT_EQ(fast_rings, naive_rings);
    }
    // Seal ranks come from LengthRankOf; check it against the sorted view.
    const auto sorted = naive.SortedByLength();
    for (std::size_t r = 0; r < sorted.size(); ++r) {
      EXPECT_EQ(fast.LengthRankOf(sorted[r]), r);
    }
  }
}

RoadNetwork MakeNetworkFor(std::uint64_t seed) {
  switch (seed % 4) {
    case 0:
      return roadnet::MakeGrid({7, 9, 100.0});
    case 1: {
      roadnet::PerturbedGridOptions options;
      options.rows = 8;
      options.cols = 8;
      options.seed = seed;
      return roadnet::MakePerturbedGrid(options);
    }
    case 2:
      return roadnet::MakeLine(40);
    default:
      return roadnet::MakeCycle(30);
  }
}

TEST(RegionEngineEquivalence, RandomizedInsertEraseSequences) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const RoadNetwork net = MakeNetworkFor(seed);
    mobility::OccupancySnapshot occupancy(net.segment_count());
    Xoshiro256 rng(1000 + seed);
    for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
      for (std::uint64_t c = rng.NextBounded(4); c > 0; --c) {
        occupancy.Add(SegmentId{i});
      }
    }

    CloakRegion fast(net);
    NaiveRegion naive(net);
    for (int step = 0; step < 160; ++step) {
      const SegmentId sid{
          static_cast<std::uint32_t>(rng.NextBounded(net.segment_count()))};
      // Biased toward growth so the region leaves the trivial sizes, with
      // enough erases to exercise the retraction deltas.
      const bool erase = rng.NextBounded(10) < 3;
      if (erase) {
        fast.Erase(sid);
        naive.Erase(sid);
      } else {
        fast.Insert(sid);
        naive.Insert(sid);
      }
      if (step % 7 == 0 || step > 150) {
        ExpectViewsMatch(net, fast, naive, occupancy);
      }
    }
  }
}

// The RGE expansion access pattern on path-like topologies: the region
// only grows, FrontierAtLeast(size) runs after every insert, and the
// multi-ring fallback fires on almost every step — exactly the regime the
// carried ring frontier accelerates. Every output (set, order, ring count)
// must match both the naive reference and a from-scratch CloakRegion.
TEST(RegionEngineEquivalence, CarriedRingFallbackMatchesFromScratch) {
  for (const bool cycle : {false, true}) {
    const RoadNetwork net =
        cycle ? roadnet::MakeCycle(120) : roadnet::MakeLine(121);
    Xoshiro256 rng(cycle ? 21u : 12u);
    CloakRegion carried(net);
    NaiveRegion naive(net);
    const SegmentId origin{60};
    carried.Insert(origin);
    naive.Insert(origin);
    for (int step = 0; step < 90; ++step) {
      int carried_rings = -1, naive_rings = -1;
      const auto candidates =
          carried.FrontierAtLeast(carried.size() + 1, &carried_rings);
      const auto expected =
          naive.FrontierAtLeast(naive.size() + 1, &naive_rings);
      ASSERT_EQ(std::vector<SegmentId>(candidates.begin(), candidates.end()),
                expected)
          << (cycle ? "cycle" : "line") << " diverged at step " << step;
      ASSERT_EQ(carried_rings, naive_rings) << "step " << step;
      // A from-scratch region (no carried state) agrees too.
      CloakRegion fresh =
          CloakRegion::FromSegments(net, carried.segments_by_id());
      int fresh_rings = -1;
      const auto fresh_candidates =
          fresh.FrontierAtLeast(fresh.size() + 1, &fresh_rings);
      ASSERT_EQ(std::vector<SegmentId>(candidates.begin(), candidates.end()),
                std::vector<SegmentId>(fresh_candidates.begin(),
                                       fresh_candidates.end()))
          << "carried state diverged from scratch at step " << step;
      ASSERT_EQ(carried_rings, fresh_rings);
      if (expected.empty()) break;
      // Insert like the transition table would: some draw over candidates.
      const SegmentId next = expected[rng.NextBounded(expected.size())];
      carried.Insert(next);
      naive.Insert(next);
    }
  }
}

// The de-anonymization access pattern: a region grown with the fallback
// live is peeled one member at a time, FrontierAtLeast running after every
// erase, with a few re-inserts mixed in. The carried fallback repairs the
// distances an erase can grow instead of rebuilding; every output must
// match the naive reference and a from-scratch region.
TEST(RegionEngineEquivalence, CarriedRingFallbackSurvivesErase) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const RoadNetwork net = MakeNetworkFor(seed);
    Xoshiro256 rng(300 + seed);
    CloakRegion carried(net);
    NaiveRegion naive(net);
    std::vector<SegmentId> added;
    const SegmentId origin{static_cast<std::uint32_t>(
        rng.NextBounded(net.segment_count()))};
    carried.Insert(origin);
    naive.Insert(origin);
    added.push_back(origin);
    for (int step = 0; step < 40; ++step) {
      const auto grown = naive.FrontierAtLeast(naive.size() + 1, nullptr);
      (void)carried.FrontierAtLeast(carried.size() + 1, nullptr);
      if (grown.empty()) break;
      const SegmentId next = grown[rng.NextBounded(grown.size())];
      carried.Insert(next);
      naive.Insert(next);
      added.push_back(next);
    }
    while (added.size() > 1) {
      // Mostly the last-added member (a keyed peel), sometimes any member,
      // and now and then a re-insert of a frontier segment.
      const std::size_t pick = rng.NextBounded(4) == 0
                                   ? rng.NextBounded(added.size())
                                   : added.size() - 1;
      const SegmentId gone = added[pick];
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(pick));
      carried.Erase(gone);
      naive.Erase(gone);
      if (rng.NextBounded(6) == 0) {
        const auto ring1 = naive.FrontierAtLeast(0, nullptr);
        if (!ring1.empty()) {
          const SegmentId back = ring1[rng.NextBounded(ring1.size())];
          carried.Insert(back);
          naive.Insert(back);
          added.push_back(back);
        }
      }
      CloakRegion fresh =
          CloakRegion::FromSegments(net, carried.segments_by_id());
      for (const std::size_t min_size :
           {carried.size(), carried.size() * 2 + 5}) {
        int carried_rings = -1, naive_rings = -1, fresh_rings = -1;
        const auto got = carried.FrontierAtLeast(min_size, &carried_rings);
        const std::vector<SegmentId> carried_out(got.begin(), got.end());
        const auto fresh_out = fresh.FrontierAtLeast(min_size, &fresh_rings);
        ASSERT_EQ(carried_out, naive.FrontierAtLeast(min_size, &naive_rings))
            << "seed " << seed << " size " << carried.size();
        ASSERT_EQ(carried_out,
                  std::vector<SegmentId>(fresh_out.begin(), fresh_out.end()));
        ASSERT_EQ(carried_rings, naive_rings);
        ASSERT_EQ(carried_rings, fresh_rings);
      }
    }
  }
}

TEST(RegionEngineEquivalence, RunningUserCountTracksSnapshotMutation) {
  const RoadNetwork net = roadnet::MakeGrid({5, 5, 100.0});
  mobility::OccupancySnapshot occupancy(net.segment_count());
  occupancy.Add(SegmentId{0});
  CloakRegion region(net);
  region.Insert(SegmentId{0});
  EXPECT_EQ(region.UserCount(occupancy), 1u);
  // Mutating the snapshot must invalidate the running count (stamp change).
  occupancy.Add(SegmentId{0});
  EXPECT_EQ(region.UserCount(occupancy), 2u);
  // Replacing the snapshot's contents in place likewise.
  mobility::OccupancySnapshot replacement(net.segment_count());
  replacement.Add(SegmentId{0});
  replacement.Add(SegmentId{0});
  replacement.Add(SegmentId{0});
  occupancy = std::move(replacement);
  EXPECT_EQ(region.UserCount(occupancy), 3u);
  // And the running count stays exact across further inserts/erases.
  occupancy.Add(SegmentId{1});
  region.Insert(SegmentId{1});
  EXPECT_EQ(region.UserCount(occupancy), 4u);
  region.Erase(SegmentId{0});
  EXPECT_EQ(region.UserCount(occupancy), 1u);
}

// ------------------------------------------------- reference RGE expansion
// Seed-era RGE level loop: naive region views + the dense TransitionTable
// with linear index lookups. Must produce the same transition chain, the
// same level record (size AND seal), and the same region as the optimized
// RgeAnonymizeLevel.
struct ReferenceLevelResult {
  std::vector<SegmentId> region;
  std::uint32_t region_size = 0;
  std::uint64_t seal = 0;
  SegmentId last_added = roadnet::kInvalidSegment;
};

ReferenceLevelResult ReferenceRgeLevel(
    const RoadNetwork& net, const mobility::OccupancySnapshot& occupancy,
    SegmentId origin, const crypto::AccessKey& key,
    const std::string& context, int level_index,
    const LevelRequirement& requirement) {
  const crypto::KeyedPrng prng(key,
                               context + "/L" + std::to_string(level_index));
  NaiveRegion region(net);
  region.Insert(origin);
  SegmentId last_added = origin;
  std::uint64_t transition = 0;
  auto satisfied = [&] {
    return region.size() >= requirement.delta_l &&
           region.UserCount(occupancy) >= requirement.delta_k;
  };
  while (!satisfied()) {
    const auto candidates = region.FrontierAtLeast(region.size(), nullptr);
    EXPECT_GE(candidates.size(), region.size());
    const TransitionTable table(region.SortedByLength(), candidates);
    const auto next = table.Forward(last_added, prng.Draw(transition));
    EXPECT_TRUE(next.ok());
    region.Insert(*next);
    last_added = *next;
    ++transition;
  }
  ReferenceLevelResult result;
  result.region = region.segments_by_id();
  result.region_size = static_cast<std::uint32_t>(region.size());
  const auto sorted = region.SortedByLength();
  const auto it = std::find(sorted.begin(), sorted.end(), last_added);
  const std::uint64_t rank =
      static_cast<std::uint64_t>(it - sorted.begin());
  result.seal = (rank + prng.Prf("seal")) % sorted.size();
  result.last_added = last_added;
  return result;
}

TEST(RegionEngineEquivalence, RgeSealedArtifactsMatchReference) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    // Grids and perturbed grids only: line/cycle topologies cannot sustain
    // collision-free RGE expansion (|CanA| < |CloakA|), which both the
    // reference and the library reject identically — covered by rge_test.
    RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
    if (seed % 2 == 1) {
      roadnet::PerturbedGridOptions options;
      options.rows = 9;
      options.cols = 9;
      options.seed = seed;
      net = roadnet::MakePerturbedGrid(options);
    }
    mobility::OccupancySnapshot occupancy(net.segment_count());
    for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
      occupancy.Add(SegmentId{i});
    }
    const SegmentId origin{static_cast<std::uint32_t>(
        (7 * seed + 3) % net.segment_count())};
    const auto key = crypto::AccessKey::FromSeed(5000 + seed);
    const LevelRequirement requirement{
        static_cast<std::uint32_t>(6 + 4 * seed), 3, 1e9};
    const std::string context = "equiv/" + std::to_string(seed);

    const auto reference = ReferenceRgeLevel(net, occupancy, origin, key,
                                             context, 1, requirement);

    CloakRegion region(net);
    region.Insert(origin);
    SegmentId chain = origin;
    const auto record = RgeAnonymizeLevel(occupancy, region, chain, key,
                                          context, 1, requirement);
    ASSERT_TRUE(record.ok()) << record.status().ToString();

    // Identical sealed artifact: size, seal, chain end, and region bytes.
    EXPECT_EQ(record->region_size, reference.region_size);
    EXPECT_EQ(record->seal, reference.seal);
    EXPECT_EQ(chain, reference.last_added);
    EXPECT_EQ(region.segments_by_id(), reference.region);

    // And the optimized de-anonymization replays back to the exact origin.
    CloakRegion replay = CloakRegion::FromSegments(net, reference.region);
    const auto status =
        RgeDeanonymizeLevel(replay, key, context, 1, *record, 1);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(replay.size(), 1u);
    EXPECT_EQ(replay.segments_by_id().front(), origin);
  }
}

}  // namespace
}  // namespace rcloak::core
