// RPLE pre-assignment and walk-reversal tests.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "core/grid_cloak.h"
#include "core/privacy_profile.h"
#include "core/rple.h"
#include "roadnet/generators.h"
#include "roadnet/spatial_index.h"

namespace rcloak::core {
namespace {

using roadnet::RoadNetwork;
using roadnet::SegmentId;
using roadnet::SpatialIndex;

mobility::OccupancySnapshot OnePerSegment(const RoadNetwork& net) {
  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    occupancy.Add(SegmentId{i});
  }
  return occupancy;
}

// ------------------------------------------------------- pre-assignment
TEST(PreassignTest, ColoredTablesAreFullAndPaired) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const SpatialIndex index(net);
  for (std::uint32_t T : {2u, 4u, 6u, 8u}) {
    const auto tables = BuildTransitionTables(net, index, T);
    ASSERT_TRUE(tables.ok()) << "T=" << T << ": "
                             << tables.status().ToString();
    EXPECT_EQ(tables->T(), T);
    EXPECT_TRUE(tables->ValidatePairing().ok());
  }
}

TEST(PreassignTest, DeterministicAcrossBuilds) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  const SpatialIndex index_a(net);
  const SpatialIndex index_b(net);
  const auto a = BuildTransitionTables(net, index_a, 6);
  const auto b = BuildTransitionTables(net, index_b, 6);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::uint32_t s = 0; s < net.segment_count(); ++s) {
    for (std::uint32_t j = 0; j < 6; ++j) {
      EXPECT_EQ(a->Forward(SegmentId{s}, j), b->Forward(SegmentId{s}, j));
    }
  }
}

TEST(PreassignTest, LinksPreferNearbySegments) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const SpatialIndex index(net);
  const auto tables = BuildTransitionTables(net, index, 4);
  ASSERT_TRUE(tables.ok());
  // On a uniform grid, the average link distance should be on the order of
  // one or two blocks, not across the map.
  double total = 0.0;
  std::size_t count = 0;
  for (std::uint32_t s = 0; s < net.segment_count(); ++s) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      total += geo::Distance(net.SegmentMidpoint(SegmentId{s}),
                             net.SegmentMidpoint(tables->Forward(
                                 SegmentId{s}, j)));
      ++count;
    }
  }
  EXPECT_LT(total / static_cast<double>(count), 350.0);
}

TEST(PreassignTest, RejectsDegenerateParameters) {
  const RoadNetwork net = roadnet::MakeTriangleFixture();
  const SpatialIndex index(net);
  EXPECT_FALSE(BuildTransitionTables(net, index, 6).ok());  // 3 segments
  const RoadNetwork grid = roadnet::MakeGrid({5, 5, 100.0});
  const SpatialIndex grid_index(grid);
  EXPECT_FALSE(BuildTransitionTables(grid, grid_index, 1).ok());  // T < 2
}

TEST(PreassignTest, GreedyAlgorithmFillRate) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const SpatialIndex index(net);
  const auto greedy = PreassignGreedy(net, index, 6);
  EXPECT_EQ(greedy.total_slots, net.segment_count() * 6);
  EXPECT_GT(greedy.FillRate(), 0.5);
  // Greedy first-fit does not guarantee fullness; measure, don't assume.
  EXPECT_LE(greedy.FillRate(), 1.0);
  // Every filled slot respects the pairing invariant.
  for (std::uint32_t s = 0; s < net.segment_count(); ++s) {
    for (std::uint32_t j = 0; j < 6; ++j) {
      const SegmentId t = greedy.ft[s * 6 + j];
      if (t == roadnet::kInvalidSegment) continue;
      EXPECT_EQ(greedy.bt[roadnet::Index(t) * 6 + j], SegmentId{s});
    }
  }
}

// ------------------------------------------------------------ walk cloak
struct WalkCase {
  std::uint32_t k;
  std::uint32_t T;
  std::uint64_t key_seed;
  std::uint32_t origin;
};

class RpleRoundTripTest : public ::testing::TestWithParam<WalkCase> {};

TEST_P(RpleRoundTripTest, WalkThenReverseRecoversRegionAndOrigin) {
  const auto [k, T, key_seed, origin_raw] = GetParam();
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const SpatialIndex index(net);
  const auto tables = BuildTransitionTables(net, index, T);
  ASSERT_TRUE(tables.ok());
  const auto occupancy = OnePerSegment(net);
  const SegmentId origin{origin_raw};
  const auto key = crypto::AccessKey::FromSeed(key_seed);
  const LevelRequirement requirement{k, 2, 1e9};

  CloakRegion region(net);
  region.Insert(origin);
  SegmentId walk = origin;
  RpleStats stats;
  const auto record = RpleAnonymizeLevel(*tables, occupancy, region, walk,
                                         key, "ctx", 1, requirement, &stats);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_GE(region.size(), k);
  EXPECT_GE(stats.walk_steps, region.size() - 1);

  CloakRegion reduced =
      CloakRegion::FromSegments(net, region.segments_by_id());
  const auto status =
      RpleDeanonymizeLevel(*tables, reduced, key, "ctx", 1, *record);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(reduced.size(), 1u);
  EXPECT_EQ(reduced.segments_by_id().front(), origin);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RpleRoundTripTest,
    ::testing::Values(WalkCase{2, 4, 1, 0}, WalkCase{5, 4, 2, 100},
                      WalkCase{10, 6, 3, 50}, WalkCase{20, 6, 4, 7},
                      WalkCase{40, 6, 5, 130}, WalkCase{80, 8, 6, 200},
                      WalkCase{5, 2, 7, 0}, WalkCase{33, 8, 8, 263},
                      WalkCase{64, 3, 9, 99}, WalkCase{25, 12, 10, 111}));

TEST(RpleTest, MultiLevelPeel) {
  const RoadNetwork net = roadnet::MakeGrid({14, 14, 100.0});
  const SpatialIndex index(net);
  const auto tables = BuildTransitionTables(net, index, 6);
  ASSERT_TRUE(tables.ok());
  const auto occupancy = OnePerSegment(net);
  const SegmentId origin{180};
  const auto keys = crypto::KeyChain::FromSeed(31, 3);
  const std::vector<LevelRequirement> requirements = {
      {5, 2, 1e9}, {15, 4, 1e9}, {40, 8, 1e9}};

  CloakRegion region(net);
  region.Insert(origin);
  SegmentId walk = origin;
  std::vector<LevelRecord> records;
  std::vector<std::vector<SegmentId>> level_regions;
  for (int level = 1; level <= 3; ++level) {
    const auto record = RpleAnonymizeLevel(
        *tables, occupancy, region, walk, keys.LevelKey(level), "ctx", level,
        requirements[static_cast<std::size_t>(level - 1)]);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    records.push_back(*record);
    level_regions.push_back(region.segments_by_id());
  }

  CloakRegion reduced = CloakRegion::FromSegments(net, level_regions[2]);
  ASSERT_TRUE(RpleDeanonymizeLevel(*tables, reduced, keys.LevelKey(3), "ctx",
                                   3, records[2])
                  .ok());
  EXPECT_EQ(reduced.segments_by_id(), level_regions[1]);
  ASSERT_TRUE(RpleDeanonymizeLevel(*tables, reduced, keys.LevelKey(2), "ctx",
                                   2, records[1])
                  .ok());
  EXPECT_EQ(reduced.segments_by_id(), level_regions[0]);
  ASSERT_TRUE(RpleDeanonymizeLevel(*tables, reduced, keys.LevelKey(1), "ctx",
                                   1, records[0])
                  .ok());
  ASSERT_EQ(reduced.size(), 1u);
  EXPECT_EQ(reduced.segments_by_id().front(), origin);
}

TEST(RpleTest, WrongKeyIsDetected) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const SpatialIndex index(net);
  const auto tables = BuildTransitionTables(net, index, 6);
  ASSERT_TRUE(tables.ok());
  const auto occupancy = OnePerSegment(net);
  const SegmentId origin{60};

  CloakRegion region(net);
  region.Insert(origin);
  SegmentId walk = origin;
  const auto record =
      RpleAnonymizeLevel(*tables, occupancy, region, walk,
                         crypto::AccessKey::FromSeed(1), "ctx", 1,
                         {30, 2, 1e9});
  ASSERT_TRUE(record.ok());

  CloakRegion reduced =
      CloakRegion::FromSegments(net, region.segments_by_id());
  const auto status = RpleDeanonymizeLevel(
      *tables, reduced, crypto::AccessKey::FromSeed(2), "ctx", 1, *record);
  // A wrong key decodes a near-uniform 32-bit walk length that cannot fit
  // the step-bit payload.
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kDataLoss);
}

TEST(RpleTest, SigmaToleranceAbortsAndRollsBack) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const SpatialIndex index(net);
  const auto tables = BuildTransitionTables(net, index, 6);
  ASSERT_TRUE(tables.ok());
  const auto occupancy = OnePerSegment(net);
  const SegmentId origin{60};

  CloakRegion region(net);
  region.Insert(origin);
  SegmentId walk = origin;
  const auto record =
      RpleAnonymizeLevel(*tables, occupancy, region, walk,
                         crypto::AccessKey::FromSeed(3), "ctx", 1,
                         {50, 2, 120.0});
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(region.size(), 1u);
  EXPECT_EQ(walk, origin);
}

TEST(RpleTest, RevisitsAreCountedAndHarmless) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const SpatialIndex index(net);
  // Small T concentrates the walk: revisits are frequent.
  const auto tables = BuildTransitionTables(net, index, 2);
  ASSERT_TRUE(tables.ok());
  const auto occupancy = OnePerSegment(net);
  const SegmentId origin{40};

  CloakRegion region(net);
  region.Insert(origin);
  SegmentId walk = origin;
  RpleStats stats;
  const auto record =
      RpleAnonymizeLevel(*tables, occupancy, region, walk,
                         crypto::AccessKey::FromSeed(12), "ctx", 1,
                         {30, 2, 1e9}, &stats);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(stats.walk_steps, stats.revisits + region.size() - 1);

  CloakRegion reduced =
      CloakRegion::FromSegments(net, region.segments_by_id());
  ASSERT_TRUE(RpleDeanonymizeLevel(*tables, reduced,
                                   crypto::AccessKey::FromSeed(12), "ctx", 1,
                                   *record)
                  .ok());
  EXPECT_EQ(reduced.segments_by_id().front(), origin);
}

TEST(RpleTest, WalkBudgetFailureRollsBack) {
  const RoadNetwork net = roadnet::MakeGrid({6, 6, 100.0});
  const SpatialIndex index(net);
  const auto tables = BuildTransitionTables(net, index, 4);
  ASSERT_TRUE(tables.ok());
  // No users anywhere: delta_k can never be met.
  mobility::OccupancySnapshot empty(net.segment_count());
  CloakRegion region(net);
  region.Insert(SegmentId{0});
  SegmentId walk{0};
  const auto record =
      RpleAnonymizeLevel(*tables, empty, region, walk,
                         crypto::AccessKey::FromSeed(9), "ctx", 1,
                         {10, 2, 1e9});
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(region.size(), 1u);
}

// ------------------------------------------- rollback, RPLE and Grid walks
// RPLE and Grid run the same keyed walk, so a failed level must leave the
// region and the walk position exactly as the level found them, for both
// backends and above level 1 too. `position` is the walk node: a segment
// index for RPLE, a cell for Grid.
class WalkLevels {
 public:
  WalkLevels(Algorithm algorithm, const RoadNetwork& net, std::uint32_t T)
      : net_(&net) {
    if (algorithm == Algorithm::kRple) {
      const SpatialIndex index(net);
      auto built = BuildTransitionTables(net, index, T);
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      rple_ = std::make_unique<TransitionTables>(std::move(built).value());
    } else {
      auto built = GridContext::Build(net);
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      grid_ = std::move(built).value();
      auto tables = grid_->TablesFor(T);
      EXPECT_TRUE(tables.ok()) << tables.status().ToString();
      grid_tables_ = *tables;
    }
  }

  // The position a level-1 walk is handed. RPLE seeds its walk with the
  // origin; Grid moves to the origin's cell itself, so it is handed some
  // other cell and a failed level 1 must put that one back.
  std::uint32_t LevelOnePosition(SegmentId origin) const {
    if (rple_ != nullptr) return roadnet::Index(origin);
    return (grid_->CellOf(origin) + 1) % grid_->num_cells();
  }

  // Diagonal of the region a level-1 walk starts from: the origin for
  // RPLE, the origin's whole cell for Grid.
  double StartDiagonal(SegmentId origin) const {
    if (rple_ != nullptr) return net_->SegmentBounds(origin).Diagonal();
    CloakRegion cell(*net_);
    for (const SegmentId sid : grid_->CellSegments(grid_->CellOf(origin))) {
      cell.Insert(sid);
    }
    return cell.Bounds().Diagonal();
  }

  StatusOr<LevelRecord> Level(CloakRegion& region, std::uint32_t& position,
                              const mobility::OccupancySnapshot& occupancy,
                              int level,
                              const LevelRequirement& requirement) const {
    const auto key = crypto::AccessKey::FromSeed(40 + level);
    if (rple_ != nullptr) {
      SegmentId walk{position};
      auto record = RpleAnonymizeLevel(*rple_, occupancy, region, walk, key,
                                       "ctx", level, requirement);
      position = roadnet::Index(walk);
      return record;
    }
    const SnapshotCounter users(occupancy);
    return GridAnonymizeLevel(*grid_, *grid_tables_, users, region, position,
                              key, "ctx", level, requirement);
  }

 private:
  const RoadNetwork* net_;
  std::unique_ptr<TransitionTables> rple_;
  std::unique_ptr<const GridContext> grid_;
  const GridTransitionTables* grid_tables_ = nullptr;
};

class WalkRollbackTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  const RoadNetwork net_ = roadnet::MakeGrid({12, 12, 100.0});
  const WalkLevels levels_{GetParam(), net_, 6};
  const SegmentId origin_{60};
  const mobility::OccupancySnapshot occupancy_ = OnePerSegment(net_);
  const mobility::OccupancySnapshot empty_{net_.segment_count()};

  // Runs level 1 to success and returns its region; `position` is left
  // at the level-1 walk end.
  std::vector<SegmentId> LevelOne(CloakRegion& region,
                                  std::uint32_t& position) const {
    region.Insert(origin_);
    position = levels_.LevelOnePosition(origin_);
    const auto record =
        levels_.Level(region, position, occupancy_, 1, {5, 2, 1e9});
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    return region.segments_by_id();
  }
};

TEST_P(WalkRollbackTest, SigmaFailureAtLevelOneLeavesTheOrigin) {
  CloakRegion region(net_);
  region.Insert(origin_);
  const std::uint32_t before = levels_.LevelOnePosition(origin_);
  std::uint32_t position = before;
  // Any step that widens the start region breaks sigma_s; 50 users cannot
  // be reached without one.
  const auto record =
      levels_.Level(region, position, occupancy_, 1,
                    {50, 2, levels_.StartDiagonal(origin_) + 1.0});
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(record.status().message().find("sigma_s"), std::string::npos)
      << record.status().ToString();
  EXPECT_EQ(region.segments_by_id(), std::vector<SegmentId>{origin_});
  EXPECT_EQ(position, before);
}

TEST_P(WalkRollbackTest, BudgetFailureAtLevelOneLeavesTheOrigin) {
  CloakRegion region(net_);
  region.Insert(origin_);
  const std::uint32_t before = levels_.LevelOnePosition(origin_);
  std::uint32_t position = before;
  const auto record = levels_.Level(region, position, empty_, 1,
                                    {10, 2, 1e9});  // no users anywhere
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(record.status().message().find("walk budget"), std::string::npos)
      << record.status().ToString();
  EXPECT_EQ(region.segments_by_id(), std::vector<SegmentId>{origin_});
  EXPECT_EQ(position, before);
}

TEST_P(WalkRollbackTest, SigmaFailureAtLevelTwoLeavesLevelOne) {
  CloakRegion region(net_);
  std::uint32_t position = 0;
  const std::vector<SegmentId> level_one = LevelOne(region, position);
  const std::uint32_t level_one_end = position;
  // Every user on the map is out of reach without widening level 1.
  const auto record = levels_.Level(
      region, position, occupancy_, 2,
      {static_cast<std::uint32_t>(net_.segment_count()), 2,
       region.Bounds().Diagonal() + 1.0});
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(record.status().message().find("sigma_s"), std::string::npos)
      << record.status().ToString();
  EXPECT_EQ(region.segments_by_id(), level_one);
  EXPECT_EQ(position, level_one_end);
}

TEST_P(WalkRollbackTest, BudgetFailureAtLevelTwoLeavesLevelOne) {
  CloakRegion region(net_);
  std::uint32_t position = 0;
  const std::vector<SegmentId> level_one = LevelOne(region, position);
  const std::uint32_t level_one_end = position;
  // One more user than the map holds: the walk covers everything and then
  // runs out of steps.
  const auto record = levels_.Level(
      region, position, occupancy_, 2,
      {static_cast<std::uint32_t>(net_.segment_count()) + 1, 2, 1e9});
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(record.status().message().find("walk budget"), std::string::npos)
      << record.status().ToString();
  EXPECT_EQ(region.segments_by_id(), level_one);
  EXPECT_EQ(position, level_one_end);
}

INSTANTIATE_TEST_SUITE_P(Backends, WalkRollbackTest,
                         ::testing::Values(Algorithm::kRple, Algorithm::kGrid),
                         [](const auto& info) {
                           return info.param == Algorithm::kRple
                                      ? std::string("Rple")
                                      : std::string("Grid");
                         });

}  // namespace
}  // namespace rcloak::core
