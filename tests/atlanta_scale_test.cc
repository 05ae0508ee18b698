// Paper-scale integration: the full pipeline on the calibrated NW-Atlanta
// map (≈9.4k segments) with the 10,000-car population — the exact setting
// of the demo (§IV), end to end. Slower than the unit suites (~seconds),
// kept in one binary so ctest parallelism absorbs it.
#include <gtest/gtest.h>

#include "core/artifact_debug.h"
#include "core/reversecloak.h"
#include "mobility/simulator.h"
#include "roadnet/generators.h"
#include "roadnet/spatial_index.h"

namespace rcloak {
namespace {

using core::Algorithm;
using roadnet::SegmentId;

struct AtlantaFixture {
  roadnet::RoadNetwork net;
  mobility::OccupancySnapshot occupancy;
  AtlantaFixture()
      : net(roadnet::MakePerturbedGrid(roadnet::AtlantaNwProfile())),
        occupancy(0) {
    const roadnet::SpatialIndex index(net);
    mobility::SpawnOptions spawn;
    spawn.num_cars = 10000;
    spawn.seed = 77;
    occupancy = mobility::Occupancy(net, mobility::SpawnCars(net, index, spawn));
  }
};

AtlantaFixture& Fixture() {
  static AtlantaFixture fixture;
  return fixture;
}

TEST(AtlantaScaleTest, PreassignmentPairingHoldsAtPaperScale) {
  auto& f = Fixture();
  const roadnet::SpatialIndex index(f.net);
  const auto tables = core::BuildTransitionTables(f.net, index, 6);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_TRUE(tables->ValidatePairing().ok());
  EXPECT_EQ(tables->node_count(), f.net.segment_count());
}

TEST(AtlantaScaleTest, PipelineBothAlgorithmsThreeLevels) {
  auto& f = Fixture();
  core::Anonymizer anonymizer(f.net, f.occupancy);
  core::Deanonymizer deanonymizer(f.net);
  Xoshiro256 rng(5);
  for (const auto algorithm : {Algorithm::kRge, Algorithm::kRple}) {
    for (int trial = 0; trial < 3; ++trial) {
      SegmentId origin;
      do {
        origin = SegmentId{static_cast<std::uint32_t>(
            rng.NextBounded(f.net.segment_count()))};
      } while (f.occupancy.count(origin) == 0);

      const auto keys = crypto::KeyChain::FromSeed(
          900 + static_cast<std::uint64_t>(trial), 3);
      core::AnonymizeRequest request;
      request.origin = origin;
      request.profile = core::PrivacyProfile(
          {{10, 4, 1e9}, {30, 10, 1e9}, {80, 25, 1e9}});
      request.algorithm = algorithm;
      request.context = "atl/" + std::to_string(trial) + "/" +
                        std::string(core::AlgorithmName(algorithm));
      const auto result = anonymizer.Anonymize(request, keys);
      ASSERT_TRUE(result.ok()) << result.status().ToString();

      // k holds at every level against the real car population.
      std::map<int, crypto::AccessKey> granted{{1, keys.LevelKey(1)},
                                               {2, keys.LevelKey(2)},
                                               {3, keys.LevelKey(3)}};
      const std::uint32_t expect_k[] = {0, 10, 30, 80};
      for (int level = 3; level >= 1; --level) {
        const auto region =
            deanonymizer.Reduce(result->artifact, granted, level);
        ASSERT_TRUE(region.ok());
        EXPECT_GE(region->UserCount(f.occupancy), expect_k[level]);
        EXPECT_TRUE(region->Contains(origin));
      }
      const auto exact = deanonymizer.Reduce(result->artifact, granted, 0);
      ASSERT_TRUE(exact.ok());
      EXPECT_EQ(exact->segments_by_id().front(), origin);
    }
  }
}

TEST(AtlantaScaleTest, DescribeArtifactShowsOnlyPublicFields) {
  auto& f = Fixture();
  core::Anonymizer anonymizer(f.net, f.occupancy);
  const auto keys = crypto::KeyChain::FromSeed(3, 1);
  core::AnonymizeRequest request;
  request.origin = SegmentId{500};
  request.profile = core::PrivacyProfile::SingleLevel({15, 5, 1e9});
  request.algorithm = Algorithm::kRple;
  request.context = "atl/describe";
  const auto result = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(result.ok());
  const std::string description =
      core::DescribeArtifact(result->artifact);
  EXPECT_NE(description.find("RPLE"), std::string::npos);
  EXPECT_NE(description.find("atl/describe"), std::string::npos);
  EXPECT_NE(description.find("opaque"), std::string::npos);
  // The true origin id must never appear in a "public view" description
  // beyond possibly being one of many region ids — assert the description
  // doesn't single it out.
  EXPECT_EQ(description.find("origin"), std::string::npos);
}

}  // namespace
}  // namespace rcloak
