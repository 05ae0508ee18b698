// Edge-case coverage across modules: error paths, preconditions, boundary
// parameters, exports.
#include <gtest/gtest.h>

#include <sstream>

#include "core/reversecloak.h"
#include "mobility/simulator.h"
#include "roadnet/generators.h"
#include "roadnet/geojson.h"
#include "roadnet/spatial_index.h"
#include "util/logging.h"

namespace rcloak {
namespace {

using core::Algorithm;
using core::AnonymizeRequest;
using core::Anonymizer;
using core::Deanonymizer;
using core::PrivacyProfile;
using roadnet::RoadNetwork;
using roadnet::SegmentId;

mobility::OccupancySnapshot OnePerSegment(const RoadNetwork& net) {
  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    occupancy.Add(SegmentId{i});
  }
  return occupancy;
}

// ------------------------------------------------------------------ geojson
TEST(GeoJsonTest, NetworkExportIsStructurallySound) {
  const RoadNetwork net = roadnet::MakeTriangleFixture();
  std::ostringstream os;
  roadnet::WriteNetworkGeoJson(os, net);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"FeatureCollection\""), std::string::npos);
  // One feature per segment.
  std::size_t features = 0;
  for (std::size_t pos = json.find("\"Feature\"");
       pos != std::string::npos; pos = json.find("\"Feature\"", pos + 1)) {
    ++features;
  }
  // "FeatureCollection" does not match the quoted "Feature" needle.
  EXPECT_EQ(features, net.segment_count());
  // Balanced braces/brackets (cheap well-formedness check).
  long braces = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(GeoJsonTest, SegmentsExportCarriesLevel) {
  const RoadNetwork net = roadnet::MakeGrid({4, 4, 100.0});
  std::ostringstream os;
  roadnet::WriteSegmentsGeoJson(os, net, {SegmentId{0}, SegmentId{5}}, 2);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"level\":2"), std::string::npos);
  EXPECT_NE(json.find("\"segment\":5"), std::string::npos);
}

TEST(GeoJsonTest, FileApi) {
  const RoadNetwork net = roadnet::MakeTriangleFixture();
  EXPECT_TRUE(roadnet::SaveNetworkGeoJson(
                  testing::TempDir() + "/net.json", net)
                  .ok());
  EXPECT_FALSE(roadnet::SaveNetworkGeoJson("/nonexistent/x.json", net).ok());
}

// ---------------------------------------------------------------- facade
TEST(DeanonymizerTest, TargetLevelRangeChecked) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  const auto keys = crypto::KeyChain::FromSeed(1, 1);
  AnonymizeRequest request;
  request.origin = SegmentId{10};
  request.profile = PrivacyProfile::SingleLevel({5, 2, 1e9});
  request.context = "edge/1";
  const auto result = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(result.ok());

  Deanonymizer deanonymizer(net);
  std::map<int, crypto::AccessKey> granted{{1, keys.LevelKey(1)}};
  EXPECT_FALSE(deanonymizer.Reduce(result->artifact, granted, -1).ok());
  EXPECT_FALSE(deanonymizer.Reduce(result->artifact, granted, 2).ok());
  EXPECT_TRUE(deanonymizer.Reduce(result->artifact, granted, 1).ok());
}

TEST(DeanonymizerTest, ArtifactWithUnknownSegmentRejected) {
  const RoadNetwork net = roadnet::MakeGrid({4, 4, 100.0});
  Deanonymizer deanonymizer(net);
  core::CloakedArtifact artifact;
  artifact.algorithm = Algorithm::kRge;
  artifact.map_fingerprint = core::FingerprintNetwork(net);
  artifact.levels.push_back({1, 0, 0, {}});
  artifact.region_segments = {SegmentId{9999}};
  const auto region = deanonymizer.FullRegion(artifact);
  ASSERT_FALSE(region.ok());
  EXPECT_EQ(region.status().code(), ErrorCode::kDataLoss);
}

TEST(AnonymizerTest, OccupancyNetworkMismatchRejected) {
  const RoadNetwork net = roadnet::MakeGrid({6, 6, 100.0});
  // Snapshot sized for a different network.
  Anonymizer anonymizer(net, mobility::OccupancySnapshot(3));
  const auto keys = crypto::KeyChain::FromSeed(1, 1);
  AnonymizeRequest request;
  request.origin = SegmentId{0};
  request.profile = PrivacyProfile::SingleLevel({2, 2, 1e9});
  request.context = "edge/2";
  const auto result = anonymizer.Anonymize(request, keys);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(AnonymizerTest, RpleRequiresViablePreassignment) {
  // Map too small for T=6 pre-assignment: the request must fail with a
  // clear error rather than crash.
  const RoadNetwork net = roadnet::MakeTriangleFixture();
  Anonymizer anonymizer(net, OnePerSegment(net), /*rple_T=*/6);
  const auto keys = crypto::KeyChain::FromSeed(1, 1);
  AnonymizeRequest request;
  request.origin = SegmentId{0};
  request.profile = PrivacyProfile::SingleLevel({2, 2, 1e9});
  request.algorithm = Algorithm::kRple;
  request.context = "edge/3";
  const auto result = anonymizer.Anonymize(request, keys);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

// An origin wider than sigma_s is refused even when it alone satisfies
// (delta_k, delta_l): every backend checks the region a level starts from,
// not only the ones its steps grow.
TEST(AnonymizerTest, OriginWiderThanSigmaRefusedByEveryBackend) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  const auto keys = crypto::KeyChain::FromSeed(3, 1);
  AnonymizeRequest request;
  request.origin = SegmentId{60};
  request.profile = PrivacyProfile::SingleLevel({1, 1, 10.0});
  request.context = "edge/sigma";
  for (const Algorithm algorithm :
       {Algorithm::kRge, Algorithm::kRple, Algorithm::kGrid}) {
    request.algorithm = algorithm;
    const auto result = anonymizer.Anonymize(request, keys);
    ASSERT_FALSE(result.ok()) << static_cast<int>(algorithm);
    EXPECT_EQ(result.status().code(), ErrorCode::kResourceExhausted)
        << static_cast<int>(algorithm) << ": " << result.status().ToString();
  }
}

TEST(AnonymizerTest, SetOccupancyChangesBehaviour) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  const auto keys = crypto::KeyChain::FromSeed(8, 1);
  AnonymizeRequest request;
  request.origin = SegmentId{40};
  request.profile = PrivacyProfile::SingleLevel({10, 2, 1e9});
  request.context = "edge/occ";
  const auto sparse_result = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(sparse_result.ok());
  const auto sparse_size = sparse_result->artifact.region_segments.size();

  // 10 users on every segment: the same k needs far fewer segments.
  mobility::OccupancySnapshot dense(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    for (int j = 0; j < 10; ++j) dense.Add(SegmentId{i});
  }
  anonymizer.SetOccupancy(std::move(dense));
  const auto dense_result = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(dense_result.ok());
  EXPECT_LT(dense_result->artifact.region_segments.size(), sparse_size);
}

// RPLE artifacts carry T; reducing with a deanonymizer rebuilt at that T
// must work even when the anonymizer default differs.
TEST(DeanonymizerTest, RpleTableTFollowsArtifact) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net), /*rple_T=*/4);
  const auto keys = crypto::KeyChain::FromSeed(6, 1);
  AnonymizeRequest request;
  request.origin = SegmentId{55};
  request.profile = PrivacyProfile::SingleLevel({8, 3, 1e9});
  request.algorithm = Algorithm::kRple;
  request.context = "edge/T";
  const auto result = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->artifact.rple_T, 4u);

  Deanonymizer deanonymizer(net);  // no T configured anywhere
  std::map<int, crypto::AccessKey> granted{{1, keys.LevelKey(1)}};
  const auto reduced = deanonymizer.Reduce(result->artifact, granted, 0);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  EXPECT_EQ(reduced->segments_by_id().front(), request.origin);
}

// ---------------------------------------------------------------- mobility
TEST(SimulatorTest, NoRecordingWhenDisabled) {
  const RoadNetwork net = roadnet::MakeGrid({5, 5, 100.0});
  const roadnet::SpatialIndex index(net);
  mobility::SpawnOptions spawn;
  spawn.num_cars = 5;
  spawn.seed = 1;
  auto cars = mobility::SpawnCars(net, index, spawn);
  mobility::SimulationOptions sim;
  sim.record_every = 0;  // disabled
  sim.duration_s = 3.0;
  mobility::TraceSimulator simulator(net, std::move(cars), sim);
  simulator.Run();
  EXPECT_TRUE(simulator.trace().empty());
}

TEST(SpawnTest, MultipleHotspotsRespectWeights) {
  const RoadNetwork net = roadnet::MakeGrid({20, 20, 100.0});
  const roadnet::SpatialIndex index(net);
  mobility::SpawnOptions options;
  options.num_cars = 3000;
  options.seed = 4;
  const geo::Point a{200, 200};     // corner
  const geo::Point b{1700, 1700};   // opposite corner
  options.hotspots.push_back({a, 100.0, 3.0});
  options.hotspots.push_back({b, 100.0, 1.0});
  const auto cars = mobility::SpawnCars(net, index, options);
  std::size_t near_a = 0, near_b = 0;
  for (const auto& car : cars) {
    const auto mid = net.SegmentMidpoint(car.segment);
    if (geo::Distance(mid, a) < 500) ++near_a;
    if (geo::Distance(mid, b) < 500) ++near_b;
  }
  // 3:1 weights: allow broad tolerance.
  EXPECT_GT(near_a, near_b * 2);
  EXPECT_GT(near_b, 0u);
}

// ----------------------------------------------------------------- logging
TEST(LoggingTest, ThresholdFilters) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Emitting below threshold must be a no-op (no crash, nothing observable
  // here beyond not aborting).
  RCLOAK_LOG(kDebug) << "dropped " << 42;
  RCLOAK_LOG(kError) << "emitted";
  SetLogLevel(before);
}

// --------------------------------------------------------------- structures
TEST(CloakRegionTest, FromSegmentsDeduplicatesAndSorts) {
  const RoadNetwork net = roadnet::MakeGrid({4, 4, 100.0});
  const auto region = core::CloakRegion::FromSegments(
      net, {SegmentId{5}, SegmentId{1}, SegmentId{5}, SegmentId{3}});
  EXPECT_EQ(region.size(), 3u);
  EXPECT_EQ(region.segments_by_id(),
            (std::vector<SegmentId>{SegmentId{1}, SegmentId{3},
                                    SegmentId{5}}));
}

TEST(TransitionTablesTest, MemoryAccounting) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  const roadnet::SpatialIndex index(net);
  const auto t4 = core::BuildTransitionTables(net, index, 4);
  const auto t8 = core::BuildTransitionTables(net, index, 8);
  ASSERT_TRUE(t4.ok() && t8.ok());
  EXPECT_GT(t8->MemoryBytes(), t4->MemoryBytes());
  EXPECT_GE(t4->MemoryBytes(), net.segment_count() * 4 * 2 * sizeof(SegmentId));
}

TEST(SpatialIndexTest, ExplicitCellSizeHonored) {
  const RoadNetwork net = roadnet::MakeGrid({6, 6, 100.0});
  const roadnet::SpatialIndex index(net, 50.0);
  EXPECT_DOUBLE_EQ(index.cell_size(), 50.0);
  EXPECT_EQ(index.Nearest(net.bounds().Center(), 3).size(), 3u);
}

TEST(KeyChainTest, FromKeysPreservesOrder) {
  std::vector<crypto::AccessKey> keys = {crypto::AccessKey::FromSeed(1),
                                         crypto::AccessKey::FromSeed(2)};
  const auto chain = crypto::KeyChain::FromKeys(keys);
  EXPECT_EQ(chain.num_levels(), 2);
  EXPECT_EQ(chain.LevelKey(1), crypto::AccessKey::FromSeed(1));
  EXPECT_EQ(chain.LevelKey(2), crypto::AccessKey::FromSeed(2));
}

}  // namespace
}  // namespace rcloak
