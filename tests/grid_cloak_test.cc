// Grid/Hilbert-cell backend: structural invariants of the cell index and
// torus transition tables, per-level reversibility round trips, k-anonymity
// at every level, golden artifact SHA pins for grid mode, and byte-identity
// of grid artifacts across server worker counts (the server and the
// continuous session pool must treat the new backend exactly like the road
// ones).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/grid_cloak.h"
#include "core/reversecloak.h"
#include "crypto/sha256.h"
#include "roadnet/generators.h"
#include "server/anonymization_server.h"
#include "server/continuous_session_pool.h"

namespace rcloak {
namespace {

using core::Algorithm;
using core::AnonymizeRequest;
using core::GridContext;
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

std::string ArtifactSha256(const core::CloakedArtifact& artifact) {
  const auto digest = crypto::Sha256::Hash(core::EncodeArtifact(artifact));
  return ToHex(Bytes(digest.begin(), digest.end()));
}

TEST(HilbertTest, RankAndCellAreInverseBijections) {
  for (const std::uint32_t side : {1u, 2u, 4u, 8u, 32u}) {
    std::set<std::uint32_t> seen;
    for (std::uint32_t y = 0; y < side; ++y) {
      for (std::uint32_t x = 0; x < side; ++x) {
        const std::uint32_t rank = core::HilbertRankOfCell(side, x, y);
        ASSERT_LT(rank, side * side);
        EXPECT_TRUE(seen.insert(rank).second) << "duplicate rank " << rank;
        std::uint32_t rx = 0, ry = 0;
        core::HilbertCellOf(side, rank, &rx, &ry);
        EXPECT_EQ(rx, x);
        EXPECT_EQ(ry, y);
      }
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(side) * side);
  }
}

TEST(HilbertTest, ConsecutiveRanksAreGridNeighbors) {
  // The locality property the canonical cell order exists for.
  const std::uint32_t side = 16;
  for (std::uint32_t rank = 1; rank < side * side; ++rank) {
    std::uint32_t x0, y0, x1, y1;
    core::HilbertCellOf(side, rank - 1, &x0, &y0);
    core::HilbertCellOf(side, rank, &x1, &y1);
    const std::uint32_t dist = (x0 > x1 ? x0 - x1 : x1 - x0) +
                               (y0 > y1 ? y0 - y1 : y1 - y0);
    EXPECT_EQ(dist, 1u) << "rank " << rank;
  }
}

TEST(GridContextTest, CellsPartitionTheSegments) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto grid = GridContext::Build(net, /*side=*/8);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  std::size_t total = 0;
  std::uint32_t occupied = 0;
  for (std::uint32_t cell = 0; cell < (*grid)->num_cells(); ++cell) {
    const auto segments = (*grid)->CellSegments(cell);
    if (!segments.empty()) ++occupied;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      EXPECT_EQ((*grid)->CellOf(segments[i]), cell);
      if (i > 0) {
        EXPECT_LT(roadnet::Index(segments[i - 1]),
                  roadnet::Index(segments[i]));
      }
    }
    total += segments.size();
  }
  EXPECT_EQ(total, net.segment_count());
  EXPECT_EQ(occupied, (*grid)->occupied_cells());
  EXPECT_GT(occupied, 1u);
}

TEST(GridContextTest, TransitionTablesPairExactlyOnAnyGrid) {
  const RoadNetwork net = roadnet::MakeGrid({6, 6, 100.0});
  for (const std::uint32_t side : {1u, 2u, 8u}) {
    const auto grid = GridContext::Build(net, side);
    ASSERT_TRUE(grid.ok());
    for (const std::uint32_t T : {2u, 4u, 6u, 9u, 17u}) {
      const auto tables = (*grid)->TablesFor(T);
      ASSERT_TRUE(tables.ok()) << tables.status().ToString();
      EXPECT_TRUE((*tables)->ValidatePairing().ok())
          << "side " << side << " T " << T;
    }
    EXPECT_FALSE((*grid)->TablesFor(1).ok());
    EXPECT_FALSE((*grid)->TablesFor(65).ok());
  }
}

TEST(GridContextTest, MemoizedOnMapContext) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  const auto a = ctx->GridFor();
  const auto b = ctx->GridFor();
  const auto c = ctx->GridFor(GridContext::DefaultSide(net));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, *c);  // explicit default side shares the memo entry
  EXPECT_EQ(ctx->grid_builds(), 1u);
  const auto t1 = (*a)->TablesFor(6);
  const auto t2 = (*a)->TablesFor(6);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(*t1, *t2);
  EXPECT_EQ((*a)->table_builds(), 1u);
}

// The headline tentpole property: every level reduces back to exactly the
// previous level's region, down to the precise origin segment, and every
// level k-anonymizes.
TEST(GridCloakTest, PerLevelReversibilityAndKAnonymity) {
  const RoadNetwork net = roadnet::MakeGrid({13, 13, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer anonymizer(ctx, OnePerSegment(net), /*rple_T=*/6);
  core::Deanonymizer deanonymizer(ctx);

  const std::vector<std::uint32_t> ks = {4, 12, 24};
  for (std::uint32_t trial = 0; trial < 8; ++trial) {
    const SegmentId origin{(trial * 37u + 5u) %
                           static_cast<std::uint32_t>(net.segment_count())};
    const auto keys = crypto::KeyChain::FromSeed(900 + trial, 3);
    AnonymizeRequest request;
    request.origin = origin;
    request.profile = PrivacyProfile(
        {{ks[0], 2, 1e9}, {ks[1], 6, 1e9}, {ks[2], 12, 1e9}});
    request.algorithm = Algorithm::kGrid;
    request.context = "grid/trip/" + std::to_string(trial);
    const auto result = anonymizer.Anonymize(request, keys);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto& artifact = result->artifact;
    ASSERT_EQ(artifact.algorithm, Algorithm::kGrid);
    ASSERT_EQ(artifact.num_levels(), 3);

    // Codec round trip (wire version 2 for grid).
    const auto wire = core::EncodeArtifact(artifact);
    EXPECT_EQ(wire[4], 2);  // version byte after the 4-byte magic
    const auto decoded = core::DecodeArtifact(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

    std::map<int, crypto::AccessKey> granted;
    for (int level = 1; level <= 3; ++level) {
      granted.emplace(level, keys.LevelKey(level));
    }
    // Reduce to every level: sizes must match the level records exactly
    // (Anonymize ∘ Reduce = identity per level), regions must nest, and
    // with one user per segment each level's size is its user count.
    const auto l3 = deanonymizer.FullRegion(*decoded);
    ASSERT_TRUE(l3.ok());
    std::vector<core::CloakRegion> regions;
    for (int target = 2; target >= 0; --target) {
      auto reduced = deanonymizer.Reduce(*decoded, granted, target);
      ASSERT_TRUE(reduced.ok())
          << "target " << target << ": " << reduced.status().ToString();
      regions.push_back(std::move(reduced).value());
    }
    EXPECT_EQ(regions[0].size(), artifact.levels[1].region_size);
    EXPECT_EQ(regions[1].size(), artifact.levels[0].region_size);
    ASSERT_EQ(regions[2].size(), 1u);
    EXPECT_EQ(regions[2].segments_by_id().front(), origin);
    for (int i = 0; i < 3; ++i) {
      EXPECT_GE(artifact.levels[static_cast<std::size_t>(i)].region_size,
                ks[static_cast<std::size_t>(i)]);
      if (i > 0) {
        EXPECT_GE(artifact.levels[static_cast<std::size_t>(i)].region_size,
                  artifact.levels[static_cast<std::size_t>(i - 1)]
                      .region_size);  // monotone growth
      }
    }
    for (const SegmentId sid : regions[1].segments_by_id()) {
      EXPECT_TRUE(regions[0].Contains(sid));
    }
    for (const SegmentId sid : regions[0].segments_by_id()) {
      EXPECT_TRUE(l3->Contains(sid));
    }
  }
}

TEST(GridCloakTest, WrongKeyNeverRecoversSilently) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer anonymizer(ctx, OnePerSegment(net));
  core::Deanonymizer deanonymizer(ctx);
  const auto keys = crypto::KeyChain::FromSeed(77, 1);
  AnonymizeRequest request;
  request.origin = SegmentId{60};
  request.profile = PrivacyProfile::SingleLevel({14, 4, 1e9});
  request.algorithm = Algorithm::kGrid;
  request.context = "grid/wrongkey";
  const auto result = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  int failures = 0;
  for (std::uint64_t seed = 1000; seed < 1024; ++seed) {
    std::map<int, crypto::AccessKey> wrong{
        {1, crypto::KeyChain::FromSeed(seed, 1).LevelKey(1)}};
    const auto reduced = deanonymizer.Reduce(result->artifact, wrong, 0);
    if (!reduced.ok()) {
      ++failures;
    } else {
      // A lucky in-range wrong key may produce a wrong-but-well-formed
      // answer (exactly the documented wrong-key semantics) — but never a
      // malformed region.
      EXPECT_EQ(reduced->size(), 1u);
    }
  }
  // The seal/walk range checks must reject the vast majority outright.
  EXPECT_GT(failures, 12);
}

// Golden pin for grid mode: fixed map, origin, keys -> byte-stable artifact
// (update ONLY with a deliberate wire/algorithm version bump).
TEST(GridGoldenTest, ArtifactBytesStableAndSelfConsistent) {
  const auto net = roadnet::MakeGrid({10, 10, 100.0});
  core::Anonymizer anonymizer(net, OnePerSegment(net), /*rple_T=*/4);
  core::Deanonymizer deanonymizer(net);
  const auto keys = crypto::KeyChain::FromSeed(4242, 2);
  AnonymizeRequest request;
  request.origin = SegmentId{90};
  request.profile = PrivacyProfile({{6, 3, 1e9}, {18, 6, 1e9}});
  request.algorithm = Algorithm::kGrid;
  request.context = "golden/artifact";
  const auto a = anonymizer.Anonymize(request, keys);
  const auto b = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(a.ok() && b.ok()) << a.status().ToString();
  const Bytes wire_a = core::EncodeArtifact(a->artifact);
  EXPECT_EQ(wire_a, core::EncodeArtifact(b->artifact));

  const auto digest = crypto::Sha256::Hash(wire_a);
  const std::string actual_sha256 =
      ToHex(Bytes(digest.begin(), digest.end()));
  const std::string expected_sha256 =
      "be4e91b3df9768f6af65a33a2744c88112d34e20efb0197ffa11c1a13cc6aec8";
  EXPECT_EQ(actual_sha256, expected_sha256)
      << "grid artifact bytes drifted from the pinned reference";
  RecordProperty("artifact_sha256_Grid", actual_sha256);

  std::map<int, crypto::AccessKey> granted{{1, keys.LevelKey(1)},
                                           {2, keys.LevelKey(2)}};
  const auto decoded = core::DecodeArtifact(wire_a);
  ASSERT_TRUE(decoded.ok());
  const auto reduced = deanonymizer.Reduce(*decoded, granted, 0);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  EXPECT_EQ(reduced->segments_by_id().front(), SegmentId{90});
}

AnonymizeRequest FixedGridRequest(const RoadNetwork& net, int i) {
  AnonymizeRequest request;
  request.origin = SegmentId{static_cast<std::uint32_t>(
      (static_cast<std::size_t>(i) * 53) % net.segment_count())};
  request.profile = PrivacyProfile({{6, 3, 1e9}, {16, 6, 1e9}});
  request.algorithm = Algorithm::kGrid;
  request.context = "griddet/" + std::to_string(i);
  return request;
}

// Grid artifacts through the server: the artifact set must be
// byte-identical for any worker count, like the road backends.
TEST(GridServerTest, ByteIdenticalAcrossWorkerCounts) {
  const RoadNetwork net = roadnet::MakeGrid({14, 14, 100.0});
  const auto ctx = core::MapContext::Create(net);
  const auto occupancy = OnePerSegment(net);
  constexpr int kJobs = 32;

  auto run = [&](int workers) {
    core::Anonymizer engine(ctx, occupancy, /*rple_T=*/6);
    server::ServerOptions options;
    options.num_workers = workers;
    options.max_queue = 4096;
    server::AnonymizationServer server(std::move(engine), options);
    std::vector<server::AnonymizationServer::ResultFuture> futures;
    for (int i = 0; i < kJobs; ++i) {
      auto submitted = server.Submit(
          FixedGridRequest(net, i),
          crypto::KeyChain::FromSeed(5000 + static_cast<std::uint64_t>(i),
                                     2));
      EXPECT_TRUE(submitted.ok());
      futures.push_back(std::move(*submitted));
    }
    server.Drain();
    std::map<int, std::string> hashes;
    for (int i = 0; i < kJobs; ++i) {
      auto result = futures[static_cast<std::size_t>(i)].get();
      EXPECT_TRUE(result.ok()) << i << ": " << result.status().ToString();
      if (result.ok()) hashes[i] = ArtifactSha256(result->artifact);
    }
    return hashes;
  };

  const auto single = run(1);
  ASSERT_EQ(single.size(), static_cast<std::size_t>(kJobs));
  for (const int workers : {2, 4}) {
    EXPECT_EQ(run(workers), single) << workers << " workers";
  }
  // All three servers shared one context: the grid was built once.
  EXPECT_EQ(ctx->grid_builds(), 1u);
}

// The session layer needs zero changes for the new backend: a grid-tracked
// fleet re-cloaks through SubmitBatch (validity region = the level-1 cell
// set the anonymizer sealed) exactly like the road backends.
TEST(GridSessionPoolTest, ContinuousTrackingWorksUnchanged) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net), /*rple_T=*/6);
  server::ServerOptions options;
  options.num_workers = 2;
  server::AnonymizationServer server(std::move(engine), options);
  server::ContinuousSessionPool pool(server);

  const auto keys_for = [](std::uint64_t user) {
    return [user](std::uint64_t epoch) {
      return crypto::KeyChain::FromSeed(user * 1000 + epoch, 2);
    };
  };
  std::vector<util::UserId> ids;
  for (std::uint64_t u = 0; u < 3; ++u) {
    const auto tracked = pool.Track(
        "car-" + std::to_string(u), PrivacyProfile({{6, 3, 1e9}, {18, 6, 1e9}}),
        Algorithm::kGrid, keys_for(u));
    ASSERT_TRUE(tracked.ok());
    ids.push_back(*tracked);
  }
  // Walk each user across the map so at least one re-cloak fires.
  std::uint64_t recloaks_seen = 0;
  for (int tick = 0; tick < 6; ++tick) {
    for (std::uint64_t u = 0; u < 3; ++u) {
      const SegmentId where{static_cast<std::uint32_t>(
          (u * 40 + static_cast<std::uint64_t>(tick) * 60) %
          net.segment_count())};
      const auto served = pool.UpdateBatch({{ids[u], tick * 10.0, where}});
      ASSERT_TRUE(served[0].ok()) << served[0].status().ToString();
      EXPECT_EQ((*served[0])->algorithm, Algorithm::kGrid);
    }
  }
  recloaks_seen = pool.stats().recloaks;
  EXPECT_GE(recloaks_seen, 3u);  // at least the initial cloak per user
  EXPECT_EQ(pool.stats().recloak_failures, 0u);
}

}  // namespace
}  // namespace rcloak
