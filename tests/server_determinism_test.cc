// Server determinism: the artifact set produced for a fixed request set
// must be bit-identical (by SHA-256) for any worker count — workers share
// one immutable MapContext and pin one occupancy epoch per request, so
// which worker takes a job from the queue must not leak into artifacts.
// Also covers the SubmitBatch path and the atomic occupancy epoch swap.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/reversecloak.h"
#include "crypto/sha256.h"
#include "roadnet/generators.h"
#include "server/anonymization_server.h"

namespace rcloak {
namespace {

using core::Algorithm;
using core::AnonymizeRequest;
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

AnonymizeRequest FixedRequest(const RoadNetwork& net, int i) {
  AnonymizeRequest request;
  request.origin = SegmentId{static_cast<std::uint32_t>(
      (static_cast<std::size_t>(i) * 53) % net.segment_count())};
  request.profile = PrivacyProfile({{6, 3, 1e9}, {16, 6, 1e9}});
  switch (i % 3) {
    case 0: request.algorithm = Algorithm::kRge; break;
    case 1: request.algorithm = Algorithm::kRple; break;
    default: request.algorithm = Algorithm::kRandomExpand; break;
  }
  request.context = "det/" + std::to_string(i);
  return request;
}

crypto::KeyChain FixedKeys(int i) {
  return crypto::KeyChain::FromSeed(31000 + static_cast<std::uint64_t>(i), 2);
}

std::string ArtifactSha256(const core::CloakedArtifact& artifact) {
  const auto digest = crypto::Sha256::Hash(core::EncodeArtifact(artifact));
  return ToHex(Bytes(digest.begin(), digest.end()));
}

// Runs `jobs` requests through a fresh server with `workers` workers over
// a shared context and returns request-index -> artifact SHA-256.
std::map<int, std::string> RunServer(
    const std::shared_ptr<const core::MapContext>& ctx,
    const mobility::OccupancySnapshot& occupancy, int workers, int jobs) {
  core::Anonymizer engine(ctx, occupancy, /*rple_T=*/4);
  server::ServerOptions options;
  options.num_workers = workers;
  options.max_queue = 4096;
  server::AnonymizationServer server(std::move(engine), options);

  std::vector<server::AnonymizationServer::ResultFuture> futures;
  for (int i = 0; i < jobs; ++i) {
    auto submitted =
        server.Submit(FixedRequest(ctx->network(), i), FixedKeys(i));
    EXPECT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  server.Drain();

  std::map<int, std::string> hashes;
  for (int i = 0; i < jobs; ++i) {
    auto result = futures[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    if (result.ok()) hashes[i] = ArtifactSha256(result->artifact);
  }
  return hashes;
}

TEST(ServerDeterminismTest, ArtifactSetIdenticalAcrossWorkerCounts) {
  const RoadNetwork net = roadnet::MakeGrid({14, 14, 100.0});
  const auto ctx = core::MapContext::Create(net);
  const auto occupancy = OnePerSegment(net);
  constexpr int kJobs = 48;

  const auto single = RunServer(ctx, occupancy, /*workers=*/1, kJobs);
  ASSERT_EQ(single.size(), static_cast<std::size_t>(kJobs));
  for (const int workers : {2, 4, 8}) {
    const auto parallel = RunServer(ctx, occupancy, workers, kJobs);
    EXPECT_EQ(parallel, single) << workers << " workers";
  }
  // Sharing one context across all four servers: one table build total.
  EXPECT_EQ(ctx->table_builds(), 1u);
}

TEST(ServerDeterminismTest, SubmitBatchMatchesSubmit) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  const auto occupancy = OnePerSegment(net);
  constexpr int kJobs = 24;

  const auto loop_hashes = RunServer(ctx, occupancy, /*workers=*/3, kJobs);

  core::Anonymizer engine(ctx, occupancy, /*rple_T=*/4);
  server::ServerOptions options;
  options.num_workers = 3;
  server::AnonymizationServer server(std::move(engine), options);
  std::vector<server::AnonymizationServer::BatchJob> batch;
  for (int i = 0; i < kJobs; ++i) {
    batch.push_back({FixedRequest(net, i), FixedKeys(i)});
  }
  auto futures = server.SubmitBatch(std::move(batch));
  ASSERT_EQ(futures.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    auto& submitted = futures[static_cast<std::size_t>(i)];
    ASSERT_TRUE(submitted.ok());
    auto result = submitted->get();
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    EXPECT_EQ(ArtifactSha256(result->artifact), loop_hashes.at(i)) << i;
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.succeeded, static_cast<std::uint64_t>(kJobs));
}

TEST(ServerDeterminismTest, OccupancyEpochSwapTakesEffect) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net), /*rple_T=*/4);
  server::ServerOptions options;
  options.num_workers = 2;
  server::AnonymizationServer server(std::move(engine), options);

  AnonymizeRequest request;
  request.origin = SegmentId{60};
  request.profile = PrivacyProfile::SingleLevel({30, 3, 1e9});
  request.algorithm = Algorithm::kRge;
  request.context = "epoch/sparse";
  auto sparse = server.Submit(request, crypto::KeyChain::FromSeed(5, 1));
  ASSERT_TRUE(sparse.ok());
  const auto sparse_result = sparse->get();
  ASSERT_TRUE(sparse_result.ok());
  // One user per segment: needs >= 30 segments for 30 users.
  EXPECT_GE(sparse_result->artifact.region_segments.size(), 30u);

  // Publish a dense epoch (10 users per segment): the same δk needs far
  // fewer segments.
  mobility::OccupancySnapshot dense(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    for (int u = 0; u < 10; ++u) dense.Add(SegmentId{i});
  }
  server.SetOccupancy(std::move(dense));
  request.context = "epoch/dense";
  auto dense_submit = server.Submit(request, crypto::KeyChain::FromSeed(5, 1));
  ASSERT_TRUE(dense_submit.ok());
  const auto dense_result = dense_submit->get();
  ASSERT_TRUE(dense_result.ok());
  EXPECT_LT(dense_result->artifact.region_segments.size(),
            sparse_result->artifact.region_segments.size());
}

}  // namespace
}  // namespace rcloak
