// Anonymization-server (worker pool) and XStar-baseline tests.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "baseline/random_expand.h"
#include "core/reversecloak.h"
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

// -------------------------------------------------------------------- XStar
TEST(XStarTest, MeetsRequirementAndIsStarShaped) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto occupancy = OnePerSegment(net);
  baseline::BaselineStats stats;
  const auto region = baseline::XStarCloak(net, occupancy, SegmentId{60},
                                           {20, 5, 1e9}, &stats);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_GE(region->size(), 20u);
  EXPECT_TRUE(region->Contains(SegmentId{60}));
  EXPECT_GE(stats.expansions, 1u);
  // Star property: the region is a union of complete junction stars plus
  // the origin — so it must contain whole incident sets for at least
  // `expansions` junctions.
  std::size_t full_stars = 0;
  for (std::uint32_t j = 0; j < net.junction_count(); ++j) {
    const auto& incident = net.junction(roadnet::JunctionId{j}).incident;
    bool all = true;
    for (const SegmentId sid : incident) {
      if (!region->Contains(sid)) {
        all = false;
        break;
      }
    }
    if (all) ++full_stars;
  }
  EXPECT_GE(full_stars, stats.expansions / 2);
}

TEST(XStarTest, DeterministicAndSigmaBounded) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto occupancy = OnePerSegment(net);
  const auto a = baseline::XStarCloak(net, occupancy, SegmentId{30},
                                      {15, 4, 1e9});
  const auto b = baseline::XStarCloak(net, occupancy, SegmentId{30},
                                      {15, 4, 1e9});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->segments_by_id(), b->segments_by_id());

  const auto tight = baseline::XStarCloak(net, occupancy, SegmentId{30},
                                          {100, 4, 150.0});
  ASSERT_FALSE(tight.ok());
  EXPECT_EQ(tight.status().code(), ErrorCode::kResourceExhausted);
}

// Retained seed implementation of the XStar selection (full region
// re-scan per star): the incremental candidate engine in
// baseline::XStarCloak must select the exact same stars.
StatusOr<core::CloakRegion> ReferenceXStar(
    const RoadNetwork& net, const mobility::OccupancySnapshot& occupancy,
    SegmentId origin, const core::LevelRequirement& requirement) {
  using roadnet::Index;
  using roadnet::JunctionId;
  core::CloakRegion region(net);
  std::vector<bool> star_taken(net.junction_count(), false);
  auto add_star = [&](JunctionId junction) {
    star_taken[Index(junction)] = true;
    for (const SegmentId sid : net.junction(junction).incident) {
      region.Insert(sid);
    }
  };
  const auto& seg = net.segment(origin);
  const JunctionId seed =
      net.junction(seg.a).incident.size() >=
              net.junction(seg.b).incident.size()
          ? seg.a
          : seg.b;
  add_star(seed);
  region.Insert(origin);
  while (region.size() < requirement.delta_l ||
         region.UserCount(occupancy) < requirement.delta_k) {
    JunctionId best = roadnet::kInvalidJunction;
    double best_score = -1.0;
    for (const SegmentId sid : region.segments_by_id()) {
      const auto& s = net.segment(sid);
      for (const JunctionId j : {s.a, s.b}) {
        if (star_taken[Index(j)]) continue;
        std::uint64_t users = 0;
        std::uint32_t fresh = 0;
        for (const SegmentId inc : net.junction(j).incident) {
          if (region.Contains(inc)) continue;
          ++fresh;
          users += occupancy.count(inc);
        }
        if (fresh == 0) {
          star_taken[Index(j)] = true;
          continue;
        }
        const double score =
            (static_cast<double>(users) + 0.1) / static_cast<double>(fresh);
        if (score > best_score ||
            (score == best_score && best != roadnet::kInvalidJunction &&
             Index(j) < Index(best))) {
          best_score = score;
          best = j;
        }
      }
    }
    if (best == roadnet::kInvalidJunction) {
      return Status::ResourceExhausted("xstar: component exhausted");
    }
    add_star(best);
    if (region.Bounds().Diagonal() > requirement.sigma_s) {
      return Status::ResourceExhausted("xstar: sigma_s exceeded");
    }
  }
  region.InvalidateUserCountCache();
  return region;
}

TEST(XStarTest, IncrementalEngineMatchesReferenceRescan) {
  roadnet::PerturbedGridOptions options;
  options.rows = 14;
  options.cols = 14;
  options.seed = 33;
  const RoadNetwork net = roadnet::MakePerturbedGrid(options);
  // Skewed occupancy so payload scores actually differentiate stars.
  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    for (std::uint32_t u = 0; u < (i * 2654435761u) % 5; ++u) {
      occupancy.Add(SegmentId{i});
    }
  }
  for (const std::uint32_t origin_raw : {3u, 57u, 120u, 199u}) {
    const SegmentId origin{origin_raw %
                           static_cast<std::uint32_t>(net.segment_count())};
    for (const std::uint32_t k : {10u, 40u, 120u}) {
      const core::LevelRequirement requirement{k, 5, 1e9};
      const auto expected =
          ReferenceXStar(net, occupancy, origin, requirement);
      const auto got =
          baseline::XStarCloak(net, occupancy, origin, requirement);
      ASSERT_EQ(expected.ok(), got.ok())
          << "origin " << origin_raw << " k " << k;
      if (!expected.ok()) continue;
      EXPECT_EQ(got->segments_by_id(), expected->segments_by_id())
          << "origin " << origin_raw << " k " << k;
    }
  }
}

TEST(XStarTest, InvalidOriginRejected) {
  const RoadNetwork net = roadnet::MakeTriangleFixture();
  const auto occupancy = OnePerSegment(net);
  EXPECT_FALSE(
      baseline::XStarCloak(net, occupancy, SegmentId{999}, {2, 2, 1e9})
          .ok());
}

// ------------------------------------------------------------------- server
TEST(ServerTest, ProcessesManyJobsAcrossWorkersCorrectly) {
  const RoadNetwork net = roadnet::MakeGrid({14, 14, 100.0});
  core::Anonymizer engine(net, OnePerSegment(net), /*rple_T=*/4);
  server::ServerOptions options;
  options.num_workers = 4;
  server::AnonymizationServer server(std::move(engine), options);

  constexpr int kJobs = 60;
  std::vector<std::future<StatusOr<core::AnonymizeResult>>> futures;
  std::vector<SegmentId> origins;
  for (int i = 0; i < kJobs; ++i) {
    AnonymizeRequest request;
    request.origin = SegmentId{static_cast<std::uint32_t>(
        (i * 37) % net.segment_count())};
    origins.push_back(request.origin);
    request.profile = PrivacyProfile::SingleLevel({8, 3, 1e9});
    request.algorithm = i % 2 ? Algorithm::kRple : Algorithm::kRge;
    request.context = "srv/" + std::to_string(i);
    auto submitted = server.Submit(std::move(request),
                                   crypto::KeyChain::FromSeed(
                                       7000 + static_cast<std::uint64_t>(i),
                                       1));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  server.Drain();

  core::Deanonymizer deanonymizer(net);
  int verified = 0;
  for (int i = 0; i < kJobs; ++i) {
    auto result = futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    const auto keys = crypto::KeyChain::FromSeed(
        7000 + static_cast<std::uint64_t>(i), 1);
    std::map<int, crypto::AccessKey> granted{{1, keys.LevelKey(1)}};
    const auto reduced = deanonymizer.Reduce(result->artifact, granted, 0);
    ASSERT_TRUE(reduced.ok());
    if (reduced->segments_by_id().front() ==
        origins[static_cast<std::size_t>(i)]) {
      ++verified;
    }
  }
  EXPECT_EQ(verified, kJobs);

  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.succeeded, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.mean_latency_ms, 0.0);
}

TEST(ServerTest, QueueFullRejectsFast) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  core::Anonymizer engine(net, OnePerSegment(net));
  server::ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 2;
  server::AnonymizationServer server(std::move(engine), options);

  // Flood far past the queue bound; rejections must appear.
  std::vector<std::future<StatusOr<core::AnonymizeResult>>> futures;
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    AnonymizeRequest request;
    request.origin = SegmentId{10};
    request.profile = PrivacyProfile::SingleLevel({30, 3, 1e9});
    request.context = "flood/" + std::to_string(i);
    auto submitted =
        server.Submit(std::move(request), crypto::KeyChain::FromSeed(1, 1));
    if (submitted.ok()) {
      futures.push_back(std::move(*submitted));
    } else {
      EXPECT_EQ(submitted.status().code(), ErrorCode::kResourceExhausted);
      ++rejected;
    }
  }
  server.Drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(server.stats().rejected_queue_full,
            static_cast<std::uint64_t>(rejected));
}

// max_queue bounds the whole queue, not each worker's share of it: a batch
// of exactly max_queue jobs is accepted in full at any worker count.
TEST(ServerTest, MaxQueueIsExactTotalBound) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  core::Anonymizer engine(net, OnePerSegment(net));
  server::ServerOptions options;
  options.num_workers = 4;
  options.max_queue = 10;
  server::AnonymizationServer server(std::move(engine), options);

  std::vector<server::AnonymizationServer::BatchJob> batch;
  for (int i = 0; i < 10; ++i) {
    AnonymizeRequest request;
    request.origin = SegmentId{static_cast<std::uint32_t>(i)};
    request.profile = PrivacyProfile::SingleLevel({30, 3, 1e9});
    request.context = "bound/" + std::to_string(i);
    batch.push_back({std::move(request), crypto::KeyChain::FromSeed(1, 1)});
  }
  auto futures = server.SubmitBatch(std::move(batch));
  ASSERT_EQ(futures.size(), 10u);
  for (auto& submitted : futures) {
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    EXPECT_TRUE(submitted->get().ok());
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
}

AnonymizeRequest BoundRequest(int i) {
  AnonymizeRequest request;
  request.origin = SegmentId{static_cast<std::uint32_t>(i)};
  request.profile = PrivacyProfile::SingleLevel({30, 3, 1e9});
  request.context = "room/" + std::to_string(i);
  return request;
}

// Holds a server's one worker inside a key provider, so the queue's fill
// is known while it waits: the constructor submits the held job and
// returns once the worker runs it; Release() (or the destructor) lets it
// finish.
class HeldWorker {
 public:
  explicit HeldWorker(server::AnonymizationServer& server) {
    server::JobKeys keys(
        [this](std::uint64_t) {
          started_.set_value();
          released_.wait();
          return crypto::KeyChain::FromSeed(1, 1);
        },
        0);
    auto held = server.Submit(BoundRequest(0), std::move(keys));
    EXPECT_TRUE(held.ok());
    if (held.ok()) held_ = std::move(*held);
    started_.get_future().wait();  // the worker holds job 0
  }
  ~HeldWorker() {
    if (!released_flag_) Release();
  }
  void Release() {
    released_flag_ = true;
    release_.set_value();
  }
  bool HeldJobSucceeded() { return held_.valid() && held_.get().ok(); }

 private:
  std::atomic<bool> released_flag_{false};
  std::promise<void> started_;
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
  server::AnonymizationServer::ResultFuture held_;
};

std::vector<server::AnonymizationServer::BatchJob> BoundBatch(int first,
                                                              int end) {
  std::vector<server::AnonymizationServer::BatchJob> batch;
  for (int i = first; i < end; ++i) {
    batch.push_back({BoundRequest(i), crypto::KeyChain::FromSeed(1, 1)});
  }
  return batch;
}

// SubmitBatch admits its batch under one lock and fails fast past the
// room: with two of four queue places taken, a batch of five gets its
// first two jobs in, and the other three fail RESOURCE_EXHAUSTED, each
// counted once.
TEST(ServerTest, SubmitBatchPastTheQueueRoomFailsExactlyItsTail) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  core::Anonymizer engine(net, OnePerSegment(net));
  server::ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 4;
  server::AnonymizationServer server(std::move(engine), options);

  HeldWorker held(server);
  auto queued = server.SubmitBatch(BoundBatch(1, 3));
  auto batch = server.SubmitBatch(BoundBatch(3, 8));
  held.Release();

  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i < 2) {
      ASSERT_TRUE(batch[i].ok()) << i << ": " << batch[i].status().ToString();
      EXPECT_TRUE(batch[i]->get().ok()) << i;
    } else {
      ASSERT_FALSE(batch[i].ok()) << i;
      EXPECT_EQ(batch[i].status().code(), ErrorCode::kResourceExhausted)
          << i;
    }
  }
  EXPECT_TRUE(held.HeldJobSucceeded());
  for (auto& submitted : queued) {
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    EXPECT_TRUE(submitted->get().ok());
  }
  server.Drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.rejected_queue_full, 3u);
  EXPECT_EQ(stats.succeeded, 5u);
}

// RunBatch waits for room instead of refusing: with two of four queue
// places taken, a batch of eight queues its first two jobs, then the rest
// as the worker frees places, and every job runs. Nothing is refused.
TEST(ServerTest, RunBatchWaitsForQueueRoom) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  core::Anonymizer engine(net, OnePerSegment(net));
  server::ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 4;
  server::AnonymizationServer server(std::move(engine), options);

  HeldWorker held(server);
  auto queued = server.SubmitBatch(BoundBatch(1, 3));
  // Let the worker go once the batch below has filled the queue.
  std::thread releaser([&] {
    while (server.stats().accepted < 5) std::this_thread::yield();
    held.Release();
  });
  const auto results = server.RunBatch(BoundBatch(3, 11));
  releaser.join();

  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << i << ": "
                                 << results[i].status().ToString();
  }
  EXPECT_TRUE(held.HeldJobSucceeded());
  for (auto& submitted : queued) {
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    EXPECT_TRUE(submitted->get().ok());
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 11u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.succeeded, 11u);
}

}  // namespace

namespace server {
// Reaches the shutdown the destructor starts with, so a test can submit
// to a server that has stopped admitting and is still alive.
struct AnonymizationServerTestPeer {
  static void StopAdmitting(AnonymizationServer& server) {
    server.StopAdmitting();
  }
};
}  // namespace server

namespace {

// Once shutdown starts, what was queued still runs and every entry
// point's jobs fail FAILED_PRECONDITION; a refusal after shutdown is not a
// full queue. A RunBatch waiting for room fails its unqueued tail.
TEST(ServerTest, EveryJobFailsAfterShutdown) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  core::Anonymizer engine(net, OnePerSegment(net));
  server::ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  server::AnonymizationServer server(std::move(engine), options);

  HeldWorker held(server);
  std::vector<StatusOr<core::AnonymizeResult>> waited;
  std::thread waiter([&] { waited = server.RunBatch(BoundBatch(1, 4)); });
  while (server.stats().accepted < 2) std::this_thread::yield();
  server::AnonymizationServerTestPeer::StopAdmitting(server);
  held.Release();
  waiter.join();

  ASSERT_EQ(waited.size(), 3u);
  EXPECT_TRUE(waited[0].ok()) << waited[0].status().ToString();
  for (std::size_t i = 1; i < waited.size(); ++i) {
    ASSERT_FALSE(waited[i].ok()) << i;
    EXPECT_EQ(waited[i].status().code(), ErrorCode::kFailedPrecondition)
        << i;
  }
  EXPECT_TRUE(held.HeldJobSucceeded());

  for (const auto& result : server.RunBatch(BoundBatch(4, 7))) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kFailedPrecondition);
  }
  const auto single =
      server.Submit(BoundRequest(7), crypto::KeyChain::FromSeed(1, 1));
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), ErrorCode::kFailedPrecondition);
  for (const auto& submitted : server.SubmitBatch(BoundBatch(8, 9))) {
    ASSERT_FALSE(submitted.ok());
    EXPECT_EQ(submitted.status().code(), ErrorCode::kFailedPrecondition);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.succeeded, 2u);
}

TEST(ServerTest, FailingRequestsReportedNotDropped) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  core::Anonymizer engine(net, OnePerSegment(net));
  server::AnonymizationServer server(std::move(engine), {});
  AnonymizeRequest request;
  request.origin = SegmentId{20};
  // Impossible tolerance: every job fails with RESOURCE_EXHAUSTED.
  request.profile = PrivacyProfile::SingleLevel({50, 3, 50.0});
  request.context = "fail/1";
  auto submitted =
      server.Submit(std::move(request), crypto::KeyChain::FromSeed(1, 1));
  ASSERT_TRUE(submitted.ok());
  const auto result = submitted->get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(server.stats().failed, 1u);
}

}  // namespace
}  // namespace rcloak
