// Continuous (moving-user) cloaking tests.
#include <gtest/gtest.h>

#include "core/continuous.h"
#include "mobility/simulator.h"
#include "roadnet/generators.h"
#include "roadnet/spatial_index.h"

namespace rcloak::core {
namespace {

using roadnet::RoadNetwork;
using roadnet::SegmentId;

mobility::OccupancySnapshot OnePerSegment(const RoadNetwork& net) {
  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    occupancy.Add(SegmentId{i});
  }
  return occupancy;
}

ContinuousCloak::KeyProvider SeededKeys(std::uint64_t base) {
  return [base](std::uint64_t epoch) {
    return crypto::KeyChain::FromSeed(base + epoch, 2);
  };
}

TEST(ContinuousCloakTest, StationaryUserNeverRecloaks) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  Deanonymizer deanonymizer(net);
  ContinuousCloak continuous(anonymizer, deanonymizer,
                             PrivacyProfile({{6, 3, 1e9}, {20, 6, 1e9}}),
                             Algorithm::kRge, "alice", SeededKeys(100));
  for (int t = 0; t < 10; ++t) {
    const auto artifact = continuous.Update(t, SegmentId{60});
    ASSERT_TRUE(artifact.ok());
  }
  EXPECT_EQ(continuous.stats().recloaks, 1u);
  EXPECT_EQ(continuous.stats().updates, 10u);
}

TEST(ContinuousCloakTest, MovingUserRecloaksOnRegionExit) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  Deanonymizer deanonymizer(net);
  ContinuousOptions options;
  options.validity_level = 1;
  options.min_recloak_interval_s = 0.0;  // no throttling
  ContinuousCloak continuous(anonymizer, deanonymizer,
                             PrivacyProfile({{6, 3, 1e9}, {20, 6, 1e9}}),
                             Algorithm::kRge, "bob", SeededKeys(200),
                             options);
  // Drift across the grid one segment id at a time: row-major ids keep
  // consecutive segments spatially close, so the user stays inside the L1
  // region for several steps before an exit forces a re-cloak.
  std::uint64_t last_epoch = 0;
  int artifact_changes = 0;
  for (std::uint32_t step = 0; step < 40; ++step) {
    const SegmentId here{(20 + step) % static_cast<std::uint32_t>(
                                           net.segment_count())};
    const auto artifact = continuous.Update(step, here);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    // Whenever a fresh artifact is cut, its L0 must be exactly `here`.
    if (continuous.epoch() != last_epoch) {
      ++artifact_changes;
      last_epoch = continuous.epoch();
      const auto keys = crypto::KeyChain::FromSeed(200 + last_epoch, 2);
      std::map<int, crypto::AccessKey> granted{{1, keys.LevelKey(1)},
                                               {2, keys.LevelKey(2)}};
      const auto reduced = deanonymizer.Reduce(*artifact, granted, 0);
      ASSERT_TRUE(reduced.ok());
      EXPECT_EQ(reduced->segments_by_id().front(), here);
    }
  }
  EXPECT_GT(artifact_changes, 1);
  EXPECT_EQ(continuous.stats().recloaks,
            static_cast<std::uint64_t>(artifact_changes));
  // Re-cloaks should be strictly fewer than updates (validity amortizes).
  EXPECT_LT(continuous.stats().recloaks, continuous.stats().updates);
}

TEST(ContinuousCloakTest, ThrottleServesStaleArtifact) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  Deanonymizer deanonymizer(net);
  ContinuousOptions options;
  options.min_recloak_interval_s = 100.0;  // effectively never re-cloak
  ContinuousCloak continuous(anonymizer, deanonymizer,
                             PrivacyProfile({{6, 3, 1e9}}),
                             Algorithm::kRple, "carol", SeededKeys(300),
                             options);
  const auto first = continuous.Update(0.0, SegmentId{0});
  ASSERT_TRUE(first.ok());
  // Jump far away within the throttle window: same artifact served.
  const auto second = continuous.Update(1.0, SegmentId{120});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(continuous.stats().recloaks, 1u);
  EXPECT_EQ(continuous.stats().throttled_stale, 1u);
  EXPECT_EQ(EncodeArtifact(*first), EncodeArtifact(*second));
  // Past the window, movement triggers a fresh epoch.
  const auto third = continuous.Update(200.0, SegmentId{120});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(continuous.stats().recloaks, 2u);
}

TEST(ContinuousCloakTest, HigherValidityLevelRecloaksLess) {
  const RoadNetwork net = roadnet::MakeGrid({14, 14, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  Deanonymizer deanonymizer(net);
  // Drive the same trajectory under validity level 1 and 2.
  const auto trajectory = [&] {
    std::vector<SegmentId> out;
    for (std::uint32_t step = 0; step < 30; ++step) {
      out.push_back(SegmentId{step * 7 % static_cast<std::uint32_t>(
                                              net.segment_count())});
    }
    return out;
  }();
  std::uint64_t recloaks[3] = {0, 0, 0};
  for (int validity = 1; validity <= 2; ++validity) {
    ContinuousOptions options;
    options.validity_level = validity;
    options.min_recloak_interval_s = 0.0;
    ContinuousCloak continuous(
        anonymizer, deanonymizer,
        PrivacyProfile({{6, 3, 1e9}, {30, 10, 1e9}}), Algorithm::kRge,
        "dave" + std::to_string(validity), SeededKeys(400), options);
    double t = 0;
    for (const auto here : trajectory) {
      ASSERT_TRUE(continuous.Update(t++, here).ok());
    }
    recloaks[validity] = continuous.stats().recloaks;
  }
  EXPECT_LE(recloaks[2], recloaks[1]);
}

// A real trajectory from the trace simulator: the artifact in force always
// covered the user's position when it was cut, and epochs advance only on
// region exits.
TEST(ContinuousCloakTest, SimulatedTrajectoryEndToEnd) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const roadnet::SpatialIndex index(net);
  mobility::SpawnOptions spawn;
  spawn.num_cars = 1;
  spawn.seed = 17;
  auto cars = mobility::SpawnCars(net, index, spawn);
  mobility::SimulationOptions sim;
  sim.tick_s = 1.0;
  sim.duration_s = 120.0;
  sim.record_every = 1;
  mobility::TraceSimulator simulator(net, std::move(cars), sim);
  simulator.Run();
  ASSERT_FALSE(simulator.trace().empty());

  Anonymizer anonymizer(net, OnePerSegment(net));
  Deanonymizer deanonymizer(net);
  ContinuousOptions options;
  options.min_recloak_interval_s = 0.0;
  ContinuousCloak continuous(anonymizer, deanonymizer,
                             PrivacyProfile({{8, 3, 1e9}}),
                             Algorithm::kRple, "sim-car", SeededKeys(500),
                             options);
  for (const auto& record : simulator.trace()) {
    const auto artifact = continuous.Update(record.time_s, record.segment);
    ASSERT_TRUE(artifact.ok());
    // The in-force artifact's region covers either the current segment or
    // (if just re-cloaked) was cut at it.
    const auto region =
        CloakRegion::FromSegments(net, artifact->region_segments);
    EXPECT_TRUE(region.Contains(record.segment));
  }
  EXPECT_GE(continuous.stats().recloaks, 1u);
  EXPECT_LE(continuous.stats().recloaks, continuous.stats().updates);
}

std::size_t VarintBytes(std::uint64_t value) {
  Bytes out;
  PutVarint(out, value);
  return out.size();
}

// A long-running session's state must not grow with its re-cloak count:
// after 200 and after 2,000 commits of the same artifact and region, the
// footprint is identical and the serialized state differs by at most the
// varint growth of its counters. The validity statistics are a running
// total whose mean matches one computed by hand over the committed
// durations, and the state survives a Serialize/Deserialize round trip.
TEST(ContinuousPolicyTest, StateStaysBoundedAcrossCommits) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  const PrivacyProfile profile({{6, 3, 1e9}, {20, 6, 1e9}});
  AnonymizeRequest request;
  request.origin = SegmentId{60};
  request.profile = profile;
  request.algorithm = Algorithm::kRge;
  request.context = "dora/epoch-1";
  auto result = anonymizer.Anonymize(request, crypto::KeyChain::FromSeed(5, 2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto artifact =
      std::make_shared<const CloakedArtifact>(std::move(result->artifact));
  const ValidityRegion region(artifact->region_segments);

  ContinuousPolicy policy("dora", profile, Algorithm::kRge);
  struct Snapshot {
    std::size_t footprint = 0;
    std::size_t serialized = 0;
    std::size_t counter_bytes = 0;
  };
  const auto snapshot = [&policy] {
    Bytes state;
    policy.Serialize(state);
    return Snapshot{policy.MemoryFootprint(), state.size(),
                    VarintBytes(policy.epoch()) +
                        VarintBytes(policy.stats().updates) +
                        VarintBytes(policy.stats().recloaks) +
                        VarintBytes(policy.stats().throttled_stale)};
  };
  // Irregular commit times, so the durations differ from one another.
  const auto commit_time = [](int i) { return 1.5 * i + 0.25 * (i % 7); };
  double hand_sum = 0.0;
  Snapshot at_200;
  for (int i = 0; i < 2000; ++i) {
    if (i > 0) hand_sum += commit_time(i) - commit_time(i - 1);
    policy.CommitRecloak(commit_time(i), artifact, region);
    if (i + 1 == 200) at_200 = snapshot();
  }
  const Snapshot at_2000 = snapshot();
  EXPECT_EQ(at_2000.footprint, at_200.footprint);
  EXPECT_LE(at_2000.serialized - at_200.serialized,
            at_2000.counter_bytes - at_200.counter_bytes);

  ASSERT_EQ(policy.stats().recloaks, 2000u);
  EXPECT_EQ(policy.stats().mean_validity_duration_s(), hand_sum / 1999.0);
  EXPECT_NEAR(policy.stats().mean_validity_duration_s(),
              (commit_time(1999) - commit_time(0)) / 1999.0, 1e-9);

  Bytes state;
  policy.Serialize(state);
  const auto restored = ContinuousPolicy::Deserialize("dora", state, 0, net);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->user_id(), "dora");
  EXPECT_EQ(restored->epoch(), policy.epoch());
  EXPECT_EQ(restored->stats().mean_validity_duration_s(),
            policy.stats().mean_validity_duration_s());
  EXPECT_EQ(EncodeArtifact(*restored->artifact()), EncodeArtifact(*artifact));
  Bytes again;
  restored->Serialize(again);
  EXPECT_EQ(again, state);
}

}  // namespace
}  // namespace rcloak::core
