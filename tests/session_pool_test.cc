// Continuous session pool: the server-side multi-user session layer must
// be observationally identical to the single-user ContinuousCloak oracle —
// per-user artifact sequences byte-identical (by SHA-256) for fixed traces
// and for any worker count — plus eviction / throttle / epoch-advance edge
// cases and a concurrency smoke the TSAN CI job runs race-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/continuous.h"
#include "crypto/sha256.h"
#include "mobility/simulator.h"
#include "roadnet/generators.h"
#include "roadnet/spatial_index.h"
#include "server/continuous_session_pool.h"
#include "store/spill_file.h"

namespace rcloak {
namespace {

using core::Algorithm;
using core::PrivacyProfile;
using roadnet::RoadNetwork;
using roadnet::SegmentId;
using server::AnonymizationServer;
using server::ContinuousSessionPool;

mobility::OccupancySnapshot OnePerSegment(const RoadNetwork& net) {
  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    occupancy.Add(SegmentId{i});
  }
  return occupancy;
}

// Per-user, per-epoch key chains: derived from the user's numeric id so
// the pool and the oracle agree without shared state.
ContinuousSessionPool::KeyProvider KeysFor(std::uint64_t user_seed,
                                           int levels = 2) {
  return [user_seed, levels](std::uint64_t epoch) {
    return crypto::KeyChain::FromSeed(user_seed * 1000 + epoch, levels);
  };
}

PrivacyProfile FleetProfile() {
  return PrivacyProfile({{6, 3, 1e9}, {18, 6, 1e9}});
}

std::string ArtifactSha256(const core::CloakedArtifact& artifact) {
  const auto digest = crypto::Sha256::Hash(core::EncodeArtifact(artifact));
  return ToHex(Bytes(digest.begin(), digest.end()));
}

// The pool's update path takes the UserId handles Track hands out. These
// helpers drive it by name, which is how the tests below think about
// users: a name the pool never saw becomes the invalid handle, which the
// pool answers with NotFound.
util::UserId IdOf(const ContinuousSessionPool& pool, std::string_view user) {
  const auto id = pool.UserIdOf(user);
  return id.ok() ? *id : util::kInvalidUserId;
}

struct NamedUpdate {
  std::string user_id;
  double now_s = 0.0;
  SegmentId segment = roadnet::kInvalidSegment;
};

std::vector<StatusOr<core::CloakedArtifact>> UpdateNamed(
    ContinuousSessionPool& pool, const std::vector<NamedUpdate>& named) {
  std::vector<ContinuousSessionPool::IdPositionUpdate> batch;
  for (const NamedUpdate& update : named) {
    batch.push_back({IdOf(pool, update.user_id), update.now_s,
                     update.segment});
  }
  std::vector<StatusOr<core::CloakedArtifact>> results;
  for (auto& result : pool.UpdateBatch(batch)) {
    if (result.ok()) {
      results.emplace_back(**result);
    } else {
      results.emplace_back(result.status());
    }
  }
  return results;
}

StatusOr<core::CloakedArtifact> Update(ContinuousSessionPool& pool,
                                       std::string_view user, double now_s,
                                       SegmentId segment) {
  return UpdateNamed(pool, {{std::string(user), now_s, segment}}).front();
}

// Fixed fleet traces: one record per car per tick, grouped per tick.
struct FleetTraces {
  RoadNetwork net;
  std::vector<std::vector<mobility::TraceRecord>> ticks;
  std::uint32_t num_cars = 0;
};

FleetTraces MakeFleetTraces(std::uint32_t num_cars, double duration_s) {
  FleetTraces traces{roadnet::MakeGrid({12, 12, 100.0}), {}, num_cars};
  const roadnet::SpatialIndex index(traces.net);
  mobility::SpawnOptions spawn;
  spawn.num_cars = num_cars;
  spawn.seed = 77;
  auto cars = mobility::SpawnCars(traces.net, index, spawn);
  mobility::SimulationOptions sim;
  sim.tick_s = 1.0;
  sim.duration_s = duration_s;
  sim.record_every = 1;
  mobility::TraceSimulator simulator(traces.net, std::move(cars), sim);
  simulator.Run();
  std::map<double, std::vector<mobility::TraceRecord>> by_time;
  for (const auto& rec : simulator.trace()) {
    by_time[rec.time_s].push_back(rec);
  }
  for (auto& [time, records] : by_time) {
    traces.ticks.push_back(std::move(records));
  }
  return traces;
}

core::ContinuousOptions FleetOptions() {
  core::ContinuousOptions options;
  options.validity_level = 1;
  options.min_recloak_interval_s = 0.0;
  return options;
}

// What every car of a fleet run is tracked with.
struct FleetSetup {
  PrivacyProfile profile = FleetProfile();
  Algorithm algorithm = Algorithm::kRge;
  core::ContinuousOptions options = FleetOptions();
  // Called by every pool-side key derivation, on the deriving thread.
  std::function<void()> on_key_derivation;
};

// Drives every car through its own single-user ContinuousCloak oracle and
// returns, per user, the SHA-256 of every served artifact in update order.
std::map<std::string, std::vector<std::string>> RunOracle(
    const std::shared_ptr<const core::MapContext>& ctx,
    const mobility::OccupancySnapshot& occupancy, const FleetTraces& traces,
    const FleetSetup& setup = {}) {
  core::Anonymizer anonymizer(ctx, occupancy);
  core::Deanonymizer deanonymizer(ctx);
  std::map<std::string, std::vector<std::string>> oracle;
  for (std::uint32_t car = 0; car < traces.num_cars; ++car) {
    const std::string user = "car" + std::to_string(car);
    core::ContinuousCloak continuous(
        anonymizer, deanonymizer, setup.profile, setup.algorithm, user,
        KeysFor(car, setup.profile.num_levels()), setup.options);
    for (const auto& tick : traces.ticks) {
      for (const auto& rec : tick) {
        if (rec.car_id != car) continue;
        const auto artifact = continuous.Update(rec.time_s, rec.segment);
        EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
        if (artifact.ok()) oracle[user].push_back(ArtifactSha256(*artifact));
      }
    }
    EXPECT_GE(continuous.stats().recloaks, 1u);
  }
  return oracle;
}

// Drives the fleet through a pool over `workers` server workers and
// returns, per user, the SHA-256 of every served artifact in update order.
std::map<std::string, std::vector<std::string>> RunPool(
    const std::shared_ptr<const core::MapContext>& ctx,
    const mobility::OccupancySnapshot& occupancy, const FleetTraces& traces,
    int workers, const FleetSetup& setup = {}) {
  core::Anonymizer engine(ctx, occupancy);
  server::ServerOptions server_options;
  server_options.num_workers = workers;
  server_options.max_queue = 4096;
  AnonymizationServer server(std::move(engine), server_options);
  ContinuousSessionPool pool(server);
  std::vector<util::UserId> ids(traces.num_cars);
  for (std::uint32_t car = 0; car < traces.num_cars; ++car) {
    const std::string user = "car" + std::to_string(car);
    auto keys = KeysFor(car, setup.profile.num_levels());
    if (setup.on_key_derivation) {
      keys = [keys, hook = setup.on_key_derivation](std::uint64_t epoch) {
        hook();
        return keys(epoch);
      };
    }
    const auto tracked = pool.Track(user, setup.profile, setup.algorithm,
                                    std::move(keys), setup.options);
    EXPECT_TRUE(tracked.ok()) << tracked.status().ToString();
    if (!tracked.ok()) return {};
    ids[car] = *tracked;
    // The handle is stable and re-derivable from the name.
    EXPECT_EQ(IdOf(pool, user), *tracked);
  }
  std::map<std::string, std::vector<std::string>> sequences;
  for (const auto& tick : traces.ticks) {
    std::vector<ContinuousSessionPool::IdPositionUpdate> batch;
    for (const auto& rec : tick) {
      batch.push_back({ids[rec.car_id], rec.time_s, rec.segment});
    }
    const auto results = pool.UpdateBatch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(results[i].ok()) << results[i].status().ToString();
      if (results[i].ok()) {
        sequences["car" + std::to_string(tick[i].car_id)].push_back(
            ArtifactSha256(**results[i]));
      }
    }
  }
  return sequences;
}

TEST(SessionPoolTest, MatchesSingleUserOracleByteForByte) {
  const auto traces = MakeFleetTraces(/*num_cars=*/6, /*duration_s=*/60.0);
  const auto ctx = core::MapContext::Create(traces.net);
  const auto occupancy = OnePerSegment(traces.net);

  // Oracle: one ContinuousCloak per car over the same context/occupancy.
  const auto oracle = RunOracle(ctx, occupancy, traces);
  const auto pooled = RunPool(ctx, occupancy, traces, /*workers=*/2);
  EXPECT_EQ(pooled, oracle);
}

TEST(SessionPoolTest, ArtifactSequencesIdenticalAcrossWorkerCounts) {
  const auto traces = MakeFleetTraces(/*num_cars=*/8, /*duration_s=*/45.0);
  const auto ctx = core::MapContext::Create(traces.net);
  const auto occupancy = OnePerSegment(traces.net);

  const auto single = RunPool(ctx, occupancy, traces, /*workers=*/1);
  ASSERT_EQ(single.size(), traces.num_cars);
  for (const int workers : {2, 4}) {
    const auto sharded = RunPool(ctx, occupancy, traces, workers);
    EXPECT_EQ(sharded, single) << workers << " workers";
  }
  // The fleet is RGE-only: no server built RPLE tables it never used.
  EXPECT_EQ(ctx->table_builds(), 0u);
  EXPECT_EQ(ctx->grid_builds(), 0u);
}

// A re-cloak's key chain is derived by the server worker that runs the
// job, never by the thread that calls UpdateBatch, and per-user sequences
// do not depend on how many workers share the derivations.
TEST(SessionPoolTest, KeyChainsAreDerivedOnServerWorkers) {
  const auto traces = MakeFleetTraces(/*num_cars=*/8, /*duration_s=*/45.0);
  const auto ctx = core::MapContext::Create(traces.net);
  const auto occupancy = OnePerSegment(traces.net);

  std::mutex mutex;
  std::set<std::thread::id> deriving_threads;
  std::size_t derivations = 0;
  FleetSetup setup;
  setup.on_key_derivation = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    deriving_threads.insert(std::this_thread::get_id());
    ++derivations;
  };
  const auto single = RunPool(ctx, occupancy, traces, /*workers=*/1, setup);
  ASSERT_EQ(single.size(), traces.num_cars);
  for (const int workers : {2, server::ServerOptions{}.num_workers}) {
    EXPECT_EQ(RunPool(ctx, occupancy, traces, workers, setup), single)
        << workers << " workers";
  }
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_GT(derivations, 0u);
  EXPECT_EQ(deriving_threads.count(std::this_thread::get_id()), 0u)
      << "a key chain was derived on the UpdateBatch caller";
}

TEST(SessionPoolTest, InRegionUpdatesNeverTouchTheServer) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);
  ASSERT_TRUE(pool.Track("alice", FleetProfile(), Algorithm::kRge,
                         KeysFor(1), FleetOptions())
                  .ok());
  // First update cuts an artifact; staying on the same segment serves it
  // from the session shard without a single further server job.
  for (int t = 0; t < 10; ++t) {
    const auto artifact = Update(pool, "alice", t, SegmentId{60});
    ASSERT_TRUE(artifact.ok());
  }
  EXPECT_EQ(server.stats().accepted, 1u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.updates, 10u);
  EXPECT_EQ(stats.recloaks, 1u);
  EXPECT_EQ(stats.served_in_region, 9u);
  const auto user_stats = pool.UserStats("alice");
  ASSERT_TRUE(user_stats.ok());
  EXPECT_EQ(user_stats->recloaks, 1u);
}

TEST(SessionPoolTest, ThrottledStaleBurstServesOldArtifactWithoutEpochAdvance) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);
  core::ContinuousOptions options;
  options.min_recloak_interval_s = 100.0;
  ASSERT_TRUE(pool.Track("bob", PrivacyProfile({{6, 3, 1e9}}),
                         Algorithm::kRple, KeysFor(2), options)
                  .ok());
  const auto first = Update(pool, "bob", 0.0, SegmentId{0});
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(*pool.UserEpoch("bob"), 1u);
  // A burst of far-away updates inside the throttle window: the stale
  // artifact is served unchanged every time, no epoch advances.
  for (int burst = 1; burst <= 5; ++burst) {
    const auto stale =
        Update(pool, "bob", 0.5 + 0.1 * burst, SegmentId{120});
    ASSERT_TRUE(stale.ok());
    EXPECT_EQ(core::EncodeArtifact(*stale), core::EncodeArtifact(*first));
  }
  EXPECT_EQ(*pool.UserEpoch("bob"), 1u);
  EXPECT_EQ(pool.stats().throttled_stale, 5u);
  // Past the window the same position finally rolls the epoch over.
  const auto fresh = Update(pool, "bob", 200.0, SegmentId{120});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*pool.UserEpoch("bob"), 2u);
  EXPECT_NE(core::EncodeArtifact(*fresh), core::EncodeArtifact(*first));
}

TEST(SessionPoolTest, EvictionAndStaleUsers) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);

  // An invalid handle (a name the pool never saw) fails fast, with a
  // counter, without touching any session.
  EXPECT_EQ(pool.UserIdOf("ghost").status().code(), ErrorCode::kNotFound);
  const auto ghost =
      pool.UpdateBatch({{util::kInvalidUserId, 0.0, SegmentId{3}}});
  EXPECT_EQ(ghost[0].status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(pool.stats().unknown_user, 1u);

  for (int u = 0; u < 4; ++u) {
    ASSERT_TRUE(pool.Track("u" + std::to_string(u), FleetProfile(),
                           Algorithm::kRge, KeysFor(10 + u), FleetOptions())
                    .ok());
  }
  // Double-track is refused.
  EXPECT_FALSE(pool.Track("u0", FleetProfile(), Algorithm::kRge, KeysFor(10))
                   .ok());
  EXPECT_EQ(pool.session_count(), 4u);

  // u0 and u1 update late, u2/u3 go idle.
  for (int u = 0; u < 4; ++u) {
    ASSERT_TRUE(
        Update(pool, "u" + std::to_string(u), 10.0, SegmentId{30}).ok());
  }
  ASSERT_TRUE(Update(pool, "u0", 100.0, SegmentId{30}).ok());
  ASSERT_TRUE(Update(pool, "u1", 101.0, SegmentId{30}).ok());
  EXPECT_EQ(pool.EvictIdle(/*now_s=*/130.0, /*idle_s=*/60.0), 2u);
  EXPECT_EQ(pool.session_count(), 2u);
  EXPECT_TRUE(pool.UserEpoch("u0").ok());
  EXPECT_EQ(pool.UserEpoch("u2").status().code(), ErrorCode::kNotFound);

  // Explicit eviction; a subsequent update is an unknown-user error and a
  // re-track starts a fresh session at epoch 0.
  EXPECT_TRUE(pool.Evict("u0"));
  EXPECT_FALSE(pool.Evict("u0"));
  EXPECT_EQ(Update(pool, "u0", 140.0, SegmentId{30}).status().code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(pool.Track("u0", FleetProfile(), Algorithm::kRge, KeysFor(10),
                         FleetOptions())
                  .ok());
  EXPECT_EQ(*pool.UserEpoch("u0"), 0u);
  EXPECT_EQ(pool.stats().evicted, 3u);
}

// Eviction must not silently lose the evicted users' lifetime statistics:
// EvictIdle returns the reaped count, bumps the idle-eviction counter, and
// both eviction paths fold the per-user stats into the retired_* counters.
TEST(SessionPoolTest, EvictionRetiresPerUserStatsInsteadOfDroppingThem) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);

  for (int u = 0; u < 3; ++u) {
    ASSERT_TRUE(pool.Track("r" + std::to_string(u), FleetProfile(),
                           Algorithm::kRge, KeysFor(20 + u), FleetOptions())
                    .ok());
  }
  // Distinct update counts per user: r0 gets 1, r1 gets 2, r2 gets 3.
  std::uint64_t expected_updates = 0, expected_recloaks = 0;
  for (int u = 0; u < 3; ++u) {
    const std::string user = "r" + std::to_string(u);
    for (int i = 0; i <= u; ++i) {
      ASSERT_TRUE(
          Update(pool, user, 10.0 * (i + 1), SegmentId{40}).ok());
    }
    const auto stats = pool.UserStats(user);
    ASSERT_TRUE(stats.ok());
    expected_updates += stats->updates;
    expected_recloaks += stats->recloaks;
  }
  ASSERT_EQ(expected_updates, 6u);
  ASSERT_GE(expected_recloaks, 3u);  // at least the initial cloak each

  // r0 idles out; r1 is evicted explicitly; r2 stays.
  ASSERT_TRUE(Update(pool, "r1", 200.0, SegmentId{40}).ok());
  ASSERT_TRUE(Update(pool, "r2", 201.0, SegmentId{40}).ok());
  expected_updates += 2;
  EXPECT_EQ(pool.EvictIdle(/*now_s=*/230.0, /*idle_s=*/60.0), 1u);
  EXPECT_TRUE(pool.Evict("r1"));

  const auto live = pool.UserStats("r2");
  ASSERT_TRUE(live.ok());
  const auto stats = pool.stats();
  EXPECT_EQ(stats.evicted, 2u);
  EXPECT_EQ(stats.evicted_idle, 1u);
  // Retired + still-live accounting covers every update and re-cloak ever
  // fed to the pool — nothing was dropped with the sessions.
  EXPECT_EQ(stats.retired_updates + live->updates, expected_updates);
  EXPECT_EQ(stats.retired_recloaks + live->recloaks, stats.recloaks);
  EXPECT_EQ(stats.retired_throttled_stale + live->throttled_stale,
            stats.throttled_stale);
  EXPECT_GT(stats.retired_updates, 0u);
  EXPECT_GT(stats.retired_recloaks, 0u);
}

// A session tracked late in simulation time but never updated measures
// idleness from its registration time, not from time zero.
TEST(SessionPoolTest, LateTrackedSessionSurvivesEvictIdle) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);
  ASSERT_TRUE(pool.Track("late", FleetProfile(), Algorithm::kRge,
                         KeysFor(99), FleetOptions(), /*now_s=*/10000.0)
                  .ok());
  EXPECT_EQ(pool.EvictIdle(/*now_s=*/10010.0, /*idle_s=*/60.0), 0u);
  EXPECT_TRUE(pool.UserEpoch("late").ok());
  // Once genuinely idle past the window, it goes.
  EXPECT_EQ(pool.EvictIdle(/*now_s=*/10100.0, /*idle_s=*/60.0), 1u);
  EXPECT_FALSE(pool.UserEpoch("late").ok());
}

// Disjoint user sets driven from several threads: exercises the per-shard
// locking under TSAN (the CI job runs this binary race-clean).
TEST(SessionPoolTest, ConcurrentDisjointDrivers) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  server::ServerOptions server_options;
  server_options.num_workers = 4;
  AnonymizationServer server(std::move(engine), server_options);
  ContinuousSessionPool pool(server);

  constexpr int kThreads = 4;
  constexpr int kUsersPerThread = 3;
  constexpr int kUpdates = 25;
  for (int thread = 0; thread < kThreads; ++thread) {
    for (int u = 0; u < kUsersPerThread; ++u) {
      const std::string user =
          "t" + std::to_string(thread) + "/u" + std::to_string(u);
      ASSERT_TRUE(pool.Track(user, FleetProfile(), Algorithm::kRge,
                             KeysFor(100 + thread * 10 + u), FleetOptions())
                      .ok());
    }
  }
  std::vector<std::thread> drivers;
  for (int thread = 0; thread < kThreads; ++thread) {
    drivers.emplace_back([&pool, thread, &net] {
      for (int step = 0; step < kUpdates; ++step) {
        for (int u = 0; u < kUsersPerThread; ++u) {
          const std::string user =
              "t" + std::to_string(thread) + "/u" + std::to_string(u);
          const SegmentId here{static_cast<std::uint32_t>(
              (thread * 31 + u * 7 + step * 5) % net.segment_count())};
          const auto artifact = Update(pool, user, step, here);
          ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
        }
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.updates,
            static_cast<std::uint64_t>(kThreads * kUsersPerThread * kUpdates));
  EXPECT_EQ(stats.recloak_failures, 0u);
  EXPECT_GE(stats.recloaks, static_cast<std::uint64_t>(kThreads));
}

// A batch carrying several updates for one user commits them in order: the
// second update observes the first one's region (matching what the oracle
// would do fed sequentially).
TEST(SessionPoolTest, MultipleUpdatesForOneUserInOneBatchStayOrdered) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  const auto occupancy = OnePerSegment(net);

  core::Anonymizer oracle_engine(ctx, occupancy);
  core::Deanonymizer oracle_deanonymizer(ctx);
  core::ContinuousCloak oracle(oracle_engine, oracle_deanonymizer,
                               FleetProfile(), Algorithm::kRge, "carol",
                               KeysFor(3), FleetOptions());
  const std::vector<SegmentId> positions{SegmentId{5}, SegmentId{60},
                                         SegmentId{61}, SegmentId{130}};
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto artifact = oracle.Update(static_cast<double>(i), positions[i]);
    ASSERT_TRUE(artifact.ok());
    expected.push_back(ArtifactSha256(*artifact));
  }

  core::Anonymizer engine(ctx, occupancy);
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);
  ASSERT_TRUE(pool.Track("carol", FleetProfile(), Algorithm::kRge, KeysFor(3),
                         FleetOptions())
                  .ok());
  std::vector<NamedUpdate> batch;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    batch.push_back({"carol", static_cast<double>(i), positions[i]});
  }
  const auto results = UpdateNamed(pool, batch);
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(ArtifactSha256(*results[i]), expected[i]) << i;
  }
}

// The pool commits the region the anonymizer sealed as each re-cloak's
// validity region; the oracle derives it with the keyed reduce. The two
// routes must serve the same bytes for every reversible backend and every
// validity level of a 3-level profile (level 3 is the published region).
TEST(SessionPoolTest, SealedValidityRegionsMatchOracleAcrossBackends) {
  const auto traces = MakeFleetTraces(/*num_cars=*/8, /*duration_s=*/40.0);
  const auto ctx = core::MapContext::Create(traces.net);
  const auto occupancy = OnePerSegment(traces.net);
  for (const Algorithm algorithm :
       {Algorithm::kRge, Algorithm::kRple, Algorithm::kGrid}) {
    for (const int validity_level : {1, 2, 3}) {
      SCOPED_TRACE(std::string(core::AlgorithmName(algorithm)) +
                   " validity_level=" + std::to_string(validity_level));
      FleetSetup setup;
      setup.profile = PrivacyProfile({{4, 2, 1e9}, {10, 4, 1e9}, {24, 6, 1e9}});
      setup.algorithm = algorithm;
      setup.options.validity_level = validity_level;
      const auto oracle = RunOracle(ctx, occupancy, traces, setup);
      ASSERT_EQ(oracle.size(), traces.num_cars);
      EXPECT_EQ(RunPool(ctx, occupancy, traces, /*workers=*/4, setup),
                oracle);
    }
  }
}

// A non-reversible backend seals no region, so below the outermost level
// the re-cloak fails exactly as the oracle's keyed reduce does (same code,
// same message) and leaves the session as it was; at the outermost level
// it serves like any other backend.
TEST(SessionPoolTest, NonReversibleBackendFailsAndServesLikeTheOracle) {
  const auto traces = MakeFleetTraces(/*num_cars=*/4, /*duration_s=*/10.0);
  const auto ctx = core::MapContext::Create(traces.net);
  const auto occupancy = OnePerSegment(traces.net);
  FleetSetup setup;
  setup.algorithm = Algorithm::kRandomExpand;

  setup.options.validity_level = 1;
  core::Anonymizer anonymizer(ctx, occupancy);
  core::Deanonymizer deanonymizer(ctx);
  core::ContinuousCloak oracle(anonymizer, deanonymizer, setup.profile,
                               setup.algorithm, "car0", KeysFor(0),
                               setup.options);
  const auto expected = oracle.Update(0.0, SegmentId{60});
  ASSERT_FALSE(expected.ok());
  EXPECT_EQ(expected.status().code(), ErrorCode::kUnimplemented);

  core::Anonymizer engine(ctx, occupancy);
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);
  ASSERT_TRUE(pool.Track("car0", setup.profile, setup.algorithm, KeysFor(0),
                         setup.options)
                  .ok());
  const auto pooled = Update(pool, "car0", 0.0, SegmentId{60});
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(pooled.status().code(), expected.status().code());
  EXPECT_EQ(pooled.status().message(), expected.status().message());
  EXPECT_EQ(pool.stats().recloak_failures, 1u);
  EXPECT_EQ(pool.stats().recloaks, 0u);
  ASSERT_TRUE(pool.UserEpoch("car0").ok());
  EXPECT_EQ(*pool.UserEpoch("car0"), 0u);

  setup.options.validity_level = setup.profile.num_levels();
  const auto served = RunOracle(ctx, occupancy, traces, setup);
  ASSERT_EQ(served.size(), traces.num_cars);
  EXPECT_EQ(RunPool(ctx, occupancy, traces, /*workers=*/2, setup), served);
}

// Parses "car<N>" back into the deterministic key chain Track used, so
// restore-on-miss can rebuild providers without parking them.
ContinuousSessionPool::KeyProvider CarKeys(std::string_view user_id) {
  return KeysFor(std::stoull(std::string(user_id.substr(3))));
}

// Removes a spill file and its compaction temp, so each test attaches
// fresh; also used as end-of-test cleanup.
void RemoveSpillFile(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// A session written to the spill file and restored on miss resumes its
// epoch chain bit-for-bit: the artifact sequence equals the single-user
// oracle that never paused, and its per-user statistics carry on.
TEST(SessionPoolTest, SpillFileRestoreResumesEpochChainByteForByte) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  const auto occupancy = OnePerSegment(net);

  // Position walk with several region exits on both sides of the spill.
  std::vector<SegmentId> positions;
  for (int i = 0; i < 12; ++i) {
    positions.push_back(SegmentId{static_cast<std::uint32_t>((i * 37) %
                                                             net.segment_count())});
  }

  core::Anonymizer oracle_engine(ctx, occupancy);
  core::Deanonymizer oracle_deanonymizer(ctx);
  core::ContinuousCloak oracle(oracle_engine, oracle_deanonymizer,
                               FleetProfile(), Algorithm::kRge, "dora",
                               KeysFor(4), FleetOptions());
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto artifact = oracle.Update(static_cast<double>(i), positions[i]);
    ASSERT_TRUE(artifact.ok());
    expected.push_back(ArtifactSha256(*artifact));
  }
  ASSERT_GE(oracle.stats().recloaks, 3u);

  // No key factory: the spill parks dora's provider until she returns.
  core::Anonymizer engine(ctx, occupancy);
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);
  const std::string path = "session_pool_resume_test.rcsf";
  std::remove(path.c_str());
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  const auto dora = pool.Track("dora", FleetProfile(), Algorithm::kRge,
                               KeysFor(4), FleetOptions());
  ASSERT_TRUE(dora.ok());
  std::vector<std::string> served;
  const std::size_t half = positions.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const auto artifact =
        Update(pool, "dora", static_cast<double>(i), positions[i]);
    ASSERT_TRUE(artifact.ok());
    served.push_back(ArtifactSha256(*artifact));
  }
  const auto stats_before = pool.UserStats("dora");
  ASSERT_TRUE(stats_before.ok());
  ASSERT_GE(stats_before->recloaks, 2u);  // the chain is mid-run

  const auto written = pool.SpillAllToFile();
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, 1u);
  EXPECT_EQ(pool.session_count(), 0u);
  EXPECT_EQ(pool.StateOf(*dora), ContinuousSessionPool::UserState::kSpilled);
  EXPECT_EQ(pool.stats().spilled, 1u);
  // Spilled stats travel in the record — nothing was retired.
  EXPECT_EQ(pool.stats().retired_updates, 0u);

  for (std::size_t i = half; i < positions.size(); ++i) {
    const auto artifact =
        Update(pool, "dora", static_cast<double>(i), positions[i]);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    served.push_back(ArtifactSha256(*artifact));
  }
  EXPECT_EQ(served, expected);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.restored_on_miss, 1u);
  EXPECT_EQ(stats.restored, 1u);
  EXPECT_EQ(stats.restore_failures, 0u);
  // Per-user statistics resumed, not reset.
  ASSERT_TRUE(pool.UserStats("dora").ok());
  EXPECT_EQ(pool.UserStats("dora")->updates, positions.size());
  EXPECT_EQ(pool.UserStats("dora")->recloaks, oracle.stats().recloaks);
  std::remove(path.c_str());
}

// Evict removes a spilled user as well as a resident one: the spill record
// and the parked key provider go, so the user's next update is NotFound
// instead of a restore-on-miss bringing the session back.
TEST(SessionPoolTest, EvictDropsSpilledUser) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  // No key factory: the spill parks each provider in the pool.
  ContinuousSessionPool pool(server);
  const std::string path = "session_pool_evict_test.rcsf";
  std::remove(path.c_str());
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  for (const char* user : {"a", "b"}) {
    ASSERT_TRUE(pool.Track(user, FleetProfile(), Algorithm::kRge, KeysFor(1),
                           FleetOptions())
                    .ok());
    ASSERT_TRUE(Update(pool, user, 1.0, SegmentId{5}).ok());
  }
  ASSERT_EQ(*pool.SpillAllToFile(), 2u);
  const util::UserId a = IdOf(pool, "a");
  ASSERT_EQ(pool.StateOf(a), ContinuousSessionPool::UserState::kSpilled);
  const std::size_t memory_before = pool.memory_bytes();

  EXPECT_TRUE(pool.Evict("a"));
  EXPECT_EQ(pool.StateOf(a), ContinuousSessionPool::UserState::kUntracked);
  EXPECT_FALSE(pool.Evict("a"));
  auto stats = pool.stats();
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.spill_live_records, 1u);
  // The parked provider went with the record.
  EXPECT_LT(pool.memory_bytes(), memory_before);

  const auto gone = pool.UpdateBatch({{a, 2.0, SegmentId{6}}});
  EXPECT_EQ(gone[0].status().code(), ErrorCode::kNotFound);
  stats = pool.stats();
  EXPECT_EQ(stats.restored_on_miss, 0u);
  EXPECT_EQ(stats.unknown_user, 1u);
  EXPECT_EQ(pool.session_count(), 0u);

  // The other spilled user is untouched; a re-tracked "a" starts afresh.
  EXPECT_EQ(*pool.RestoreAllFromFile(), 1u);
  ASSERT_TRUE(pool.Track("a", FleetProfile(), Algorithm::kRge, KeysFor(1),
                         FleetOptions())
                  .ok());
  EXPECT_EQ(*pool.UserEpoch("a"), 0u);
  std::remove(path.c_str());
}

// An Evict that lands between a restore-on-miss's record read and its
// insert wins: the restore finds the record gone and the update is
// NotFound, instead of the read bringing the evicted user back. The key
// factory runs in exactly that window, so it evicts from a second thread
// (a shared cold-tier hold, like the restore's own).
TEST(SessionPoolTest, EvictWinsOverARestoreInFlight) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool* evicting = nullptr;
  server::SessionPoolOptions options;
  options.key_provider_factory = [&evicting](std::string_view user) {
    if (evicting != nullptr) {
      std::thread([&] { EXPECT_TRUE(evicting->Evict(user)); }).join();
    }
    return CarKeys(user);
  };
  ContinuousSessionPool pool(server, options);
  const std::string path = "session_pool_evict_race_test.rcsf";
  std::remove(path.c_str());
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  const auto car3 = pool.Track("car3", FleetProfile(), Algorithm::kRge,
                               KeysFor(3), FleetOptions());
  ASSERT_TRUE(car3.ok());
  ASSERT_TRUE(Update(pool, "car3", 1.0, SegmentId{5}).ok());
  ASSERT_EQ(*pool.SpillAllToFile(), 1u);

  evicting = &pool;
  const auto results = pool.UpdateBatch({{*car3, 2.0, SegmentId{6}}});
  EXPECT_EQ(results[0].status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(pool.StateOf(*car3), ContinuousSessionPool::UserState::kUntracked);
  EXPECT_EQ(pool.session_count(), 0u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.restored, 0u);
  EXPECT_EQ(stats.restored_on_miss, 0u);
  std::remove(path.c_str());
}

// One spilled user updated on two connections at once: both updates miss
// and both restores read the record, but only the one that inserts takes
// the key provider parked at spill time; the other serves the session that
// went in and counts nothing. Run without a key factory (providers parked)
// and with one (providers derived at restore): every update succeeds, no
// restore fails, and each round restores each user exactly once.
TEST(SessionPoolTest, ConcurrentRestoresOfOneUserNeverFail) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  constexpr int kUsers = 64;
  constexpr int kRounds = 50;
  for (const bool with_factory : {false, true}) {
    SCOPED_TRACE(with_factory ? "key factory" : "parked providers");
    core::Anonymizer engine(ctx, OnePerSegment(net));
    server::ServerOptions server_options;
    server_options.num_workers = 2;
    AnonymizationServer server(std::move(engine), server_options);
    server::SessionPoolOptions options;
    if (with_factory) options.key_provider_factory = CarKeys;
    ContinuousSessionPool pool(server, options);
    const std::string path = "session_pool_double_restore_test.rcsf";
    RemoveSpillFile(path);
    ASSERT_TRUE(pool.AttachSpillFile(path).ok());
    std::vector<ContinuousSessionPool::IdPositionUpdate> fleet;
    for (int car = 0; car < kUsers; ++car) {
      const auto id = pool.Track("car" + std::to_string(car), FleetProfile(),
                                 Algorithm::kRge, KeysFor(car),
                                 FleetOptions());
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      fleet.push_back({*id, 0.0, SegmentId{static_cast<std::uint32_t>(car)}});
    }
    for (const auto& result : pool.UpdateBatch(fleet)) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }

    for (int round = 1; round <= kRounds; ++round) {
      ASSERT_EQ(*pool.SpillAllToFile(), static_cast<std::size_t>(kUsers));
      for (auto& update : fleet) update.now_s = round;
      std::atomic<int> waiting{2};
      std::vector<std::thread> connections;
      for (int c = 0; c < 2; ++c) {
        connections.emplace_back([&] {
          waiting.fetch_sub(1);
          while (waiting.load() > 0) std::this_thread::yield();
          for (const auto& result : pool.UpdateBatch(fleet)) {
            EXPECT_TRUE(result.ok()) << result.status().ToString();
          }
        });
      }
      for (auto& connection : connections) connection.join();
    }
    const auto stats = pool.stats();
    EXPECT_EQ(stats.restore_failures, 0u);
    EXPECT_EQ(stats.restored_on_miss,
              static_cast<std::uint64_t>(kUsers) * kRounds);
    EXPECT_EQ(stats.unknown_user, 0u);
    RemoveSpillFile(path);
  }
}

// Spill records are input from outside the program. Every prefix of a
// real record (shorter than its 8-byte owner token included), a record
// with trailing bytes and one naming an unknown algorithm must fail closed
// on every path that reads it. Both restore paths count a restore failure
// and leave no resident session; the update that tripped it gets the
// restore's own status (not NotFound, not a refusal), and the user stays
// locked out: its record stays live and Track refuses to start it afresh.
// The ownership reads (StateOf with a principal,
// OwnedSpillRecords) read only the owner token: they return DataLoss once
// it is cut, and otherwise the owner's answer. The tampered copy
// supersedes the good one the way any later append does (last write wins).
TEST(SessionPoolTest, TamperedSpillRecordsFailClosed) {
  using State = ContinuousSessionPool::UserState;
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  constexpr std::uint64_t kOwner = 42;
  constexpr std::uint64_t kStranger = 7;
  const std::string good_path = "session_pool_tamper_good.rcsf";
  const std::string path = "session_pool_tamper_test.rcsf";
  const auto make_pool = [&](const std::string& file) {
    server::SessionPoolOptions options;
    options.key_provider_factory = CarKeys;
    auto pool = std::make_unique<ContinuousSessionPool>(server, options);
    EXPECT_TRUE(pool->AttachSpillFile(file).ok());
    return pool;
  };
  std::remove(good_path.c_str());
  {
    auto pool = make_pool(good_path);
    const auto car0 = pool->Track("car0", FleetProfile(), Algorithm::kRge,
                                  CarKeys("car0"), FleetOptions(), 0.0, kOwner);
    ASSERT_TRUE(car0.ok());
    ASSERT_TRUE(
        pool->UpdateBatch({{*car0, 1.0, SegmentId{7}, kOwner}})[0].ok());
    ASSERT_EQ(*pool->SpillAllToFile(), 1u);
  }
  Bytes good;
  {
    util::StringInterner interner;
    auto file = store::SpillFile::Attach(good_path, ctx->fingerprint(),
                                         interner);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto state = (*file)->ReadRecord(interner.Find("car0"));
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    good = std::move(*state);
  }
  // Record layout: u64 owner | f64 clock | varint segment (7: one byte) |
  // u8 algorithm | ... — the algorithm byte is at offset 17.
  constexpr std::size_t kAlgorithmOffset = 17;
  ASSERT_GT(good.size(), kAlgorithmOffset);
  ASSERT_EQ(good[kAlgorithmOffset], static_cast<std::uint8_t>(Algorithm::kRge));

  struct Tamper {
    std::string what;
    Bytes state;
  };
  std::vector<Tamper> tampers;
  for (std::size_t size = 0; size < good.size(); ++size) {
    const auto end = good.begin() + static_cast<std::ptrdiff_t>(size);
    tampers.push_back({"prefix " + std::to_string(size),
                       Bytes(good.begin(), end)});
  }
  tampers.push_back({"trailing byte", good});
  tampers.back().state.push_back(0);
  tampers.push_back({"algorithm", good});
  tampers.back().state[kAlgorithmOffset] = 0xEE;

  for (const Tamper& tamper : tampers) {
    SCOPED_TRACE(tamper.what);
    std::filesystem::copy_file(
        good_path, path, std::filesystem::copy_options::overwrite_existing);
    {
      util::StringInterner interner;
      auto file = store::SpillFile::Attach(path, ctx->fingerprint(), interner);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      ASSERT_TRUE(
          (*file)->AppendBatch({{interner.Find("car0"), tamper.state}}).ok());
    }
    auto pool = make_pool(path);
    const util::UserId car0 = IdOf(*pool, "car0");
    ASSERT_EQ(pool->StateOf(car0), State::kSpilled);

    // The ownership reads: DataLoss without a whole owner token, else the
    // owner (kOwner) decides, whatever follows it.
    const bool owner_cut = tamper.state.size() < 8;
    const auto as_owner = pool->StateOf(car0, kOwner);
    const auto as_stranger = pool->StateOf(car0, kStranger);
    const auto owned = pool->OwnedSpillRecords();
    if (owner_cut) {
      EXPECT_EQ(as_owner.status().code(), ErrorCode::kDataLoss);
      EXPECT_EQ(as_stranger.status().code(), ErrorCode::kDataLoss);
      EXPECT_EQ(owned.status().code(), ErrorCode::kDataLoss);
    } else {
      ASSERT_TRUE(as_owner.ok()) << as_owner.status().ToString();
      EXPECT_EQ(*as_owner, State::kSpilled);
      EXPECT_EQ(as_stranger.status().code(), ErrorCode::kPermissionDenied);
      ASSERT_TRUE(owned.ok()) << owned.status().ToString();
      EXPECT_EQ(*owned, 1u);
    }
    EXPECT_EQ(pool->session_count(), 0u);

    const auto missed = pool->UpdateBatch({{car0, 2.0, SegmentId{8}, kOwner}});
    EXPECT_EQ(missed[0].status().code(), tamper.what == "algorithm"
                                             ? ErrorCode::kInvalidArgument
                                             : ErrorCode::kDataLoss);
    auto stats = pool->stats();
    EXPECT_EQ(stats.restore_failures, 1u);
    EXPECT_EQ(stats.unknown_user, 0u);
    EXPECT_EQ(stats.ownership_rejected, 0u);
    EXPECT_EQ(stats.restored_on_miss, 0u);
    EXPECT_EQ(pool->session_count(), 0u);
    const auto retracked =
        pool->Track("car0", FleetProfile(), Algorithm::kRge, CarKeys("car0"),
                    FleetOptions(), 2.0, kOwner);
    EXPECT_EQ(retracked.status().code(), ErrorCode::kFailedPrecondition);
    EXPECT_EQ(pool->StateOf(car0), State::kSpilled);

    const auto restored = pool->RestoreAllFromFile();
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(*restored, 0u);
    stats = pool->stats();
    EXPECT_EQ(stats.restore_failures, 2u);
    EXPECT_EQ(stats.restored, 0u);
    EXPECT_EQ(pool->session_count(), 0u);
  }
  std::remove(path.c_str());
  std::remove(good_path.c_str());
}

// Track must not roll a spilled user back: a fresh session would restart
// its epoch chain at 0 and reuse request contexts the spilled chain has
// already published. The record stays live and the next update resumes
// the old chain.
TEST(SessionPoolTest, TrackRefusesToRestartASpilledUser) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  server::SessionPoolOptions options;
  options.key_provider_factory = CarKeys;
  ContinuousSessionPool pool(server, options);
  const std::string path = "session_pool_retrack_test.rcsf";
  std::remove(path.c_str());
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  ASSERT_TRUE(pool.Track("car0", FleetProfile(), Algorithm::kRge,
                         CarKeys("car0"), FleetOptions())
                  .ok());
  const SegmentId far{static_cast<std::uint32_t>(net.segment_count() - 1)};
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(
        Update(pool, "car0", t, t % 2 == 0 ? SegmentId{0} : far).ok());
  }
  const auto epoch = pool.UserEpoch("car0");
  ASSERT_TRUE(epoch.ok());
  ASSERT_GE(*epoch, 2u);
  ASSERT_EQ(*pool.SpillAllToFile(), 1u);

  const auto retracked = pool.Track("car0", FleetProfile(), Algorithm::kRge,
                                    CarKeys("car0"), FleetOptions());
  EXPECT_EQ(retracked.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(pool.session_count(), 0u);
  EXPECT_EQ(pool.stats().spill_live_records, 1u);

  // The next update restores the spilled chain where it stopped: the
  // update lands inside the region in force, so the epoch does not move.
  ASSERT_TRUE(Update(pool, "car0", 4, far).ok());
  EXPECT_EQ(pool.stats().restored_on_miss, 1u);
  EXPECT_EQ(*pool.UserEpoch("car0"), *epoch);
  std::remove(path.c_str());
}

// Callers racing to first-sight one name under different principals end
// inside the pool: every call gets the one handle, one session goes in,
// its owner is one of the callers, and the others are refused at update.
TEST(SessionPoolTest, FindOrTrackRaceResolvesToOneOwnedSession) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);
  constexpr int kThreads = 8;
  const auto principal = [](int i) { return std::uint64_t{100} + i; };
  std::atomic<int> factory_calls{0};
  const server::KeyProviderFactory keys =
      [&factory_calls](std::string_view user) {
        factory_calls.fetch_add(1);
        return CarKeys(user);
      };
  std::vector<StatusOr<util::UserId>> handles(
      kThreads, Status::Internal("not run"));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      handles[static_cast<std::size_t>(i)] =
          pool.FindOrTrack("car0", FleetProfile(), Algorithm::kRge, keys,
                           FleetOptions(), 0.0, principal(i));
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  for (const auto& handle : handles) {
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    EXPECT_EQ(*handle, *handles.front());
  }
  EXPECT_EQ(pool.session_count(), 1u);
  EXPECT_GE(factory_calls.load(), 1);
  int owners = 0;
  for (int i = 0; i < kThreads; ++i) {
    const auto result =
        pool.UpdateBatch({{*handles.front(), 1.0, SegmentId{5}, principal(i)}});
    if (result[0].ok()) {
      ++owners;
    } else {
      EXPECT_EQ(result[0].status().code(), ErrorCode::kPermissionDenied);
    }
  }
  EXPECT_EQ(owners, 1);
  EXPECT_EQ(pool.stats().ownership_rejected,
            static_cast<std::uint64_t>(kThreads - 1));
}

// Pins the incremental per-shard occupancy deltas (PR 6) to a full
// rebuild through every mutation that moves a last_segment: track, update,
// explicit evict (resident and spilled), spill to file, restore on miss,
// warm boot and idle reaping. The rebuild is the test's own ledger: the
// last segment sent for each user, counted for the users the pool reports
// resident.
TEST(SessionPoolTest, IncrementalOccupancyMatchesRebuildThroughChurn) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  const auto occupancy = OnePerSegment(net);
  core::Anonymizer engine(ctx, occupancy);
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);
  const std::string path = "session_pool_occupancy_test.rcsf";
  std::remove(path.c_str());
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());

  std::map<std::string, SegmentId> last_sent;
  const auto send = [&](const std::vector<NamedUpdate>& batch) {
    for (const NamedUpdate& update : batch) {
      last_sent[update.user_id] = update.segment;
    }
    return UpdateNamed(pool, batch);
  };
  const auto expect_equiv = [&](const char* where) {
    mobility::OccupancySnapshot rebuilt(net.segment_count());
    for (const auto& [user, segment] : last_sent) {
      if (pool.StateOf(IdOf(pool, user)) ==
          ContinuousSessionPool::UserState::kResident) {
        rebuilt.Add(segment);
      }
    }
    const auto incremental = pool.BuildOccupancy();
    EXPECT_EQ(incremental.counts(), rebuilt.counts()) << where;
    EXPECT_EQ(incremental.total(), rebuilt.total()) << where;
  };

  constexpr std::uint32_t kUsers = 24;
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    ASSERT_TRUE(pool.Track("car" + std::to_string(u), FleetProfile(),
                           Algorithm::kRge, KeysFor(u), FleetOptions())
                    .ok());
  }
  // Tracked-but-never-updated sessions must not count anywhere.
  expect_equiv("after track");
  EXPECT_EQ(pool.BuildOccupancy().total(), 0u);

  // Several ticks of movement, many users colliding on few segments.
  for (int t = 0; t < 6; ++t) {
    std::vector<NamedUpdate> batch;
    for (std::uint32_t u = 0; u < kUsers; ++u) {
      batch.push_back({"car" + std::to_string(u), static_cast<double>(t),
                       SegmentId{static_cast<std::uint32_t>(
                           (u * 7 + static_cast<std::uint32_t>(t) * 13) %
                           net.segment_count())}});
    }
    for (const auto& result : send(batch)) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    expect_equiv("after tick");
  }
  EXPECT_EQ(pool.BuildOccupancy().total(), kUsers);

  ASSERT_TRUE(pool.Evict("car0"));
  ASSERT_TRUE(pool.Evict("car1"));
  expect_equiv("after evict");
  EXPECT_EQ(pool.BuildOccupancy().total(), kUsers - 2);

  ASSERT_EQ(*pool.SpillAllToFile(), kUsers - 2);
  expect_equiv("after spill");
  EXPECT_EQ(pool.BuildOccupancy().total(), 0u);

  // A spilled user evicted from the file never counted: nothing moves.
  ASSERT_TRUE(pool.Evict("car8"));
  expect_equiv("after evicting a spilled user");

  // Restore on miss re-registers the session at its new position.
  ASSERT_TRUE(send({{"car2", 7.0, SegmentId{2}}}).front().ok());
  expect_equiv("after restore on miss");
  EXPECT_EQ(pool.BuildOccupancy().total(), 1u);

  // Warm boot re-registers every spilled last_segment in the deltas.
  ASSERT_EQ(*pool.RestoreAllFromFile(), kUsers - 4);
  expect_equiv("after warm boot");
  EXPECT_EQ(pool.BuildOccupancy().total(), kUsers - 3);

  // Advance a handful of users far in time, then reap the idle rest.
  for (std::uint32_t u = 3; u < 8; ++u) {
    ASSERT_TRUE(
        send({{"car" + std::to_string(u), 1000.0, SegmentId{u}}}).front().ok());
  }
  expect_equiv("after late updates");
  const std::size_t reaped = pool.EvictIdle(1000.0, 100.0);
  EXPECT_GT(reaped, 0u);
  expect_equiv("after EvictIdle");
  EXPECT_EQ(pool.BuildOccupancy().total(), 5u);

  EXPECT_EQ(*pool.SpillAllToFile(), 5u);
  expect_equiv("after the last spill");
  EXPECT_EQ(pool.BuildOccupancy().total(), 0u);
  std::remove(path.c_str());
}

// With a spill file attached and a budget that cannot hold the fleet, the
// clock sweep spills cold sessions mid-run and updates for spilled users
// restore transparently inside UpdateBatch — and every served artifact is
// still byte-identical to the never-evicted oracle pool.
TEST(SessionPoolTest, ColdTierRestoreOnMissMatchesOracle) {
  const auto traces = MakeFleetTraces(/*num_cars=*/10, /*duration_s=*/60.0);
  const auto ctx = core::MapContext::Create(traces.net);
  const auto occupancy = OnePerSegment(traces.net);
  const auto oracle = RunPool(ctx, occupancy, traces, /*workers=*/2);

  const std::string path = "session_pool_cold_test.rcsf";
  RemoveSpillFile(path);
  core::Anonymizer engine(ctx, occupancy);
  AnonymizationServer server(std::move(engine), {});
  server::SessionPoolOptions options;
  options.key_provider_factory = CarKeys;
  options.sweep_batch = 64;
  ContinuousSessionPool pool(server, options);
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  for (std::uint32_t car = 0; car < traces.num_cars; ++car) {
    ASSERT_TRUE(pool.Track("car" + std::to_string(car), FleetProfile(),
                           Algorithm::kRge, KeysFor(car), FleetOptions())
                    .ok());
  }
  std::map<std::string, std::vector<std::string>> sequences;
  bool budget_set = false;
  for (const auto& tick : traces.ticks) {
    std::vector<NamedUpdate> batch;
    for (const auto& rec : tick) {
      batch.push_back({"car" + std::to_string(rec.car_id), rec.time_s,
                       rec.segment});
    }
    const auto results = UpdateNamed(pool, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << batch[i].user_id << ": " << results[i].status().ToString();
      sequences[batch[i].user_id].push_back(ArtifactSha256(*results[i]));
    }
    if (!budget_set) {
      // Half the warmed-up footprint: from here on every tick runs the
      // sweep and part of the fleet lives in the file between updates.
      pool.set_memory_budget_bytes(pool.memory_bytes() / 2);
      budget_set = true;
    }
  }
  EXPECT_EQ(sequences, oracle);
  const auto stats = pool.stats();
  EXPECT_GT(stats.budget_spilled, 0u);
  EXPECT_GT(stats.restored_on_miss, 0u);
  EXPECT_EQ(stats.restore_failures, 0u);
  EXPECT_EQ(stats.write_stalls, 0u);
  EXPECT_GT(stats.sweeps, 0u);
  RemoveSpillFile(path);
}

TEST(SessionPoolTest, StateOfTracksSpillAndTransparentRestore) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  server::SessionPoolOptions options;
  options.key_provider_factory = CarKeys;
  ContinuousSessionPool pool(server, options);
  const std::string path = "session_pool_stateof_test.rcsf";
  std::remove(path.c_str());
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());

  std::vector<util::UserId> ids;
  for (int u = 0; u < 4; ++u) {
    const std::string user = "car" + std::to_string(u);
    const auto id = pool.Track(user, FleetProfile(), Algorithm::kRge,
                               KeysFor(u), FleetOptions());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    ASSERT_TRUE(Update(pool, user, 1.0, SegmentId{5}).ok());
    EXPECT_EQ(pool.StateOf(*id), ContinuousSessionPool::UserState::kResident);
  }
  EXPECT_EQ(pool.StateOf(util::UserId{9999}),
            ContinuousSessionPool::UserState::kUntracked);

  const auto written = pool.SpillAllToFile();
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, 4u);
  EXPECT_EQ(pool.session_count(), 0u);
  for (const auto id : ids) {
    EXPECT_EQ(pool.StateOf(id), ContinuousSessionPool::UserState::kSpilled);
  }

  // A batch containing a spilled user restores it mid-batch; the update
  // succeeds as if the session never left.
  const auto results = pool.UpdateBatch({{ids[2], 2.0, SegmentId{6}}});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(pool.StateOf(ids[2]), ContinuousSessionPool::UserState::kResident);
  EXPECT_EQ(pool.stats().restored_on_miss, 1u);

  // Warm boot brings back the remaining three in one call.
  const auto restored = pool.RestoreAllFromFile();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, 3u);
  EXPECT_EQ(pool.session_count(), 4u);
  EXPECT_EQ(pool.stats().restore_failures, 0u);
  std::remove(path.c_str());
}

// Warm boot across pool lifetimes: sessions the budget sweep wrote into the
// spill file come back in full through a fresh pool's
// RestoreAllFromFile once the first pool is gone.
TEST(SessionPoolTest, SweptSpillFileWarmBootsIntoFreshPool) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  const std::string path = "session_pool_warmboot_test.rcsf";
  RemoveSpillFile(path);
  std::size_t spilled_count = 0;
  {
    core::Anonymizer engine(ctx, OnePerSegment(net));
    AnonymizationServer server(std::move(engine), {});
    server::SessionPoolOptions options;
    options.key_provider_factory = CarKeys;
    ContinuousSessionPool pool(server, options);
    ASSERT_TRUE(pool.AttachSpillFile(path).ok());
    std::vector<util::UserId> ids;
    for (int u = 0; u < 8; ++u) {
      const std::string user = "car" + std::to_string(u);
      const auto id = pool.Track(user, FleetProfile(), Algorithm::kRge,
                                 KeysFor(u), FleetOptions());
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
      ASSERT_TRUE(
          Update(pool, user, 1.0, SegmentId{static_cast<std::uint32_t>(u)})
              .ok());
    }
    pool.set_memory_budget_bytes(pool.memory_bytes() / 4);
    ASSERT_TRUE(Update(pool, "car0", 2.0, SegmentId{11}).ok());
    for (const auto id : ids) {
      if (pool.StateOf(id) == ContinuousSessionPool::UserState::kSpilled) {
        ++spilled_count;
      }
    }
    ASSERT_GT(spilled_count, 0u);
    // The sweep appends before it unlinks: every spilled user is on disk.
    EXPECT_EQ(pool.spill_files()->stats().live_records, spilled_count);
    EXPECT_EQ(pool.stats().budget_spilled, spilled_count);
  }
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  server::SessionPoolOptions options;
  options.key_provider_factory = CarKeys;
  ContinuousSessionPool pool(server, options);
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  const auto restored = pool.RestoreAllFromFile();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, spilled_count);
  EXPECT_EQ(pool.session_count(), spilled_count);
  EXPECT_EQ(pool.stats().restore_failures, 0u);
  RemoveSpillFile(path);
}

// TSAN smoke for the spill path: updating threads under a budget so tight
// that every tick sweeps their users out and the next tick restores them
// on miss, racing each other's sweeps and a thread that compacts the cold
// tier and reads stats. A restored session is inserted, gated and
// classified in one shard-lock critical section, so no sweep can take it
// between restore and use: every update must succeed.
TEST(SessionPoolTest, SweepRacesRestoresAndCompaction) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  server::ServerOptions server_options;
  server_options.num_workers = 4;
  AnonymizationServer server(std::move(engine), server_options);
  server::SessionPoolOptions options;
  options.key_provider_factory = CarKeys;
  options.sweep_batch = 8;
  // One session shard: every sweep step of every thread visits the shard
  // each restore lands in, which keeps the race window as wide as it gets.
  options.num_shards = 1;
  ContinuousSessionPool pool(server, options);
  const std::string path = "session_pool_sweeprace_test.rcsf";
  RemoveSpillFile(path);
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());

  constexpr int kThreads = 3;
  constexpr int kUsersPerThread = 8;
  constexpr int kUpdates = 60;
  for (int t = 0; t < kThreads; ++t) {
    for (int u = 0; u < kUsersPerThread; ++u) {
      const int car = t * kUsersPerThread + u;
      ASSERT_TRUE(pool.Track("car" + std::to_string(car), FleetProfile(),
                             Algorithm::kRge, KeysFor(car), FleetOptions())
                      .ok());
      ASSERT_TRUE(Update(pool, "car" + std::to_string(car), 0.0,
                         SegmentId{static_cast<std::uint32_t>(car)})
                      .ok());
    }
  }
  // No resident set fits: every sweep runs both clock laps and spills
  // every session the tick left behind.
  pool.set_memory_budget_bytes(1);

  std::atomic<int> updaters_running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &updaters_running, t, &net] {
      for (int step = 1; step <= kUpdates; ++step) {
        std::vector<NamedUpdate> batch;
        for (int u = 0; u < kUsersPerThread; ++u) {
          const int car = t * kUsersPerThread + u;
          batch.push_back(
              {"car" + std::to_string(car), static_cast<double>(step),
               SegmentId{static_cast<std::uint32_t>(
                   (car * 7 + step * 5) % net.segment_count())}});
        }
        for (const auto& result : UpdateNamed(pool, batch)) {
          EXPECT_TRUE(result.ok()) << result.status().ToString();
        }
      }
      updaters_running.fetch_sub(1);
    });
  }
  threads.emplace_back([&pool, &updaters_running] {
    do {
      EXPECT_TRUE(pool.CompactColdTier().ok());
      (void)pool.stats();
      std::this_thread::yield();
    } while (updaters_running.load() > 0);
  });
  for (auto& thread : threads) thread.join();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.unknown_user, 0u);
  EXPECT_EQ(stats.restore_failures, 0u);
  EXPECT_EQ(stats.recloak_failures, 0u);
  EXPECT_EQ(stats.write_stalls, 0u);
  EXPECT_GT(stats.restored_on_miss, 0u);
  EXPECT_GT(stats.budget_spilled, 0u);
  RemoveSpillFile(path);
}

// A concurrent sweep must never take a session between its round's
// classify and commit: the commit would find nothing, drop the fresh epoch,
// and the user's next restore would resume from before the re-cloak. Three
// drivers on disjoint users, a budget that holds nothing and one session
// shard, so every driver's sweep walks every other driver's sessions while
// their re-cloaks are in the engine; each user's artifact sequence must
// still equal its single-user oracle's.
TEST(SessionPoolTest, ConcurrentSweepsKeepEveryUserOnTheOracle) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  const auto occupancy = OnePerSegment(net);
  constexpr int kThreads = 3;
  constexpr int kUsersPerThread = 8;
  constexpr int kUpdates = 40;
  const auto position = [&net](int car, int step) {
    return SegmentId{static_cast<std::uint32_t>(
        static_cast<std::size_t>(car * 7 + step * 5) % net.segment_count())};
  };
  const auto user_of = [](int car) { return "car" + std::to_string(car); };

  std::map<std::string, std::vector<std::string>> oracle;
  {
    core::Anonymizer anonymizer(ctx, occupancy);
    core::Deanonymizer deanonymizer(ctx);
    for (int car = 0; car < kThreads * kUsersPerThread; ++car) {
      core::ContinuousCloak continuous(
          anonymizer, deanonymizer, FleetProfile(), Algorithm::kRge,
          user_of(car), KeysFor(static_cast<std::uint64_t>(car)),
          FleetOptions());
      for (int step = 0; step < kUpdates; ++step) {
        const auto artifact = continuous.Update(step, position(car, step));
        ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
        oracle[user_of(car)].push_back(ArtifactSha256(*artifact));
      }
    }
  }

  core::Anonymizer engine(ctx, occupancy);
  server::ServerOptions server_options;
  server_options.num_workers = 4;
  AnonymizationServer server(std::move(engine), server_options);
  server::SessionPoolOptions options;
  options.key_provider_factory = CarKeys;
  options.num_shards = 1;
  options.memory_budget_bytes = 1;
  ContinuousSessionPool pool(server, options);
  const std::string path = "session_pool_pending_test.rcsf";
  RemoveSpillFile(path);
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  for (int car = 0; car < kThreads * kUsersPerThread; ++car) {
    ASSERT_TRUE(pool.Track(user_of(car), FleetProfile(), Algorithm::kRge,
                           KeysFor(static_cast<std::uint64_t>(car)),
                           FleetOptions())
                    .ok());
  }

  std::vector<std::map<std::string, std::vector<std::string>>> served(
      kThreads);
  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      for (int step = 0; step < kUpdates; ++step) {
        std::vector<NamedUpdate> batch;
        for (int u = 0; u < kUsersPerThread; ++u) {
          const int car = t * kUsersPerThread + u;
          batch.push_back({user_of(car), static_cast<double>(step),
                           position(car, step)});
        }
        const auto results = UpdateNamed(pool, batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          EXPECT_TRUE(results[i].ok()) << results[i].status().ToString();
          if (results[i].ok()) {
            served[static_cast<std::size_t>(t)][batch[i].user_id].push_back(
                ArtifactSha256(*results[i]));
          }
        }
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  std::map<std::string, std::vector<std::string>> pooled;
  for (auto& part : served) pooled.merge(part);
  EXPECT_EQ(pooled, oracle);
  const auto stats = pool.stats();
  EXPECT_GT(stats.budget_spilled, 0u);
  EXPECT_GT(stats.restored_on_miss, 0u);
  EXPECT_EQ(stats.recloak_failures, 0u);
  EXPECT_EQ(stats.restore_failures, 0u);
  RemoveSpillFile(path);
}

// ---- name lifecycle: a user's name dies with the user ----

// A pool with no spill file never compacts, so only eviction can free a
// churned user's name: 40 rounds of 200 transient users tracked, updated
// and reaped by EvictIdle must leave the interner at the size about two
// rounds need, not the 8,000 names that passed through.
TEST(SessionPoolTest, NoSpillChurnKeepsInternerBounded) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);
  constexpr int kRounds = 40;
  constexpr int kUsers = 200;
  std::size_t peak_interner_bytes = 0;
  for (int round = 0; round < kRounds; ++round) {
    const double now = 100.0 * round;
    std::vector<ContinuousSessionPool::IdPositionUpdate> batch;
    for (int u = 0; u < kUsers; ++u) {
      const auto id = pool.Track(
          "transient-" + std::to_string(round) + "-" + std::to_string(u),
          FleetProfile(), Algorithm::kRge, KeysFor(u), FleetOptions(), now);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      batch.push_back({*id, now + 1.0,
                       SegmentId{static_cast<std::uint32_t>(
                           static_cast<std::size_t>(u) % net.segment_count())}});
    }
    for (const auto& result : pool.UpdateBatch(batch)) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    peak_interner_bytes =
        std::max(peak_interner_bytes, pool.stats().interner_bytes);
    ASSERT_EQ(pool.EvictIdle(now + 50.0, 10.0),
              static_cast<std::size_t>(kUsers));
  }
  pool.UpdateBatch({});
  const auto stats = pool.stats();
  EXPECT_EQ(stats.active_sessions, 0u);
  EXPECT_EQ(stats.evicted_idle, static_cast<std::uint64_t>(kRounds * kUsers));
  // Keeping every name costs ~400 KB (8,000 entries, their slots and
  // bytes); two rounds' worth of names fits in a fraction of 64 KiB.
  EXPECT_LT(peak_interner_bytes, 64u * 1024u);
  EXPECT_LT(stats.interner_bytes, 64u * 1024u);
  EXPECT_EQ(pool.UserIdOf("transient-0-0").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(pool.UserIdOf("transient-39-199").status().code(),
            ErrorCode::kNotFound);
}

// Evict of a resident user and of a spilled user: the batch after the
// evictions, an empty one included, releases both names. A stale handle is
// then an unknown user, answered NotFound and counted, never a restore.
TEST(SessionPoolTest, EvictedNamesAreReleasedByTheNextBatch) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  server::SessionPoolOptions options;
  options.key_provider_factory = CarKeys;
  ContinuousSessionPool pool(server, options);
  const std::string path = "session_pool_release_test.rcsf";
  RemoveSpillFile(path);
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  std::vector<util::UserId> ids;
  for (int car = 0; car < 2; ++car) {
    const std::string user = "car" + std::to_string(car);
    const auto id = pool.Track(user, FleetProfile(), Algorithm::kRge,
                               KeysFor(car), FleetOptions());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    ASSERT_TRUE(Update(pool, user, 1.0, SegmentId{5}).ok());
  }
  ASSERT_EQ(*pool.SpillAllToFile(), 2u);
  ASSERT_TRUE(Update(pool, "car0", 2.0, SegmentId{6}).ok());
  ASSERT_EQ(pool.StateOf(ids[0]), ContinuousSessionPool::UserState::kResident);
  ASSERT_EQ(pool.StateOf(ids[1]), ContinuousSessionPool::UserState::kSpilled);

  EXPECT_TRUE(pool.Evict("car0"));
  EXPECT_TRUE(pool.Evict("car1"));
  EXPECT_TRUE(pool.UpdateBatch({}).empty());
  EXPECT_EQ(pool.UserIdOf("car0").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(pool.UserIdOf("car1").status().code(), ErrorCode::kNotFound);

  const std::uint64_t unknown_before = pool.stats().unknown_user;
  const auto results = pool.UpdateBatch(
      {{ids[0], 3.0, SegmentId{7}}, {ids[1], 3.0, SegmentId{7}}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(results[1].status().code(), ErrorCode::kNotFound);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.unknown_user, unknown_before + 2);
  EXPECT_EQ(stats.restore_failures, 0u);
  EXPECT_EQ(stats.evicted, 2u);
  EXPECT_EQ(stats.spill_live_records, 0u);
  EXPECT_EQ(pool.session_count(), 0u);
  RemoveSpillFile(path);
}

// A user evicted and tracked again before the next batch revives its name:
// the release step skips it and the user keeps its handle and works.
TEST(SessionPoolTest, RetrackBeforeTheNextBatchRevivesTheName) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);
  const auto first = pool.Track("phoenix", FleetProfile(), Algorithm::kRge,
                                KeysFor(8), FleetOptions());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(Update(pool, "phoenix", 1.0, SegmentId{5}).ok());

  ASSERT_TRUE(pool.Evict("phoenix"));
  const auto revived = pool.Track("phoenix", FleetProfile(), Algorithm::kRge,
                                  KeysFor(8), FleetOptions(), 2.0);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(*revived, *first);  // the name was not released yet

  // This batch runs the release step, which must leave "phoenix" alone.
  const auto served = pool.UpdateBatch({{*revived, 3.0, SegmentId{6}}});
  ASSERT_TRUE(served[0].ok()) << served[0].status().ToString();
  ASSERT_TRUE(pool.UserIdOf("phoenix").ok());
  EXPECT_EQ(*pool.UserIdOf("phoenix"), *revived);
  ASSERT_TRUE(Update(pool, "phoenix", 4.0, SegmentId{40}).ok());
  EXPECT_EQ(pool.StateOf(*revived),
            ContinuousSessionPool::UserState::kResident);
  EXPECT_EQ(pool.stats().unknown_user, 0u);
  // A newcomer does not take the revived user's handle.
  const auto newcomer = pool.Track("newcomer", FleetProfile(),
                                   Algorithm::kRge, KeysFor(9),
                                   FleetOptions());
  ASSERT_TRUE(newcomer.ok());
  EXPECT_NE(*newcomer, *revived);
}

// TSAN race for the name lifecycle: two threads evict and re-track a set
// of users while two others update them (their sweeps spilling everyone
// under a one-byte budget and restoring on miss) and one thread compacts
// the cold tier. Releases land between the batches. At the end every name
// resolves exactly when its user is resident or spilled.
TEST(SessionPoolTest, EvictRetrackRacesUpdatesAndCompaction) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  server::ServerOptions server_options;
  server_options.num_workers = 2;
  AnonymizationServer server(std::move(engine), server_options);
  server::SessionPoolOptions options;
  options.key_provider_factory = CarKeys;
  options.sweep_batch = 8;
  options.memory_budget_bytes = 1;
  ContinuousSessionPool pool(server, options);
  const std::string path = "session_pool_release_race_test.rcsf";
  RemoveSpillFile(path);
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());

  constexpr int kUsers = 16;
  constexpr int kUpdaters = 2;
  constexpr int kChurners = 2;
  constexpr int kSteps = 40;
  const auto user_of = [](int car) { return "car" + std::to_string(car); };
  for (int car = 0; car < kUsers; ++car) {
    ASSERT_TRUE(pool.Track(user_of(car), FleetProfile(), Algorithm::kRge,
                           KeysFor(car), FleetOptions())
                    .ok());
  }

  std::atomic<int> updaters_running{kUpdaters};
  std::vector<std::thread> threads;
  for (int t = 0; t < kUpdaters; ++t) {
    // Each updater owns half the users, so every user's updates stay in
    // time order.
    threads.emplace_back([&, t] {
      for (int step = 1; step <= kSteps; ++step) {
        std::vector<NamedUpdate> batch;
        for (int car = t; car < kUsers; car += kUpdaters) {
          batch.push_back({user_of(car), static_cast<double>(step),
                           SegmentId{static_cast<std::uint32_t>(
                               static_cast<std::size_t>(car * 7 + step * 5) %
                               net.segment_count())}});
        }
        for (const auto& result : UpdateNamed(pool, batch)) {
          // An evicted user is NotFound until it is tracked again.
          EXPECT_TRUE(result.ok() ||
                      result.status().code() == ErrorCode::kNotFound)
              << result.status().ToString();
        }
      }
      updaters_running.fetch_sub(1);
    });
  }
  for (int t = 0; t < kChurners; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; updaters_running.load() > 0; ++i) {
        const int car = (i * kChurners + t) % kUsers;
        (void)pool.Evict(user_of(car));
        std::this_thread::yield();
        // Refused when the other churner re-tracked it first.
        (void)pool.Track(user_of(car), FleetProfile(), Algorithm::kRge,
                         KeysFor(car), FleetOptions(), 0.0);
        if (i % 4 == 0) (void)pool.UpdateBatch({});
      }
    });
  }
  threads.emplace_back([&] {
    do {
      EXPECT_TRUE(pool.CompactColdTier().ok());
      std::this_thread::yield();
    } while (updaters_running.load() > 0);
  });
  for (auto& thread : threads) thread.join();

  // Every churn step ends in a Track, so all users are tracked now; four
  // leave for good.
  constexpr int kLeavers = 4;
  for (int car = 0; car < kLeavers; ++car) {
    EXPECT_TRUE(pool.Evict(user_of(car)));
  }
  pool.UpdateBatch({});
  std::size_t resolving = 0;
  for (int car = 0; car < kUsers; ++car) {
    const auto id = pool.UserIdOf(user_of(car));
    EXPECT_EQ(id.ok(), car >= kLeavers) << user_of(car);
    if (!id.ok()) continue;
    ++resolving;
    EXPECT_NE(pool.StateOf(*id), ContinuousSessionPool::UserState::kUntracked)
        << user_of(car);
  }
  // ...and no resident or spilled user has lost its name.
  const auto stats = pool.stats();
  EXPECT_EQ(resolving, static_cast<std::size_t>(kUsers - kLeavers));
  EXPECT_EQ(resolving, stats.active_sessions + stats.spill_live_records);
  EXPECT_GT(stats.evicted, 0u);
  EXPECT_EQ(stats.restore_failures, 0u);
  EXPECT_EQ(stats.recloak_failures, 0u);
  RemoveSpillFile(path);
}

}  // namespace
}  // namespace rcloak
