// Continuous session pool: the server-side multi-user session layer must
// be observationally identical to the single-user ContinuousCloak oracle —
// per-user artifact sequences byte-identical (by SHA-256) for fixed traces
// and for any worker count — plus throttle / epoch-advance / cold-tier
// edge cases and a concurrency smoke the TSAN CI job runs race-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <span>
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

// A name the pool never saw is NotFound on every path; a tracked user is
// never forgotten, however long it idles, and cannot be tracked twice.
TEST(SessionPoolTest, UnknownUsersAndIdleUsers) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  ContinuousSessionPool pool(server);

  // An invalid handle (a name the pool never saw) fails fast, with a
  // counter, without touching any session.
  EXPECT_EQ(pool.UserIdOf("ghost").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(pool.UserEpoch("ghost").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(pool.UserStats("ghost").status().code(), ErrorCode::kNotFound);
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
  const util::UserId u2 = IdOf(pool, "u2");

  // u0 and u1 update late, u2/u3 go idle and stay tracked.
  for (int u = 0; u < 4; ++u) {
    ASSERT_TRUE(
        Update(pool, "u" + std::to_string(u), 10.0, SegmentId{30}).ok());
  }
  ASSERT_TRUE(Update(pool, "u0", 100.0, SegmentId{30}).ok());
  ASSERT_TRUE(Update(pool, "u1", 101.0, SegmentId{30}).ok());
  EXPECT_EQ(pool.session_count(), 4u);
  EXPECT_EQ(*pool.UserEpoch("u2"), 1u);
  EXPECT_EQ(IdOf(pool, "u2"), u2);
  EXPECT_EQ(pool.stats().unknown_user, 1u);
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
  Bytes canonical;  // car0's artifact as EncodeArtifact writes it
  {
    auto pool = make_pool(good_path);
    const auto car0 = pool->Track("car0", FleetProfile(), Algorithm::kRge,
                                  CarKeys("car0"), FleetOptions(), 0.0, kOwner);
    ASSERT_TRUE(car0.ok());
    const auto served = pool->UpdateBatch({{*car0, 1.0, SegmentId{7}, kOwner}});
    ASSERT_TRUE(served[0].ok());
    canonical = core::EncodeArtifact(**served[0]);
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
  // Record layout: u64 owner | varint segment (7: one byte) |
  // u8 algorithm | ... — the algorithm byte is at offset 9.
  constexpr std::size_t kAlgorithmOffset = 9;
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

  // An artifact that decodes but is not in canonical form: its T varint
  // (0 for RGE) is rewritten in two bytes. The restore succeeds, and the
  // session serves the canonical bytes of what it decoded, never the
  // record's bytes verbatim.
  const auto at = std::search(good.begin(), good.end(), canonical.begin(),
                              canonical.end());
  ASSERT_NE(at, good.end());
  Bytes length;
  PutVarint(length, canonical.size());
  const auto length_at = at - static_cast<std::ptrdiff_t>(length.size());
  ASSERT_TRUE(std::equal(length.begin(), length.end(), length_at));
  const auto decoded = core::DecodeArtifact(canonical);
  ASSERT_TRUE(decoded.ok());
  ASSERT_LT(decoded->context.size(), 0x80u);  // a one-byte length varint
  // magic (4) | version | algorithm | context length | context |
  // fingerprint (8) | T
  const std::size_t t_offset = 4 + 1 + 1 + 1 + decoded->context.size() + 8;
  ASSERT_EQ(canonical[t_offset], 0x00);
  Bytes loose = canonical;
  loose[t_offset] = 0x80;
  loose.insert(loose.begin() + static_cast<std::ptrdiff_t>(t_offset) + 1,
               0x00);
  const auto loose_decoded = core::DecodeArtifact(loose);
  ASSERT_TRUE(loose_decoded.ok()) << loose_decoded.status().ToString();
  ASSERT_EQ(core::EncodeArtifact(*loose_decoded), canonical);
  Bytes record(good.begin(), length_at);
  PutVarint(record, loose.size());
  record.insert(record.end(), loose.begin(), loose.end());
  record.insert(record.end(),
                at + static_cast<std::ptrdiff_t>(canonical.size()), good.end());
  std::filesystem::copy_file(good_path, path,
                             std::filesystem::copy_options::overwrite_existing);
  {
    util::StringInterner interner;
    auto file = store::SpillFile::Attach(path, ctx->fingerprint(), interner);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE((*file)->AppendBatch({{interner.Find("car0"), record}}).ok());
  }
  {
    auto pool = make_pool(path);
    const util::UserId car0 = IdOf(*pool, "car0");
    std::vector<Bytes> wires;
    pool->UpdateBatch(
        {{car0, 2.0, SegmentId{7}, kOwner}},
        [&](std::size_t,
            std::span<const StatusOr<core::SharedEncodedArtifact>> results) {
          for (const auto& result : results) {
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            wires.push_back((*result)->wire);
          }
        });
    ASSERT_EQ(wires.size(), 1u);
    EXPECT_EQ(wires[0], canonical);
    EXPECT_NE(wires[0], loose);
    EXPECT_EQ(pool->stats().restored_on_miss, 1u);
  }
  std::remove(path.c_str());
  std::remove(good_path.c_str());
}

// The streamed UpdateBatch hands its sink every result once, in input
// order, with no pool lock held (the sink reads the pool's stats), and
// each result is the one the collected form returns: the same artifact
// bytes, by SHA-256, or the same error. The mixed batch covers in-region
// updates, re-cloaks, a user updated twice (its second update runs in a
// second round), a never-tracked user, an ownership refusal and a
// restore-on-miss.
TEST(SessionPoolTest, StreamedResultsMatchTheBatch) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  AnonymizationServer server(core::Anonymizer(ctx, OnePerSegment(net)), {});
  constexpr std::uint64_t kOwner = 42;
  constexpr std::uint64_t kStranger = 7;
  using Update = ContinuousSessionPool::IdPositionUpdate;
  // Per result: the SHA-256 of its artifact bytes, or its error code.
  using Outcomes = std::vector<std::string>;
  const auto outcome_of = [](const StatusOr<Bytes>& wire) {
    if (!wire.ok()) {
      return "error " +
             std::to_string(static_cast<int>(wire.status().code()));
    }
    const auto digest = crypto::Sha256::Hash(*wire);
    return ToHex(Bytes(digest.begin(), digest.end()));
  };
  // Sets up one pool and feeds it the same batches through `drive`.
  const auto run = [&](const std::string& path, const auto& drive) {
    RemoveSpillFile(path);
    server::SessionPoolOptions options;
    options.key_provider_factory = CarKeys;
    ContinuousSessionPool pool(server, options);
    EXPECT_TRUE(pool.AttachSpillFile(path).ok());
    const auto track = [&](const std::string& user, std::uint64_t owner) {
      const auto id = pool.Track(user, FleetProfile(), Algorithm::kRge,
                                 CarKeys(user), FleetOptions(), 0.0, owner);
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      return id.ok() ? *id : util::kInvalidUserId;
    };
    const util::UserId spilled = track("car9", 0);
    Outcomes outcomes =
        drive(pool, std::vector<Update>{{spilled, 1.0, SegmentId{40}}});
    EXPECT_EQ(*pool.SpillAllToFile(), 1u);
    std::vector<util::UserId> car;
    for (int u = 0; u < 4; ++u) {
      car.push_back(track("car" + std::to_string(u), 0));
    }
    const util::UserId owned = track("car7", kOwner);
    std::vector<Update> first;
    for (int u = 0; u < 4; ++u) {
      first.push_back(
          {car[u], 1.0, SegmentId{static_cast<std::uint32_t>(5 + u)}});
    }
    first.push_back({owned, 1.0, SegmentId{11}, kOwner});
    for (auto& outcome : drive(pool, first)) outcomes.push_back(outcome);
    const std::vector<Update> mixed = {
        {car[1], 2.0, SegmentId{90}},               // re-cloak
        {car[0], 2.0, SegmentId{5}},                // in region
        {util::kInvalidUserId, 2.0, SegmentId{3}},  // never tracked
        {car[2], 2.0, SegmentId{80}},               // re-cloak
        {owned, 2.0, SegmentId{11}, kStranger},     // refused
        {spilled, 2.0, SegmentId{40}},              // restore-on-miss
        {car[2], 3.0, SegmentId{20}},               // second round
        {car[3], 2.0, SegmentId{8}},                // in region
    };
    for (auto& outcome : drive(pool, mixed)) outcomes.push_back(outcome);
    const auto stats = pool.stats();
    EXPECT_EQ(stats.restored_on_miss, 1u);
    EXPECT_EQ(stats.ownership_rejected, 1u);
    EXPECT_EQ(stats.unknown_user, 1u);
    EXPECT_GE(stats.served_in_region, 2u);
    RemoveSpillFile(path);
    return outcomes;
  };

  const Outcomes collected = run(
      "session_pool_stream_batch.rcsf",
      [&](ContinuousSessionPool& pool, const std::vector<Update>& batch) {
        Outcomes outcomes;
        for (const auto& result : pool.UpdateBatch(batch)) {
          outcomes.push_back(outcome_of(
              result.ok() ? StatusOr<Bytes>(core::EncodeArtifact(**result))
                          : StatusOr<Bytes>(result.status())));
        }
        return outcomes;
      });
  const Outcomes streamed = run(
      "session_pool_stream_sink.rcsf",
      [&](ContinuousSessionPool& pool, const std::vector<Update>& batch) {
        Outcomes outcomes;
        pool.UpdateBatch(
            batch,
            [&](std::size_t first,
                std::span<const StatusOr<core::SharedEncodedArtifact>>
                    results) {
              EXPECT_EQ(first, outcomes.size());  // in order, each once
              (void)pool.stats();  // deadlocks if a pool lock is held
              for (const auto& result : results) {
                if (result.ok()) {
                  EXPECT_EQ((*result)->wire,
                            core::EncodeArtifact((*result)->artifact));
                }
                outcomes.push_back(outcome_of(
                    result.ok() ? StatusOr<Bytes>((*result)->wire)
                                : StatusOr<Bytes>(result.status())));
              }
            });
        EXPECT_EQ(outcomes.size(), batch.size());
        return outcomes;
      });
  ASSERT_EQ(collected.size(), 1u + 5u + 8u);
  EXPECT_EQ(streamed, collected);
  // The refusal and the never-tracked user answer as errors; the rest
  // carry artifacts.
  EXPECT_EQ(collected[6 + 2].rfind("error", 0), 0u);
  EXPECT_EQ(collected[6 + 4].rfind("error", 0), 0u);
  EXPECT_NE(collected[6 + 5].rfind("error", 0), 0u);
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
                           FleetOptions(), principal(i));
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
// spill to file, restore on miss and warm boot. The rebuild is the test's own ledger: the
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

  ASSERT_EQ(*pool.SpillAllToFile(), kUsers);
  expect_equiv("after spill");
  EXPECT_EQ(pool.BuildOccupancy().total(), 0u);

  // Restore on miss re-registers the session at its new position.
  ASSERT_TRUE(send({{"car2", 7.0, SegmentId{2}}}).front().ok());
  expect_equiv("after restore on miss");
  EXPECT_EQ(pool.BuildOccupancy().total(), 1u);

  // Warm boot re-registers every spilled last_segment in the deltas.
  ASSERT_EQ(*pool.RestoreAllFromFile(), kUsers - 1);
  expect_equiv("after warm boot");
  EXPECT_EQ(pool.BuildOccupancy().total(), kUsers);

  // A handful of users move on.
  for (std::uint32_t u = 3; u < 8; ++u) {
    ASSERT_TRUE(
        send({{"car" + std::to_string(u), 1000.0, SegmentId{u}}}).front().ok());
  }
  expect_equiv("after late updates");
  EXPECT_EQ(pool.BuildOccupancy().total(), kUsers);

  EXPECT_EQ(*pool.SpillAllToFile(), kUsers);
  expect_equiv("after the last spill");
  EXPECT_EQ(pool.BuildOccupancy().total(), 0u);
  std::remove(path.c_str());
}

// With a spill file attached and a budget that cannot hold the fleet, the
// clock sweep spills cold sessions mid-run and updates for spilled users
// restore transparently inside UpdateBatch — and every served artifact is
// still byte-identical to the never-spilled oracle pool.
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

// ---- a tracked user is never forgotten ----

// Track of a user the pool still holds, resident or spilled, is refused
// with kFailedPrecondition and leaves the session alone: the handle and the
// epoch stay, and the next update resumes the same chain.
TEST(SessionPoolTest, TrackOfATrackedUserFailsAndKeepsItsEpoch) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  // No key factory: the spill parks the provider in the pool.
  ContinuousSessionPool pool(server);
  const std::string path = "session_pool_retrack_refused_test.rcsf";
  RemoveSpillFile(path);
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  const auto first = pool.Track("phoenix", FleetProfile(), Algorithm::kRge,
                                KeysFor(8), FleetOptions());
  ASSERT_TRUE(first.ok());
  const SegmentId far{static_cast<std::uint32_t>(net.segment_count() - 1)};
  ASSERT_TRUE(Update(pool, "phoenix", 1.0, SegmentId{5}).ok());
  ASSERT_TRUE(Update(pool, "phoenix", 2.0, far).ok());
  const std::uint64_t epoch = *pool.UserEpoch("phoenix");
  ASSERT_EQ(epoch, 2u);

  const auto track_again = [&] {
    return pool.Track("phoenix", FleetProfile(), Algorithm::kRge, KeysFor(8),
                      FleetOptions(), 3.0);
  };
  EXPECT_EQ(track_again().status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(*pool.UserEpoch("phoenix"), epoch);
  EXPECT_EQ(*pool.UserIdOf("phoenix"), *first);

  ASSERT_EQ(*pool.SpillAllToFile(), 1u);
  EXPECT_EQ(track_again().status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(pool.StateOf(*first), ContinuousSessionPool::UserState::kSpilled);
  EXPECT_EQ(*pool.UserIdOf("phoenix"), *first);

  // The update restores the spilled chain where it stopped; it lands in
  // the region in force, so the epoch does not move.
  ASSERT_TRUE(Update(pool, "phoenix", 4.0, far).ok());
  EXPECT_EQ(*pool.UserEpoch("phoenix"), epoch);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.restored_on_miss, 1u);
  EXPECT_EQ(stats.restore_failures, 0u);
  EXPECT_EQ(stats.unknown_user, 0u);
  // A newcomer gets a handle of its own.
  const auto newcomer = pool.Track("newcomer", FleetProfile(),
                                   Algorithm::kRge, KeysFor(9),
                                   FleetOptions());
  ASSERT_TRUE(newcomer.ok());
  EXPECT_NE(*newcomer, *first);
  RemoveSpillFile(path);
}

// Compaction drops a record that rotted on disk, and its user may then be
// tracked afresh under other keys. The provider parked for the rotten
// record must not outlive it: the next spill parks the new session's
// provider, so the restore resumes the new key schedule, byte-identical to
// a single-user oracle on the new keys.
TEST(SessionPoolTest, RetrackAfterARottenRecordParksTheNewProvider) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  const auto occupancy = OnePerSegment(net);
  core::Anonymizer engine(ctx, occupancy);
  AnonymizationServer server(std::move(engine), {});
  // No key factory: every spill parks the session's provider in the pool.
  ContinuousSessionPool pool(server);
  const std::string path = "session_pool_stale_provider_test.rcsf";
  RemoveSpillFile(path);
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  const auto phoenix = pool.Track("phoenix", FleetProfile(), Algorithm::kRge,
                                  KeysFor(9), FleetOptions());
  ASSERT_TRUE(phoenix.ok());
  // Spill, restore and spill again: the first record is dead, so the
  // compaction below rewrites the file.
  ASSERT_TRUE(Update(pool, "phoenix", 1.0, SegmentId{5}).ok());
  ASSERT_EQ(*pool.SpillAllToFile(), 1u);
  ASSERT_TRUE(Update(pool, "phoenix", 2.0, SegmentId{5}).ok());
  ASSERT_EQ(*pool.SpillAllToFile(), 1u);
  {
    // Rot the live record: it is the last one in the file.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(-1, std::ios::end);
    const char last = static_cast<char>(file.get());
    file.seekp(-1, std::ios::end);
    file.put(static_cast<char>(last ^ 0x5a));
  }
  ASSERT_TRUE(pool.CompactColdTier().ok());
  ASSERT_EQ(pool.StateOf(*phoenix),
            ContinuousSessionPool::UserState::kUntracked);

  const auto retracked = pool.Track("phoenix", FleetProfile(),
                                    Algorithm::kRge, KeysFor(77),
                                    FleetOptions());
  ASSERT_TRUE(retracked.ok()) << retracked.status().ToString();
  core::Anonymizer oracle_engine(ctx, occupancy);
  core::Deanonymizer oracle_deanonymizer(ctx);
  core::ContinuousCloak oracle(oracle_engine, oracle_deanonymizer,
                               FleetProfile(), Algorithm::kRge, "phoenix",
                               KeysFor(77), FleetOptions());
  for (int step = 0; step < 6; ++step) {
    if (step == 3) ASSERT_EQ(*pool.SpillAllToFile(), 1u);
    const double now = 10.0 + step;
    const SegmentId segment{static_cast<std::uint32_t>(
        static_cast<std::size_t>(step * 37) % net.segment_count())};
    const auto expected = oracle.Update(now, segment);
    const auto served = Update(pool, "phoenix", now, segment);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(ArtifactSha256(*served), ArtifactSha256(*expected))
        << "step " << step;
  }
  // Three updates precede the spill, so one re-cloak at least follows it.
  ASSERT_GE(oracle.stats().recloaks, 4u);
  EXPECT_EQ(pool.stats().restored_on_miss, 2u);
  RemoveSpillFile(path);
}

// No request context is ever served with two different artifacts: every
// served artifact is recorded by its context (`<user>/epoch-<n>`) across
// in-region serves, re-cloaks, budget spills with restore on miss,
// FindOrTrack of resident, spilled and new users, and refused Tracks of
// live users. Left out, because they still reuse contexts: a warm boot
// after a restore, a record that rotted on disk, and a crash of `serve`
// (ROADMAP, "Never reuse a request context across a restart").
TEST(SessionPoolTest, NoRequestContextRepeats) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  server::ServerOptions server_options;
  server_options.num_workers = 2;
  AnonymizationServer server(std::move(engine), server_options);
  server::SessionPoolOptions options;
  options.key_provider_factory = CarKeys;
  options.sweep_batch = 4;
  ContinuousSessionPool pool(server, options);
  const std::string path = "session_pool_context_test.rcsf";
  RemoveSpillFile(path);
  ASSERT_TRUE(pool.AttachSpillFile(path).ok());
  const auto user_of = [](int car) { return "car" + std::to_string(car); };

  std::vector<util::UserId> fleet;
  for (int car = 0; car < 8; ++car) {
    const auto id = pool.Track(user_of(car), FleetProfile(), Algorithm::kRge,
                               KeysFor(car), FleetOptions());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    fleet.push_back(*id);
  }
  std::map<std::string, std::string> by_context;
  std::size_t served = 0;
  std::map<ContinuousSessionPool::UserState, int> refused_tracks;
  for (int tick = 0; tick < 30; ++tick) {
    if (tick % 5 == 2) {
      // A new user first sighted mid-run.
      const auto id =
          pool.FindOrTrack(user_of(static_cast<int>(fleet.size())),
                           FleetProfile(), Algorithm::kRge, CarKeys,
                           FleetOptions(), 0);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      fleet.push_back(*id);
    }
    // Every user already known, resident or spilled: FindOrTrack hands
    // back its handle and Track is refused.
    for (std::size_t car = tick % 3; car < fleet.size(); car += 3) {
      const std::string user = user_of(static_cast<int>(car));
      const auto state = pool.StateOf(fleet[car]);
      const auto found = pool.FindOrTrack(user, FleetProfile(),
                                          Algorithm::kRge, CarKeys,
                                          FleetOptions(), 0);
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      EXPECT_EQ(*found, fleet[car]);
      EXPECT_EQ(pool.Track(user, FleetProfile(), Algorithm::kRge,
                           CarKeys(user), FleetOptions(), tick)
                    .status()
                    .code(),
                ErrorCode::kFailedPrecondition);
      ++refused_tracks[state];
    }
    // Each user holds a segment for three ticks, then jumps.
    std::vector<ContinuousSessionPool::IdPositionUpdate> batch;
    for (std::size_t car = 0; car < fleet.size(); ++car) {
      batch.push_back({fleet[car], static_cast<double>(tick),
                       SegmentId{static_cast<std::uint32_t>(
                           (car * 13 + static_cast<std::size_t>(tick / 3) *
                                           29) %
                           net.segment_count())}});
    }
    const auto results = pool.UpdateBatch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      const core::CloakedArtifact& artifact = **results[i];
      const std::string sha = ArtifactSha256(artifact);
      const auto it = by_context.emplace(artifact.context, sha).first;
      EXPECT_EQ(it->second, sha) << "context reused: " << artifact.context;
      ++served;
    }
    // From the fifth tick on, half the warmed-up footprint: sweeps spill
    // part of the fleet every tick and the next tick restores it on miss.
    if (tick == 4) pool.set_memory_budget_bytes(pool.memory_bytes() / 2);
  }
  const auto stats = pool.stats();
  EXPECT_GT(stats.served_in_region, 0u);
  EXPECT_GT(stats.recloaks, fleet.size());
  EXPECT_GT(stats.budget_spilled, 0u);
  EXPECT_GT(stats.restored_on_miss, 0u);
  EXPECT_EQ(stats.restore_failures, 0u);
  EXPECT_GT(refused_tracks[ContinuousSessionPool::UserState::kResident], 0);
  EXPECT_GT(refused_tracks[ContinuousSessionPool::UserState::kSpilled], 0);
  EXPECT_EQ(by_context.size(), stats.recloaks);
  EXPECT_GT(served, by_context.size());
  RemoveSpillFile(path);
}

}  // namespace
}  // namespace rcloak
