// Fleet tracking demo: a small fleet of moving users served continuously
// by the session-pool layer over the anonymization server.
//
//   traces  ->  ContinuousSessionPool::UpdateBatch  ->  artifacts
//                 |  in-region: resolved in the session shard
//                 |  region exit: batched re-cloak on the server,
//                 |  each sealing its own validity region
//
// Every user's artifact stream is byte-identical to what a single-user
// core::ContinuousCloak would have produced for the same trace — the pool
// changes the serving shape, never the privacy semantics.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "mobility/simulator.h"
#include "roadnet/generators.h"
#include "server/continuous_session_pool.h"

using namespace rcloak;

int main() {
  // A 14x14 city grid; every segment hosts one background user so
  // k-anonymity is satisfiable everywhere.
  const roadnet::RoadNetwork net = roadnet::MakeGrid({14, 14, 100.0});
  const auto ctx = core::MapContext::Create(net);
  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    occupancy.Add(roadnet::SegmentId{i});
  }

  // 40 cars, 60 s of 1 Hz traces.
  mobility::SpawnOptions spawn;
  spawn.num_cars = 40;
  spawn.seed = 11;
  auto cars = mobility::SpawnCars(net, ctx->index(), spawn);
  mobility::SimulationOptions sim;
  sim.tick_s = 1.0;
  sim.duration_s = 60.0;
  sim.record_every = 1;
  mobility::TraceSimulator simulator(net, std::move(cars), sim);
  simulator.Run();

  // The serving stack: 2-worker server + session pool.
  core::Anonymizer engine(ctx, occupancy);
  server::ServerOptions server_options;
  server_options.num_workers = 2;
  server::AnonymizationServer server(std::move(engine), server_options);
  server::ContinuousSessionPool pool(server);

  core::ContinuousOptions continuous;
  continuous.validity_level = 1;       // re-cloak when leaving the L1 region
  continuous.min_recloak_interval_s = 2.0;
  // Track hands back each user's id handle; updates carry the handle.
  std::vector<util::UserId> ids;
  for (std::uint32_t car = 0; car < spawn.num_cars; ++car) {
    const auto tracked = pool.Track(
        "car" + std::to_string(car),
        core::PrivacyProfile({{6, 3, 1e9}, {20, 6, 1e9}}),
        core::Algorithm::kRge,
        [car](std::uint64_t epoch) {
          return crypto::KeyChain::FromSeed(7000 + car * 100 + epoch, 2);
        },
        continuous);
    if (!tracked.ok()) {
      std::printf("track failed: %s\n", tracked.status().ToString().c_str());
      return 1;
    }
    ids.push_back(*tracked);
  }
  std::printf("tracking %zu users over %d server workers / %d shards\n",
              pool.session_count(), server.num_workers(), pool.num_shards());

  // Replay the fleet tick by tick.
  std::map<double, std::vector<mobility::TraceRecord>> ticks;
  for (const auto& rec : simulator.trace()) ticks[rec.time_s].push_back(rec);
  for (const auto& [time, records] : ticks) {
    std::vector<server::ContinuousSessionPool::IdPositionUpdate> batch;
    for (const auto& rec : records) {
      batch.push_back({ids[rec.car_id], rec.time_s, rec.segment});
    }
    for (const auto& result : pool.UpdateBatch(batch)) {
      if (!result.ok()) {
        std::printf("update failed: %s\n",
                    result.status().ToString().c_str());
        return 1;
      }
    }
  }

  const auto stats = pool.stats();
  std::printf("updates            %llu\n",
              static_cast<unsigned long long>(stats.updates));
  std::printf("  in-region (free) %llu\n",
              static_cast<unsigned long long>(stats.served_in_region));
  std::printf("  throttled stale  %llu\n",
              static_cast<unsigned long long>(stats.throttled_stale));
  std::printf("  re-cloaks        %llu\n",
              static_cast<unsigned long long>(stats.recloaks));
  std::printf("mean update        %.4f ms (p95 %.4f ms)\n",
              stats.update_latency_ms.Mean(),
              stats.update_latency_ms.Percentile(95));

  // A few per-user sessions, as a monitoring view would show them.
  for (const char* user : {"car0", "car1", "car2"}) {
    const auto user_stats = pool.UserStats(user);
    const auto epoch = pool.UserEpoch(user);
    if (!user_stats.ok() || !epoch.ok()) continue;
    std::printf("%s: epoch %llu, %llu updates, %llu re-cloaks, "
                "mean validity %.1f s\n",
                user, static_cast<unsigned long long>(*epoch),
                static_cast<unsigned long long>(user_stats->updates),
                static_cast<unsigned long long>(user_stats->recloaks),
                user_stats->validity_duration_s.Mean());
  }

  // Drop sessions idle for 30 s (none here: the whole fleet just drove).
  const std::size_t evicted = pool.EvictIdle(/*now_s=*/60.0, /*idle_s=*/30.0);
  std::printf("evicted %zu idle sessions, %zu remain\n", evicted,
              pool.session_count());
  return 0;
}
