// E20 — Continuous fleet tracking: N moving users driven through the
// server-side ContinuousSessionPool over the anonymization server.
// Per tick, the whole fleet's position updates go through one id-keyed
// UpdateBatch: in-region updates resolve in the session shards without
// touching the engine, region exits re-cloak in one server batch, each
// sealing its own validity region in the anonymizer. Reported per
// configuration: sustained updates/s, the re-cloak rate, p50/p95/p99
// per-update latency and the mean wall time of the burst (mass region
// exit) ticks.
//
// Two fleet modes:
//   * default — GTMobiSim-style traces routed by ALT over the MapContext's
//     memoized landmark tables (the paper's mobility model);
//   * --skew  — synthetic zipfian fleet: car homes concentrate on hot
//     "downtown" segments and every 10th tick a 25% cohort teleports,
//     slamming one mass region-exit round into the server's queue (cost-
//     skewed jobs: hot downtown cells cloak slower).
//
// Flags (after the positional [fleet_size] [workers...]):
//   --skew              synthetic zipfian fleet (scales to 100k+ users)
//   --ticks N           simulated ticks (default 120)
//   --dynamic-occupancy occupancy epochs rebuilt per tick from the fleet's
//                       own positions (ContinuousSessionPool::BuildOccupancy)
//                       instead of a static snapshot
//   --freeze            cars never move after the first tick: isolates the
//                       steady-state in-region path (pure session-layer
//                       constants, zero engine work after the first cloak)
//   --verify            after every tick, round-trip every epoch advance
//                       (reduce to L0 with all keys, compare the segment);
//                       any mismatch exits nonzero — CI smoke relies on it
//
// Expectation: re-cloaks << updates (validity regions amortize), and the
// artifact stream is byte-identical for every worker count (pinned by
// tests/session_pool_test.cc).
//
// Usage: bench_e20 [fleet_size] [workers...] [flags]
//   (defaults: fleet 200, worker sweep 1 2 4)
#include <cstdlib>
#include <cstring>
#include <map>

#include "bench/common.h"
#include "bench/json_report.h"
#include "server/continuous_session_pool.h"

using namespace rcloak;
using namespace rcloak::bench;

namespace {

// Fixed position matrix: positions[tick][car]. Replayed identically
// against every configuration.
struct FleetTicks {
  std::vector<std::vector<roadnet::SegmentId>> positions;
  std::vector<bool> is_burst;  // per tick: mass region-exit tick?
  double tick_s = 1.0;
};

// Zipfian home segments over a shuffled segment ranking plus periodic
// teleport bursts: every 10th tick, a rotating 25% cohort jumps to a
// uniform random segment (guaranteed mass region exits); otherwise a car
// drifts near home with a small chance of wandering off.
FleetTicks MakeSkewedTicks(const roadnet::RoadNetwork& net,
                           std::uint32_t fleet, int ticks) {
  FleetTicks out;
  const std::uint32_t segments = net.segment_count();
  Xoshiro256 rng(4242);

  // Zipf(s=1) inverse-CDF over a shuffled segment ranking.
  std::vector<std::uint32_t> rank(segments);
  for (std::uint32_t i = 0; i < segments; ++i) rank[i] = i;
  for (std::uint32_t i = segments - 1; i > 0; --i) {
    std::swap(rank[i], rank[rng.NextBounded(i + 1)]);
  }
  std::vector<double> cumulative(segments);
  double total = 0.0;
  for (std::uint32_t i = 0; i < segments; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cumulative[i] = total;
  }
  const auto zipf_segment = [&]() {
    const double u = rng.NextDouble() * total;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), u);
    return rank[static_cast<std::uint32_t>(it - cumulative.begin())];
  };

  std::vector<std::uint32_t> home(fleet);
  std::vector<std::uint32_t> current(fleet);
  for (std::uint32_t car = 0; car < fleet; ++car) {
    home[car] = zipf_segment();
    current[car] = home[car];
  }
  out.positions.reserve(static_cast<std::size_t>(ticks));
  out.is_burst.reserve(static_cast<std::size_t>(ticks));
  for (int t = 0; t < ticks; ++t) {
    const bool burst = t > 0 && t % 10 == 0;
    const std::uint32_t cohort =
        static_cast<std::uint32_t>((t / 10) % 4);  // rotating 25%
    std::vector<roadnet::SegmentId> tick(fleet);
    for (std::uint32_t car = 0; car < fleet; ++car) {
      if (burst && car % 4 == cohort) {
        current[car] = static_cast<std::uint32_t>(rng.NextBounded(segments));
      } else if (rng.NextBool(0.05)) {
        // Local drift: hop to a nearby-id segment (may leave the region).
        current[car] = (current[car] + 1 +
                        static_cast<std::uint32_t>(rng.NextBounded(3))) %
                       segments;
      }
      tick[car] = roadnet::SegmentId{current[car]};
    }
    out.positions.push_back(std::move(tick));
    out.is_burst.push_back(burst);
  }
  return out;
}

// The paper's mobility model, grouped into the same matrix shape.
FleetTicks MakeSimulatedTicks(const roadnet::RoadNetwork& net,
                              const std::shared_ptr<const core::MapContext>& ctx,
                              std::uint32_t fleet, int ticks) {
  const roadnet::AltRouter router(
      net, ctx->LandmarksFor(/*num_landmarks=*/8,
                             roadnet::PathMetric::kTravelTime));
  mobility::SpawnOptions spawn;
  spawn.num_cars = fleet;
  spawn.seed = 9;
  auto cars = mobility::SpawnCars(net, ctx->index(), spawn);
  mobility::SimulationOptions sim;
  sim.tick_s = 1.0;
  sim.duration_s = static_cast<double>(ticks);
  sim.record_every = 1;
  sim.router = &router;
  mobility::TraceSimulator simulator(net, std::move(cars), sim);
  simulator.Run();

  std::map<double, std::vector<mobility::TraceRecord>> by_time;
  for (const auto& rec : simulator.trace()) {
    by_time[rec.time_s].push_back(rec);
  }
  FleetTicks out;
  for (const auto& [time, records] : by_time) {
    std::vector<roadnet::SegmentId> tick(fleet, roadnet::kInvalidSegment);
    for (const auto& rec : records) tick[rec.car_id] = rec.segment;
    out.positions.push_back(std::move(tick));
    out.is_burst.push_back(false);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t fleet_size = 200;
  int ticks = 120;
  bool skew = false, dynamic_occupancy = false, verify = false, freeze = false;
  std::vector<int> worker_counts;
  bool fleet_set = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--skew") == 0) {
      skew = true;
    } else if (std::strcmp(argv[a], "--dynamic-occupancy") == 0) {
      dynamic_occupancy = true;
    } else if (std::strcmp(argv[a], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[a], "--freeze") == 0) {
      freeze = true;
    } else if (std::strcmp(argv[a], "--ticks") == 0 && a + 1 < argc) {
      ticks = std::max(1, std::atoi(argv[++a]));
    } else if (!fleet_set) {
      const int fleet = std::atoi(argv[a]);
      if (fleet > 0) fleet_size = static_cast<std::uint32_t>(fleet);
      fleet_set = true;
    } else {
      const int workers = std::atoi(argv[a]);
      if (workers > 0) worker_counts.push_back(workers);
    }
  }
  if (worker_counts.empty()) worker_counts = {1, 2, 4};

  PrintHeader(
      "E20: continuous fleet tracking",
      std::to_string(fleet_size) + " cars, " + std::to_string(ticks) +
          " ticks (1 Hz) through the continuous session pool (" +
          (skew ? "zipfian skew + teleport bursts" : "ALT-routed traces") +
          (dynamic_occupancy ? ", occupancy from fleet positions" : "") +
          "); updates/s, re-cloak rate and latency percentiles vs worker "
          "count.");

  const auto net = [] {
    roadnet::PerturbedGridOptions options;
    options.rows = 30;
    options.cols = 30;
    options.seed = 5;
    return roadnet::MakePerturbedGrid(options);
  }();
  const auto ctx = core::MapContext::Create(net);
  FleetTicks fleet_ticks = skew
                               ? MakeSkewedTicks(net, fleet_size, ticks)
                               : MakeSimulatedTicks(net, ctx, fleet_size,
                                                    ticks);
  if (freeze) {
    for (std::size_t t = 1; t < fleet_ticks.positions.size(); ++t) {
      fleet_ticks.positions[t] = fleet_ticks.positions[0];
      fleet_ticks.is_burst[t] = false;
    }
  }

  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    occupancy.Add(roadnet::SegmentId{i});
  }

  std::uint64_t verify_failures = 0;
  TableWriter table({"fleet", "workers", "updates", "recloaks",
                     "recloak_rate", "updates_per_s", "p50_us", "p95_us",
                     "p99_us", "burst_tick_ms"});
  JsonReport report("e20");
  report.MetaInt("fleet", static_cast<long long>(fleet_size));
  report.MetaInt("ticks", ticks);
  report.Meta("workload", skew ? "skew" : "routed");
  report.MetaBool("dynamic_occupancy", dynamic_occupancy);
  report.MetaBool("verify", verify);
  for (const int workers : worker_counts) {
    core::Anonymizer engine(ctx, occupancy);
    server::ServerOptions server_options;
    server_options.num_workers = workers;
    server_options.max_queue = 1 << 18;
    server::AnonymizationServer server(std::move(engine), server_options);
    server::ContinuousSessionPool pool(server);

    core::ContinuousOptions continuous;
    continuous.validity_level = 1;
    continuous.min_recloak_interval_s = 0.0;
    std::vector<util::UserId> ids(fleet_size);
    for (std::uint32_t car = 0; car < fleet_size; ++car) {
      const auto tracked =
          pool.Track("car" + std::to_string(car),
                     core::PrivacyProfile({{8, 3, 1e9}, {25, 8, 1e9}}),
                     core::Algorithm::kRge,
                     [car](std::uint64_t epoch) {
                       return crypto::KeyChain::FromSeed(
                           50000 + car * 1000 + epoch, 2);
                     },
                     continuous);
      if (!tracked.ok()) {
        std::fprintf(stderr, "track failed: %s\n",
                     tracked.status().ToString().c_str());
        return 1;
      }
      ids[car] = *tracked;
    }

    // Round-trip audit state (--verify): last seen epoch per car.
    const core::Deanonymizer deanonymizer(ctx);
    std::vector<std::uint64_t> last_epoch(fleet_size, 0);

    Stopwatch wall;
    std::uint64_t failed = 0;
    RunningStats burst_ms;
    std::vector<server::ContinuousSessionPool::IdPositionUpdate> batch;
    for (std::size_t t = 0; t < fleet_ticks.positions.size(); ++t) {
      const auto& positions = fleet_ticks.positions[t];
      const double now_s = static_cast<double>(t) * fleet_ticks.tick_s;
      if (dynamic_occupancy) {
        server.SetOccupancy(pool.BuildOccupancy());
      }
      batch.clear();
      std::vector<std::uint32_t> batch_car;
      for (std::uint32_t car = 0; car < fleet_size; ++car) {
        if (positions[car] == roadnet::kInvalidSegment) continue;
        batch.push_back({ids[car], now_s, positions[car]});
        batch_car.push_back(car);
      }
      Stopwatch tick_timer;
      const auto results = pool.UpdateBatch(batch);
      if (fleet_ticks.is_burst[t]) burst_ms.Add(tick_timer.ElapsedMillis());
      for (const auto& result : results) {
        if (!result.ok()) ++failed;
      }
      if (verify) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (!results[i].ok()) continue;
          const std::uint32_t car = batch_car[i];
          const auto epoch = pool.UserEpoch(ids[car]);
          if (!epoch.ok() || *epoch == last_epoch[car]) continue;
          last_epoch[car] = *epoch;
          if (*epoch == 0) continue;  // no artifact cut yet
          // The epoch advanced this tick: the served artifact was cut at
          // this tick's position. Full reduce must recover it exactly.
          const auto keys =
              crypto::KeyChain::FromSeed(50000 + car * 1000 + *epoch, 2);
          const auto region =
              deanonymizer.Reduce(**results[i], AllKeys(keys), 0);
          if (!region.ok() || region->size() != 1 ||
              !region->Contains(positions[car])) {
            ++verify_failures;
          }
        }
      }
    }
    const double wall_s = wall.ElapsedMillis() / 1000.0;
    const auto stats = pool.stats();
    const std::uint64_t ok_updates = stats.updates - failed;
    table.AddRow(
        {TableWriter::Int(static_cast<long long>(fleet_size)),
         TableWriter::Int(workers),
         TableWriter::Int(static_cast<long long>(ok_updates)),
         TableWriter::Int(static_cast<long long>(stats.recloaks)),
         TableWriter::Fixed(stats.updates
                                ? static_cast<double>(stats.recloaks) /
                                      static_cast<double>(stats.updates)
                                : 0.0,
                            4),
         TableWriter::Fixed(wall_s > 0 ? static_cast<double>(stats.updates) /
                                             wall_s
                                       : 0.0,
                            0),
         TableWriter::Fixed(stats.update_latency_ms.Percentile(50) * 1000.0,
                            2),
         TableWriter::Fixed(stats.update_latency_ms.Percentile(95) * 1000.0,
                            2),
         TableWriter::Fixed(stats.update_latency_ms.Percentile(99) * 1000.0,
                            2),
         TableWriter::Fixed(burst_ms.count() ? burst_ms.mean() : 0.0, 2)});
    report.AddRow()
        .Int("workers", workers)
        .Int("updates", static_cast<long long>(ok_updates))
        .Int("recloaks", static_cast<long long>(stats.recloaks))
        .Num("updates_per_s",
             wall_s > 0 ? static_cast<double>(stats.updates) / wall_s : 0.0)
        .Num("p50_us", stats.update_latency_ms.Percentile(50) * 1000.0)
        .Num("p95_us", stats.update_latency_ms.Percentile(95) * 1000.0)
        .Num("p99_us", stats.update_latency_ms.Percentile(99) * 1000.0)
        .Num("burst_tick_ms", burst_ms.count() ? burst_ms.mean() : 0.0);
  }
  table.PrintMarkdown(std::cout);
  if (!report.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_e20.json\n");
    return 1;
  }
  if (verify) {
    std::cout << "\nround-trip verification: "
              << (verify_failures == 0 ? "all epoch advances recovered "
                                         "their exact segment"
                                       : std::to_string(verify_failures) +
                                             " FAILURES")
              << "\n";
  }
  return verify_failures == 0 ? 0 : 2;
}
