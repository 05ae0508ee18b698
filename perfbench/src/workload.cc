#include "workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "core/map_context.h"
#include "mobility/simulator.h"
#include "roadnet/alt_routing.h"
#include "roadnet/generators.h"
#include "roadnet/spatial_index.h"

namespace perfbench {

using namespace rcloak;

namespace {

// The paper's Atlanta-scale map is a deployment input: the same map for
// every seed. The seed drives the fleet and its traffic.
constexpr std::uint64_t kMapSeed = 42;

std::vector<mobility::CarState> Spawn(const roadnet::RoadNetwork& net,
                                      std::uint32_t cars,
                                      std::uint64_t seed) {
  const roadnet::SpatialIndex index(net);
  mobility::SpawnOptions spawn;
  spawn.num_cars = cars;
  spawn.seed = Mix(seed, 0x5a5a);
  return mobility::SpawnCars(net, index, spawn);
}

// steady_fleet: ALT-routed trips sampled every 2 s, which keeps about 95%
// of updates inside the car's validity region. Positions are stored as one
// u16 per (tick, car); tick 0 is the first sighting.
class SteadyFleet final : public Workload {
 public:
  static constexpr double kTickS = 2.0;
  static constexpr std::uint32_t kTimedTicks = 300;

  SteadyFleet(WorkloadSpec spec, roadnet::RoadNetwork net, std::uint64_t seed)
      : Workload(std::move(spec), std::move(net)) {
    const std::uint32_t fleet = spec_.fleet;
    auto cars = Spawn(net_, fleet, seed);
    occupancy_ = mobility::Occupancy(net_, cars);
    const auto ctx = core::MapContext::Create(net_);
    const roadnet::AltRouter router(
        net_, ctx->LandmarksFor(8, roadnet::PathMetric::kTravelTime));
    mobility::SimulationOptions sim;
    sim.tick_s = kTickS;
    sim.duration_s = kTickS * (kTimedTicks + 1);
    sim.seed = Mix(seed, 0x7777);
    sim.router = &router;
    mobility::TraceSimulator simulator(net_, std::move(cars), sim);
    positions_.resize(static_cast<std::size_t>(kTimedTicks + 1) * fleet);
    for (std::uint32_t t = 0; t <= kTimedTicks; ++t) {
      const auto& now = simulator.cars();
      for (std::uint32_t car = 0; car < fleet; ++car) {
        positions_[static_cast<std::size_t>(t) * fleet + car] =
            static_cast<std::uint16_t>(roadnet::Index(now[car].segment));
      }
      simulator.Step();
    }
    for (std::uint32_t car = 0; car < fleet; ++car) {
      first_sighting_.push_back({car, SegmentId{positions_[car]}, 0.0});
    }
  }

  Item At(std::uint64_t index) const override {
    const std::uint32_t fleet = spec_.fleet;
    const std::uint64_t tick = 1 + index / fleet;
    const auto car = static_cast<std::uint32_t>(index % fleet);
    return {car, SegmentId{positions_[tick * fleet + car]},
            static_cast<double>(tick) * kTickS};
  }
  std::uint64_t length() const override {
    return static_cast<std::uint64_t>(kTimedTicks) * spec_.fleet;
  }

 private:
  std::vector<std::uint16_t> positions_;
};

// recloak_storm: every tick, the half of the fleet whose parity matches
// the tick teleports to the position of a random spawned car (so targets
// follow the fleet's density); the other half stays put.
class RecloakStorm final : public Workload {
 public:
  RecloakStorm(WorkloadSpec spec, roadnet::RoadNetwork net,
               std::uint64_t seed)
      : Workload(std::move(spec), std::move(net)), seed_(seed) {
    const auto cars = Spawn(net_, spec_.fleet, seed);
    occupancy_ = mobility::Occupancy(net_, cars);
    for (const auto& car : cars) spawned_.push_back(car.segment);
    for (std::uint32_t u = 0; u < spec_.fleet; ++u) {
      first_sighting_.push_back({u, spawned_[u], 0.0});
    }
  }

  Item At(std::uint64_t index) const override {
    const std::uint32_t fleet = spec_.fleet;
    const std::uint64_t tick = 1 + index / fleet;
    const auto user = static_cast<std::uint32_t>(index % fleet);
    // The last tick at or before `tick` on which this user teleported.
    const std::uint64_t jump = tick - ((tick + user) & 1u);
    const SegmentId segment =
        jump == 0 ? spawned_[user]
                  : spawned_[Mix(seed_, user, jump) % spawned_.size()];
    return {user, segment, static_cast<double>(tick)};
  }
  std::uint64_t length() const override {
    return std::numeric_limits<std::uint32_t>::max();
  }

 private:
  std::uint64_t seed_;
  std::vector<SegmentId> spawned_;
};

// cold_churn: Zipf(s=1) popularity over the fleet (user index = rank, so
// users 0.. are the hot head), each user reporting from a home segment
// with a 5% chance of a nearby detour.
class ColdChurn final : public Workload {
 public:
  ColdChurn(WorkloadSpec spec, roadnet::RoadNetwork net, std::uint64_t seed,
            std::uint32_t hot_head)
      : Workload(std::move(spec), std::move(net)), seed_(seed) {
    const auto cars = Spawn(net_, spec_.fleet, seed);
    occupancy_ = mobility::Occupancy(net_, cars);
    home_.reserve(cars.size());
    for (const auto& car : cars) home_.push_back(car.segment);
    cumulative_.resize(spec_.fleet);
    double total = 0.0;
    for (std::uint32_t i = 0; i < spec_.fleet; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cumulative_[i] = total;
    }
    for (std::uint32_t u = 0; u < hot_head; ++u) {
      first_sighting_.push_back({u, home_[u], 0.0});
    }
  }

  Item At(std::uint64_t index) const override {
    const std::uint64_t draw = Mix(seed_, index, 1);
    const double u = static_cast<double>(draw >> 11) * 0x1.0p-53 *
                     cumulative_.back();
    const auto user = static_cast<std::uint32_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
    const std::uint64_t detour = Mix(seed_, index, 2);
    std::uint32_t segment = roadnet::Index(home_[user]);
    if (detour % 100 < 5) {
      segment = static_cast<std::uint32_t>(
          (segment + 1 + (detour >> 8) % 3) % net_.segment_count());
    }
    return {user, SegmentId{segment},
            1.0 + static_cast<double>(index) * 1e-4};
  }
  std::uint64_t length() const override {
    return std::numeric_limits<std::uint32_t>::max();
  }

 private:
  std::uint64_t seed_;
  std::vector<SegmentId> home_;
  std::vector<double> cumulative_;
};

}  // namespace

std::uint64_t Mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull ^ (a + 0x632be59bd9b4e019ull) ^
                    (b * 0xd6e8feb86659fd93ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Workload::Workload(WorkloadSpec spec, roadnet::RoadNetwork net)
    : spec_(std::move(spec)),
      net_(std::move(net)),
      occupancy_(net_.segment_count()) {}

core::PrivacyProfile Workload::Profile() {
  return core::PrivacyProfile({{8, 3, 1e9}, {25, 8, 1e9}});
}

Bytes Workload::AuthSecret() {
  const std::string_view secret = "perfbench-fleet-secret";
  return Bytes(secret.begin(), secret.end());
}

std::string Workload::Principal(int connection) {
  return "operator-" + std::to_string(connection);
}

std::string_view Workload::UserName(std::uint32_t user, char* buf) {
  buf[0] = 'u';
  const auto end = std::to_chars(buf + 1, buf + 16, user).ptr;
  return std::string_view(buf, static_cast<std::size_t>(end - buf));
}

std::string Workload::UserName(std::uint32_t user) {
  char buf[16];
  return std::string(UserName(user, buf));
}

StatusOr<std::unique_ptr<Workload>> Workload::Make(const std::string& name,
                                                   std::uint64_t seed) {
  auto net = roadnet::MakePerturbedGrid(roadnet::AtlantaNwProfile(kMapSeed));
  if (net.segment_count() >= std::numeric_limits<std::uint16_t>::max()) {
    return Status::Internal("map too large for u16 trace storage");
  }
  WorkloadSpec spec;
  spec.name = name;
  if (name == "steady_fleet") {
    spec.fleet = 10000;
    spec.update_connections = 4;
    spec.updates_per_reduce = 50;
    spec.open_loop_rate = 12000;
    return std::unique_ptr<Workload>(
        new SteadyFleet(std::move(spec), std::move(net), seed));
  }
  if (name == "recloak_storm") {
    spec.fleet = 2000;
    spec.update_connections = 3;
    spec.dedicated_requester = true;
    spec.updates_per_reduce = 9;
    spec.open_loop_rate = 2100;
    return std::unique_ptr<Workload>(
        new RecloakStorm(std::move(spec), std::move(net), seed));
  }
  if (name == "cold_churn") {
    spec.fleet = 200000;
    spec.update_connections = 4;
    spec.updates_per_reduce = 4;
    spec.open_loop_rate = 1000;
    spec.memory_budget_bytes = 21000000;
    return std::unique_ptr<Workload>(new ColdChurn(
        std::move(spec), std::move(net), seed, spec.fleet / 10));
  }
  return Status::InvalidArgument("unknown workload: " + name);
}

}  // namespace perfbench
