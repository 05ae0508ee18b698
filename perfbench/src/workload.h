// Seeded workload inputs for the repository benchmark.
//
// A workload is a fleet, a traffic schedule and the deployment inputs the
// server is started with. Everything here is a pure function of (workload
// name, seed): the wire run, the in-process verification twin and the
// traced layer replay all read the same items from the same object.
//
// The schedule is one global sequence of position updates, At(0), At(1),
// ... Each user is pinned to one connection (ConnectionOf). The open-loop
// phase sends the sequence in order; the closed-loop phase lets every
// connection run ahead on its own sub-sequence. Either way each
// connection sends a prefix of its own sub-sequence, which is all the twin
// needs to replay exactly what was sent (per-connection sent counts).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/privacy_profile.h"
#include "mobility/trace.h"
#include "roadnet/road_network.h"
#include "util/bytes.h"
#include "util/status.h"

namespace perfbench {

using rcloak::roadnet::SegmentId;

struct Item {
  std::uint32_t user = 0;
  SegmentId segment = rcloak::roadnet::kInvalidSegment;
  double now_s = 0.0;
};

// Deployment inputs plus the traffic shape of one workload.
struct WorkloadSpec {
  std::string name;
  std::uint32_t fleet = 0;
  // Connections carrying position updates (user u rides connection
  // u % update_connections).
  int update_connections = 0;
  // recloak_storm sends its REDUCE_REQUESTs on a connection of their own;
  // the other workloads send them on connection 0.
  bool dedicated_requester = false;
  // One REDUCE_REQUEST per this many position updates.
  std::uint32_t updates_per_reduce = 0;
  // Offered rate of the open-loop phase (updates/s), fixed at about half
  // the saturation throughput this workload reached when it was defined.
  double open_loop_rate = 0.0;
  // Cold tier: a spill file is attached and the pool keeps its resident
  // state under this many bytes. 0 = no spill file.
  std::size_t memory_budget_bytes = 0;

  int total_connections() const {
    return update_connections + (dedicated_requester ? 1 : 0);
  }
  int requester_connection() const {
    return dedicated_requester ? update_connections : 0;
  }
};

class Workload {
 public:
  // Known names: steady_fleet, recloak_storm, cold_churn.
  static rcloak::StatusOr<std::unique_ptr<Workload>> Make(
      const std::string& name, std::uint64_t seed);

  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const WorkloadSpec& spec() const noexcept { return spec_; }
  const rcloak::roadnet::RoadNetwork& net() const noexcept { return net_; }
  // Static occupancy: the spawned fleet, set once.
  const rcloak::mobility::OccupancySnapshot& occupancy() const noexcept {
    return occupancy_;
  }
  // The privacy profile every session is served under ({8,3},{25,8}) at
  // validity level 1.
  static rcloak::core::PrivacyProfile Profile();
  static constexpr int kValidityLevel = 1;
  // Shared secret of the authenticated wire (protocol v2).
  static rcloak::Bytes AuthSecret();
  // Principal connection c authenticates as.
  static std::string Principal(int connection);

  // The first-sighting tick: one update per user that set-up tracks and
  // cloaks (every user, or the hot head for cold_churn).
  const std::vector<Item>& first_sighting() const noexcept {
    return first_sighting_;
  }
  // The timed sequence. length() bounds the valid indices.
  virtual Item At(std::uint64_t index) const = 0;
  virtual std::uint64_t length() const = 0;

  int ConnectionOf(std::uint32_t user) const noexcept {
    return static_cast<int>(user % static_cast<std::uint32_t>(
                                       spec_.update_connections));
  }
  // Wire user id ("u<index>"), written into `buf` (>= 16 bytes).
  static std::string_view UserName(std::uint32_t user, char* buf);
  static std::string UserName(std::uint32_t user);

 protected:
  Workload(WorkloadSpec spec, rcloak::roadnet::RoadNetwork net);

  WorkloadSpec spec_;
  rcloak::roadnet::RoadNetwork net_;
  rcloak::mobility::OccupancySnapshot occupancy_;
  std::vector<Item> first_sighting_;
};

// 64-bit mix of (seed, a, b): the counter-based source behind every
// seeded draw that is not a precomputed trace.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

}  // namespace perfbench
