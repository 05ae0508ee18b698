// Public facade of the ReverseCloak library, layered over the engine
// architecture (docs/ARCHITECTURE.md):
//
//   MapContext (immutable, shared)  ←  CloakAlgorithm strategies (stateless)
//                 ↑                               ↑
//   Anonymizer / Deanonymizer — thin facades dispatching through the
//   strategy registry, with all per-request mutable state in EngineSession.
//
// Anonymizer — the trusted anonymization server of §IV: shares a
// MapContext (road network + spatial index + memoized RPLE tables), holds
// the occupancy snapshot behind an atomically swappable shared_ptr (cars
// move; see SetOccupancy), and turns (origin segment, PrivacyProfile,
// KeyChain) into a CloakedArtifact. Anonymize() is const: it only reads
// shared state, so any number of threads may call it concurrently.
//
// Deanonymizer — the data requester side: holds whichever level keys were
// granted and reduces a CloakedArtifact down to the corresponding level;
// with all keys, down to L0 = the user's exact segment. Construct it over
// the same MapContext as the Anonymizer to share the index and tables.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithm.h"
#include "core/artifact.h"
#include "core/cloak_region.h"
#include "core/map_context.h"
#include "core/privacy_profile.h"
#include "core/rge.h"
#include "core/rple.h"
#include "crypto/keyed_prng.h"
#include "mobility/trace.h"

namespace rcloak::core {

struct AnonymizeRequest {
  SegmentId origin = roadnet::kInvalidSegment;
  PrivacyProfile profile;
  Algorithm algorithm = Algorithm::kRge;
  // Public request context (binds the PRNG streams; must be unique per
  // request, e.g. "user42/2017-03-02T10:11:12/7"). Callers that number a
  // user's requests name them with EpochContext below.
  std::string context;
  // A level (1..N) whose region the result copies out the moment it is
  // sealed (AnonymizeResult::sealed_region); 0 = none. The anonymizer grows
  // every level inside the next one itself, so the owner of the keys gets
  // an inner region here without replaying the artifact through
  // Deanonymizer::Reduce.
  int sealed_level = 0;
};

// The context of `user`'s request number `epoch`: "<user>/epoch-<n>". It
// is unique per request as long as the caller never reuses an epoch
// number for one user.
std::string EpochContext(std::string_view user, std::uint64_t epoch);

struct AnonymizeResult {
  CloakedArtifact artifact;
  RgeStats rge_stats;
  RpleStats rple_stats;
  GridStats grid_stats;
  std::uint64_t baseline_expansions = 0;
  // The id-sorted segment set of request.sealed_level's region, copied as
  // that level was sealed: equal to Reduce(artifact, keys of levels
  // sealed_level+1..N, sealed_level).segments_by_id(). Empty when no level
  // was requested or the backend is not reversible (there is no keyed
  // reduce for it to stand in for).
  std::vector<SegmentId> sealed_region;
  // EncodeArtifact(artifact), written by the server::AnonymizationServer
  // worker that ran the job; empty from Anonymize itself.
  Bytes wire;
};

class Anonymizer {
 public:
  // Compatibility constructor: builds a private MapContext over `net`
  // (which must outlive the anonymizer). `rple_T` is the transition-list
  // length used when requests pick RPLE; pre-assignment runs lazily on
  // first use and is memoized in the context.
  Anonymizer(const roadnet::RoadNetwork& net,
             mobility::OccupancySnapshot occupancy, std::uint32_t rple_T = 6);

  // Shares an existing context (the server / multi-engine shape): no
  // duplicate index or table builds.
  Anonymizer(std::shared_ptr<const MapContext> context,
             mobility::OccupancySnapshot occupancy, std::uint32_t rple_T = 6);

  Anonymizer(Anonymizer&& other) noexcept;
  Anonymizer& operator=(Anonymizer&& other) noexcept;

  // Read-only over all shared state: safe to call concurrently from many
  // threads. Builds a throwaway session; the overload below reuses one.
  StatusOr<AnonymizeResult> Anonymize(const AnonymizeRequest& request,
                                      const crypto::KeyChain& keys) const;

  // Hot-path overload: runs the request in `session` (reset internally),
  // reusing its allocations. Each concurrent caller needs its own session.
  StatusOr<AnonymizeResult> Anonymize(const AnonymizeRequest& request,
                                      const crypto::KeyChain& keys,
                                      EngineSession& session) const;

  // Refreshes the user-position snapshot (cars move). Publishes a new
  // snapshot epoch by atomic shared_ptr swap: in-flight requests keep the
  // epoch they started with, later requests see the new one. Safe to call
  // while Anonymize() runs on other threads.
  void SetOccupancy(mobility::OccupancySnapshot occupancy);

  // Overrides the k-anonymity user counting for subsequent requests (e.g.
  // a trace-window distinct counter for spatio-temporal cloaking). Pass
  // nullptr to return to the internal occupancy snapshot. The counter must
  // outlive its use; the anonymizer does not take ownership. Not
  // synchronized against concurrent Anonymize() — set it before serving.
  void SetUserCounter(const UserCounter* counter) noexcept {
    external_counter_ = counter;
  }

  // Forces RPLE pre-assignment now (NetServer::Start does for an RPLE
  // front door); otherwise lazy.
  Status EnsurePreassigned() const;

  // Forces the grid cell index + cell-transition tables for this engine's
  // T now (NetServer::Start does for a grid front door); otherwise lazy on
  // the first grid request. Racing first requests still build each once.
  Status EnsureGridReady() const;

  const std::shared_ptr<const MapContext>& context() const noexcept {
    return ctx_;
  }
  const roadnet::RoadNetwork& network() const noexcept {
    return ctx_->network();
  }
  std::uint32_t rple_T() const noexcept { return rple_T_; }

  // The current snapshot epoch.
  std::shared_ptr<const mobility::OccupancySnapshot> occupancy_snapshot()
      const {
    return occupancy_.load(std::memory_order_acquire);
  }
  // Compatibility accessor. The reference is into the CURRENT epoch and
  // dangles once SetOccupancy publishes a new one (the old snapshot is
  // dropped, unlike the pre-epoch design which assigned in place) — do
  // not hold it across SetOccupancy; hold occupancy_snapshot() instead.
  const mobility::OccupancySnapshot& occupancy() const {
    return *occupancy_snapshot();
  }

 private:
  std::shared_ptr<const MapContext> ctx_;
  std::atomic<std::shared_ptr<const mobility::OccupancySnapshot>> occupancy_;
  std::uint32_t rple_T_;
  const UserCounter* external_counter_ = nullptr;
};

class Deanonymizer {
 public:
  // Compatibility constructor: builds a private context over the same map
  // (RPLE tables are a pure function of map and T, so they re-derive).
  explicit Deanonymizer(const roadnet::RoadNetwork& net);

  // Shares the anonymizer's context: index and tables are built once.
  explicit Deanonymizer(std::shared_ptr<const MapContext> context);

  // Reduces the artifact from level N down to `target_level` (0 =>
  // exact segment). `granted_keys` maps level index -> key; all keys for
  // levels target_level+1 .. N must be present.
  StatusOr<CloakRegion> Reduce(
      const CloakedArtifact& artifact,
      const std::map<int, crypto::AccessKey>& granted_keys,
      int target_level) const;

  // One reduction of a batch. Artifact and key map are borrowed; they must
  // outlive the ReduceBatch call.
  struct ReduceJob {
    const CloakedArtifact* artifact = nullptr;
    const std::map<int, crypto::AccessKey>* granted_keys = nullptr;
    int target_level = 0;
  };

  // Batch path: element i of the result corresponds to jobs[i] and is
  // byte-identical to Reduce(*jobs[i].artifact, ...). Per-artifact setup
  // (strategy lookup, BeginReduce table resolution) is amortized by
  // reusing one ReduceSession per (algorithm, rple_T) run instead of
  // paying the context's memo lock once per artifact — the shape of a data
  // requester reducing many granted artifacts at once.
  std::vector<StatusOr<CloakRegion>> ReduceBatch(
      const std::vector<ReduceJob>& jobs) const;

  // The region exposed with no keys at all (level N as published).
  StatusOr<CloakRegion> FullRegion(const CloakedArtifact& artifact) const;

  const std::shared_ptr<const MapContext>& context() const noexcept {
    return ctx_;
  }

 private:
  // One job of the batch: byte-identical to Reduce(*job.artifact, ...)
  // while reusing `session`. BeginReduce revalidates the session's
  // prerequisites against every artifact, so one session may serve mixed
  // algorithms and T values.
  StatusOr<CloakRegion> ReduceOne(const ReduceJob& job,
                                  ReduceSession& session) const;

  // Shared peel loop; `session` carries prerequisites across calls (the
  // batch path reuses it, the single-shot path hands in a fresh one).
  // Every peel must leave exactly the lower level's recorded size.
  StatusOr<CloakRegion> ReduceWith(
      const CloakedArtifact& artifact,
      const std::map<int, crypto::AccessKey>& granted_keys, int target_level,
      ReduceSession& session) const;

  std::shared_ptr<const MapContext> ctx_;
};

}  // namespace rcloak::core
