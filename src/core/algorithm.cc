#include "core/algorithm.h"

#include <algorithm>
#include <mutex>
#include <span>
#include <vector>

#include "baseline/random_expand.h"

namespace rcloak::core {

Status CloakAlgorithm::Begin(const MapContext&, EngineSession&,
                             std::uint32_t) const {
  return Status::Ok();
}

Status CloakAlgorithm::BeginReduce(const MapContext&, const CloakedArtifact&,
                                   ReduceSession&) const {
  return Status::Ok();
}

namespace {

class RgeStrategy final : public CloakAlgorithm {
 public:
  Algorithm id() const noexcept override { return Algorithm::kRge; }
  std::string_view name() const noexcept override { return "RGE"; }

  StatusOr<LevelRecord> AnonymizeLevel(
      const MapContext&, EngineSession& session, const crypto::AccessKey& key,
      const std::string& request_context, int level_index,
      const LevelRequirement& requirement) const override {
    return RgeAnonymizeLevel(*session.users, session.region, session.chain,
                             key, request_context, level_index, requirement,
                             &session.rge_stats);
  }

  Status DeanonymizeLevel(const MapContext&, const CloakedArtifact& artifact,
                          ReduceSession&, CloakRegion& region,
                          const crypto::AccessKey& key, int level_index,
                          const LevelRecord& record,
                          std::uint32_t prev_region_size) const override {
    return RgeDeanonymizeLevel(region, key, artifact.context, level_index,
                               record, prev_region_size);
  }
};

class RpleStrategy final : public CloakAlgorithm {
 public:
  Algorithm id() const noexcept override { return Algorithm::kRple; }
  std::string_view name() const noexcept override { return "RPLE"; }

  Status Begin(const MapContext& ctx, EngineSession& session,
               std::uint32_t rple_T) const override {
    return Resolve(ctx, rple_T, session.walk);
  }

  StatusOr<LevelRecord> AnonymizeLevel(
      const MapContext&, EngineSession& session, const crypto::AccessKey& key,
      const std::string& request_context, int level_index,
      const LevelRequirement& requirement) const override {
    if (session.walk.tables == nullptr) {
      return Status::Internal("RPLE: session has no tables (Begin not run)");
    }
    return RpleAnonymizeLevel(*session.walk.tables, *session.users,
                              session.region, session.chain, key,
                              request_context, level_index, requirement,
                              &session.rple_stats);
  }

  Status BeginReduce(const MapContext& ctx, const CloakedArtifact& artifact,
                     ReduceSession& session) const override {
    return Resolve(ctx, artifact.rple_T, session.walk);
  }

  Status DeanonymizeLevel(const MapContext&, const CloakedArtifact& artifact,
                          ReduceSession& session, CloakRegion& region,
                          const crypto::AccessKey& key, int level_index,
                          const LevelRecord& record,
                          std::uint32_t) const override {
    if (session.walk.tables == nullptr) {
      return Status::Internal("RPLE: reduce has no tables (BeginReduce "
                              "not run)");
    }
    return RpleDeanonymizeLevel(*session.walk.tables, region, key,
                                artifact.context, level_index, record);
  }

 private:
  static Status Resolve(const MapContext& ctx, std::uint32_t T,
                        WalkTablePointers& walk) {
    if (walk.tables != nullptr && walk.tables_T == T) {
      return Status::Ok();  // resolved earlier, still valid
    }
    RCLOAK_ASSIGN_OR_RETURN(walk.tables, ctx.TablesFor(T));
    walk.tables_T = T;
    return Status::Ok();
  }
};

class RandomExpandStrategy final : public CloakAlgorithm {
 public:
  Algorithm id() const noexcept override { return Algorithm::kRandomExpand; }
  std::string_view name() const noexcept override { return "RandomExpand"; }
  bool reversible() const noexcept override { return false; }

  StatusOr<LevelRecord> AnonymizeLevel(
      const MapContext&, EngineSession& session, const crypto::AccessKey& key,
      const std::string& request_context, int level_index,
      const LevelRequirement& requirement) const override {
    // The baseline's RNG is public and non-cryptographic; seeding it from
    // the keyed per-level stream keeps requests deterministic in
    // (key, context, level) like the reversible strategies.
    const crypto::KeyedPrng prng(
        key, request_context + "/L" + std::to_string(level_index));
    const std::vector<SegmentId> region_before =
        session.region.segments_by_id();
    baseline::BaselineStats stats;
    const Status expanded = baseline::RandomExpandLevel(
        *session.users, session.region, requirement, prng.Draw(0), &stats);
    session.baseline_expansions += stats.expansions;
    if (!expanded.ok()) {
      session.region = CloakRegion::FromSegments(session.region.network(),
                                                 region_before);
      return expanded;
    }
    LevelRecord record;
    record.region_size = static_cast<std::uint32_t>(session.region.size());
    return record;
  }

  Status DeanonymizeLevel(const MapContext&, const CloakedArtifact&,
                          ReduceSession&, CloakRegion&,
                          const crypto::AccessKey&, int, const LevelRecord&,
                          std::uint32_t) const override {
    return Status::Unimplemented(
        "RandomExpand baseline is non-reversible: its artifacts cannot be "
        "reduced level by level");
  }
};

class GridStrategy final : public CloakAlgorithm {
 public:
  Algorithm id() const noexcept override { return Algorithm::kGrid; }
  std::string_view name() const noexcept override { return "Grid"; }

  Status Begin(const MapContext& ctx, EngineSession& session,
               std::uint32_t rple_T) const override {
    return Resolve(ctx, rple_T, session.walk);
  }

  StatusOr<LevelRecord> AnonymizeLevel(
      const MapContext&, EngineSession& session, const crypto::AccessKey& key,
      const std::string& request_context, int level_index,
      const LevelRequirement& requirement) const override {
    if (session.walk.grid == nullptr || session.walk.grid_tables == nullptr) {
      return Status::Internal("grid: session has no grid (Begin not run)");
    }
    return GridAnonymizeLevel(*session.walk.grid, *session.walk.grid_tables,
                              *session.users, session.region,
                              session.grid_cell, key, request_context,
                              level_index, requirement, &session.grid_stats);
  }

  Status BeginReduce(const MapContext& ctx, const CloakedArtifact& artifact,
                     ReduceSession& session) const override {
    return Resolve(ctx, artifact.rple_T, session.walk);
  }

  Status DeanonymizeLevel(const MapContext&, const CloakedArtifact& artifact,
                          ReduceSession& session, CloakRegion& region,
                          const crypto::AccessKey& key, int level_index,
                          const LevelRecord& record,
                          std::uint32_t) const override {
    if (session.walk.grid == nullptr || session.walk.grid_tables == nullptr) {
      return Status::Internal(
          "grid: reduce has no grid (BeginReduce not run)");
    }
    return GridDeanonymizeLevel(*session.walk.grid, *session.walk.grid_tables,
                                region, key, artifact.context, level_index,
                                record);
  }

 private:
  static Status Resolve(const MapContext& ctx, std::uint32_t T,
                        WalkTablePointers& walk) {
    if (walk.grid == nullptr) {
      RCLOAK_ASSIGN_OR_RETURN(walk.grid, ctx.GridFor());
    }
    if (walk.grid_tables != nullptr && walk.grid_tables_T == T) {
      return Status::Ok();  // resolved earlier, still valid
    }
    RCLOAK_ASSIGN_OR_RETURN(walk.grid_tables, walk.grid->TablesFor(T));
    walk.grid_tables_T = T;
    return Status::Ok();
  }
};

// The built-ins resolve lock-free (magic-static init, immutable after):
// FindAlgorithm sits on every request's hot path and must not become a
// process-wide serialization point. Only out-of-tree registrations — rare,
// typically startup-only — go through the mutex-guarded extras list.
std::span<const CloakAlgorithm* const> Builtins() {
  static const RgeStrategy rge;
  static const RpleStrategy rple;
  static const RandomExpandStrategy random_expand;
  static const GridStrategy grid;
  static const CloakAlgorithm* const builtins[] = {&rge, &rple,
                                                   &random_expand, &grid};
  return builtins;
}

std::mutex& ExtrasMutex() {
  static std::mutex mutex;
  return mutex;
}

std::vector<const CloakAlgorithm*>& Extras() {
  static std::vector<const CloakAlgorithm*> extras;
  return extras;
}

}  // namespace

const CloakAlgorithm* FindAlgorithm(Algorithm id) noexcept {
  for (const CloakAlgorithm* algorithm : Builtins()) {
    if (algorithm->id() == id) return algorithm;
  }
  std::lock_guard<std::mutex> lock(ExtrasMutex());
  for (const CloakAlgorithm* algorithm : Extras()) {
    if (algorithm->id() == id) return algorithm;
  }
  return nullptr;
}

std::vector<const CloakAlgorithm*> RegisteredAlgorithms() {
  std::vector<const CloakAlgorithm*> all(Builtins().begin(),
                                         Builtins().end());
  std::lock_guard<std::mutex> lock(ExtrasMutex());
  all.insert(all.end(), Extras().begin(), Extras().end());
  return all;
}

Status RegisterAlgorithm(const CloakAlgorithm* algorithm) {
  if (algorithm == nullptr) {
    return Status::InvalidArgument("cannot register null algorithm");
  }
  for (const CloakAlgorithm* existing : Builtins()) {
    if (existing->id() == algorithm->id()) {
      return Status::InvalidArgument("algorithm id already registered: " +
                                     std::string(existing->name()));
    }
  }
  std::lock_guard<std::mutex> lock(ExtrasMutex());
  for (const CloakAlgorithm* existing : Extras()) {
    if (existing->id() == algorithm->id()) {
      return Status::InvalidArgument("algorithm id already registered: " +
                                     std::string(existing->name()));
    }
  }
  Extras().push_back(algorithm);
  return Status::Ok();
}

}  // namespace rcloak::core
