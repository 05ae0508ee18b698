#include "core/reversecloak.h"

#include <string>
#include <utility>

namespace rcloak::core {

std::string EpochContext(std::string_view user, std::uint64_t epoch) {
  std::string context(user);
  context += "/epoch-";
  context += std::to_string(epoch);
  return context;
}

Anonymizer::Anonymizer(const roadnet::RoadNetwork& net,
                       mobility::OccupancySnapshot occupancy,
                       std::uint32_t rple_T)
    : Anonymizer(MapContext::Create(net), std::move(occupancy), rple_T) {}

Anonymizer::Anonymizer(std::shared_ptr<const MapContext> context,
                       mobility::OccupancySnapshot occupancy,
                       std::uint32_t rple_T)
    : ctx_(std::move(context)),
      occupancy_(std::make_shared<const mobility::OccupancySnapshot>(
          std::move(occupancy))),
      rple_T_(rple_T) {}

Anonymizer::Anonymizer(Anonymizer&& other) noexcept
    : ctx_(std::move(other.ctx_)),
      occupancy_(other.occupancy_.load(std::memory_order_acquire)),
      rple_T_(other.rple_T_),
      external_counter_(other.external_counter_) {}

Anonymizer& Anonymizer::operator=(Anonymizer&& other) noexcept {
  if (this != &other) {
    ctx_ = std::move(other.ctx_);
    occupancy_.store(other.occupancy_.load(std::memory_order_acquire),
                     std::memory_order_release);
    rple_T_ = other.rple_T_;
    external_counter_ = other.external_counter_;
  }
  return *this;
}

void Anonymizer::SetOccupancy(mobility::OccupancySnapshot occupancy) {
  occupancy_.store(std::make_shared<const mobility::OccupancySnapshot>(
                       std::move(occupancy)),
                   std::memory_order_release);
}

Status Anonymizer::EnsurePreassigned() const {
  return ctx_->TablesFor(rple_T_).status();
}

Status Anonymizer::EnsureGridReady() const {
  RCLOAK_ASSIGN_OR_RETURN(const GridContext* grid, ctx_->GridFor());
  return grid->TablesFor(rple_T_).status();
}

StatusOr<AnonymizeResult> Anonymizer::Anonymize(
    const AnonymizeRequest& request, const crypto::KeyChain& keys) const {
  EngineSession session(*ctx_);
  return Anonymize(request, keys, session);
}

StatusOr<AnonymizeResult> Anonymizer::Anonymize(
    const AnonymizeRequest& request, const crypto::KeyChain& keys,
    EngineSession& session) const {
  RCLOAK_RETURN_IF_ERROR(request.profile.Validate());
  if (!ctx_->network().IsValid(request.origin)) {
    return Status::InvalidArgument("anonymize: invalid origin segment");
  }
  if (request.context.empty()) {
    return Status::InvalidArgument(
        "anonymize: request context must be non-empty (it binds the PRNG "
        "streams and must be unique per request)");
  }
  const int num_levels = request.profile.num_levels();
  if (keys.num_levels() < num_levels) {
    return Status::InvalidArgument(
        "anonymize: key chain has fewer keys than profile levels");
  }
  if (request.sealed_level < 0 || request.sealed_level > num_levels) {
    return Status::InvalidArgument("anonymize: sealed level out of range");
  }
  const CloakAlgorithm* algorithm = FindAlgorithm(request.algorithm);
  if (algorithm == nullptr) {
    return Status::InvalidArgument("anonymize: unknown algorithm id " +
                                   std::to_string(static_cast<unsigned>(
                                       request.algorithm)));
  }
  if (session.ctx != ctx_.get()) {
    return Status::InvalidArgument(
        "anonymize: session was built over a different MapContext (its "
        "region bitmap and table cache are invalid here)");
  }

  // Pin this request to one snapshot epoch: SetOccupancy on another thread
  // publishes a new shared_ptr and never mutates a published snapshot.
  const std::shared_ptr<const mobility::OccupancySnapshot> snapshot =
      occupancy_snapshot();
  if (snapshot->segment_count() != ctx_->network().segment_count()) {
    return Status::FailedPrecondition(
        "anonymize: occupancy snapshot does not match network");
  }

  session.Reset(request.origin);  // L0: only the actual user's segment
  const SnapshotCounter snapshot_counter(*snapshot);
  session.users = external_counter_ != nullptr
                      ? external_counter_
                      : static_cast<const UserCounter*>(&snapshot_counter);
  // The session outlives this request, but the counter and the user-count
  // cache point at this stack frame / snapshot epoch — drop them on every
  // exit path, success or failure.
  struct SessionCleanup {
    EngineSession* session;
    ~SessionCleanup() {
      session->users = nullptr;
      session->region.InvalidateUserCountCache();
    }
  } cleanup{&session};
  RCLOAK_RETURN_IF_ERROR(algorithm->Begin(*ctx_, session, rple_T_));

  AnonymizeResult result;
  const int sealed_level = algorithm->reversible() ? request.sealed_level : 0;
  for (int level = 1; level <= num_levels; ++level) {
    StatusOr<LevelRecord> record = algorithm->AnonymizeLevel(
        *ctx_, session, keys.LevelKey(level), request.context, level,
        request.profile.level(level));
    if (!record.ok()) return record.status();
    result.artifact.levels.push_back(std::move(record).value());
    // The region now holds exactly level `level`; the next expansion only
    // adds to it, so this is the set the keyed peel recovers.
    if (level == sealed_level) {
      result.sealed_region = session.region.segments_by_id();
    }
  }

  result.artifact.algorithm = request.algorithm;
  result.artifact.context = request.context;
  result.artifact.map_fingerprint = ctx_->fingerprint();
  result.artifact.rple_T = request.algorithm == Algorithm::kRple ||
                                   request.algorithm == Algorithm::kGrid
                               ? rple_T_
                               : 0;
  result.artifact.region_segments = session.region.segments_by_id();
  result.rge_stats = session.rge_stats;
  result.rple_stats = session.rple_stats;
  result.grid_stats = session.grid_stats;
  result.baseline_expansions = session.baseline_expansions;
  return result;
}

Deanonymizer::Deanonymizer(const roadnet::RoadNetwork& net)
    : ctx_(MapContext::Create(net)) {}

Deanonymizer::Deanonymizer(std::shared_ptr<const MapContext> context)
    : ctx_(std::move(context)) {}

StatusOr<CloakRegion> Deanonymizer::FullRegion(
    const CloakedArtifact& artifact) const {
  if (artifact.map_fingerprint != ctx_->fingerprint()) {
    return Status::FailedPrecondition(
        "artifact was built on a different road network");
  }
  for (SegmentId sid : artifact.region_segments) {
    if (!ctx_->network().IsValid(sid)) {
      return Status::DataLoss("artifact references unknown segment");
    }
  }
  return CloakRegion::FromSegments(ctx_->network(), artifact.region_segments);
}

StatusOr<CloakRegion> Deanonymizer::ReduceWith(
    const CloakedArtifact& artifact,
    const std::map<int, crypto::AccessKey>& granted_keys, int target_level,
    ReduceSession& session) const {
  const int num_levels = artifact.num_levels();
  if (target_level < 0 || target_level > num_levels) {
    return Status::InvalidArgument("target level out of range");
  }
  const CloakAlgorithm* algorithm = FindAlgorithm(artifact.algorithm);
  if (algorithm == nullptr) {
    return Status::InvalidArgument("reduce: unknown algorithm id " +
                                   std::to_string(static_cast<unsigned>(
                                       artifact.algorithm)));
  }
  RCLOAK_ASSIGN_OR_RETURN(CloakRegion region, FullRegion(artifact));
  RCLOAK_RETURN_IF_ERROR(algorithm->BeginReduce(*ctx_, artifact, session));

  // Peel levels outermost-first: L^N, L^{N-1}, ..., down to the target.
  for (int level = num_levels; level > target_level; --level) {
    const auto key_it = granted_keys.find(level);
    if (key_it == granted_keys.end()) {
      return Status::FailedPrecondition(
          "missing access key for level " + std::to_string(level) +
          "; levels must be de-anonymized outermost-first");
    }
    const LevelRecord& record =
        artifact.levels[static_cast<std::size_t>(level - 1)];
    const std::uint32_t prev_size =
        level >= 2
            ? artifact.levels[static_cast<std::size_t>(level - 2)].region_size
            : 1;  // L0 is always the single origin segment
    RCLOAK_RETURN_IF_ERROR(algorithm->DeanonymizeLevel(
        *ctx_, artifact, session, region, key_it->second, level, record,
        prev_size));
    if (region.size() != prev_size) {
      return Status::DataLoss(
          std::string(algorithm->name()) +
          " de-anonymize: reduced region size mismatch (wrong key or "
          "corrupt artifact)");
    }
  }
  return region;
}

StatusOr<CloakRegion> Deanonymizer::Reduce(
    const CloakedArtifact& artifact,
    const std::map<int, crypto::AccessKey>& granted_keys,
    int target_level) const {
  ReduceSession session;
  return ReduceWith(artifact, granted_keys, target_level, session);
}

StatusOr<CloakRegion> Deanonymizer::ReduceOne(const ReduceJob& job,
                                              ReduceSession& session) const {
  if (job.artifact == nullptr || job.granted_keys == nullptr) {
    return Status::InvalidArgument("reduce batch: null artifact or key map");
  }
  return ReduceWith(*job.artifact, *job.granted_keys, job.target_level,
                    session);
}

std::vector<StatusOr<CloakRegion>> Deanonymizer::ReduceBatch(
    const std::vector<ReduceJob>& jobs) const {
  std::vector<StatusOr<CloakRegion>> results;
  results.reserve(jobs.size());
  // One session for the run: each backend's BeginReduce keeps its own
  // prerequisites (keyed by the artifact's T) and re-resolves only on
  // mismatch, so a homogeneous batch touches the table memo once and a
  // mixed batch is still exact.
  ReduceSession session;
  for (const ReduceJob& job : jobs) {
    results.push_back(ReduceOne(job, session));
  }
  return results;
}

}  // namespace rcloak::core
