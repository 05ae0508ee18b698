#include "server/continuous_session_pool.h"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "util/stopwatch.h"

namespace rcloak::server {

using core::ContinuousPolicy;

namespace {

// The ownership rule: an owned session (or spill record) moves only for
// its principal; owner 0 is unowned.
bool OwnedByOther(std::uint64_t owner, std::uint64_t principal) {
  return owner != 0 && owner != principal;
}

}  // namespace

SessionCounters& SessionCounters::operator+=(const SessionCounters& other) {
  // Field by field, without naming the fields a second time: the struct is
  // nothing but std::uint64_t counters (no padding, no other type).
  using Fields = std::array<std::uint64_t,
                            sizeof(SessionCounters) / sizeof(std::uint64_t)>;
  static_assert(sizeof(Fields) == sizeof(SessionCounters) &&
                std::has_unique_object_representations_v<SessionCounters>);
  auto sum = std::bit_cast<Fields>(*this);
  const auto add = std::bit_cast<Fields>(other);
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += add[i];
  *this = std::bit_cast<SessionCounters>(sum);
  return *this;
}

ContinuousSessionPool::ContinuousSessionPool(AnonymizationServer& server,
                                             const SessionPoolOptions& options)
    : server_(&server), options_(options) {
  const int shards =
      options.num_shards > 0 ? options.num_shards : server.num_workers();
  const std::size_t segments = server.engine().network().segment_count();
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->occupancy.assign(segments, 0);
  }
  memory_budget_bytes_.store(options.memory_budget_bytes,
                             std::memory_order_relaxed);
}

std::size_t ContinuousSessionPool::SessionFootprint(const Session& session) {
  // The policy's own estimate plus provider storage; the Session struct
  // itself is counted once more through the shard table's slot array —
  // intentionally conservative, the sweep must start early, never late.
  return session.policy.MemoryFootprint() + sizeof(KeyProvider);
}

ContinuousSessionPool::Session* ContinuousSessionPool::InsertLocked(
    Shard& shard, util::UserId id, Session session) {
  Session* slot = shard.sessions.TryEmplace(id, std::move(session)).first;
  slot->referenced = true;
  slot->mem_bytes = SessionFootprint(*slot);
  shard.resident_bytes += slot->mem_bytes;
  shard.OccupancyAdd(slot->last_segment);
  return slot;
}

StatusOr<std::pair<util::UserId, bool>> ContinuousSessionPool::TrackFresh(
    std::string_view user_id, const core::PrivacyProfile& profile,
    core::Algorithm algorithm, KeyProvider key_provider,
    const core::ContinuousOptions& options, std::uint64_t owner) {
  RCLOAK_RETURN_IF_ERROR(profile.Validate());
  if (!key_provider) {
    return Status::InvalidArgument("track: key provider must be callable");
  }
  Session session(
      ContinuousPolicy(std::string(user_id), profile, algorithm, options),
      std::move(key_provider));
  session.owner = owner;
  const util::UserId id = interner_.Intern(user_id);
  Shard& shard = *shards_[ShardIndexFor(id)];
  std::unique_lock<std::mutex> lock(shard.mutex);
  // No track rolls a spilled user's epoch back: a live record blocks it.
  const bool inserted = shard.sessions.Find(id) == nullptr &&
                        (spill_ == nullptr || !spill_->Contains(id));
  if (inserted) {
    // A provider parked for a record that compaction dropped as rotten
    // must not outlive it: a later spill would keep it over this one's.
    shard.parked_keys.Erase(id);
    InsertLocked(shard, id, std::move(session));
  }
  lock.unlock();
  // A track flood can pass the budget without a single update.
  if (inserted) MaybeSweep();
  return std::make_pair(id, inserted);
}

StatusOr<util::UserId> ContinuousSessionPool::Track(
    std::string_view user_id, core::PrivacyProfile profile,
    core::Algorithm algorithm, KeyProvider key_provider,
    const core::ContinuousOptions& options, double /*now_s*/,
    std::uint64_t owner) {
  RCLOAK_ASSIGN_OR_RETURN(const auto tracked,
                          TrackFresh(user_id, profile, algorithm,
                                     std::move(key_provider), options,
                                     owner));
  if (tracked.second) return tracked.first;
  return Status::FailedPrecondition("track: user already tracked: " +
                                    std::string(user_id));
}

StatusOr<util::UserId> ContinuousSessionPool::FindOrTrack(
    std::string_view user_id, const core::PrivacyProfile& profile,
    core::Algorithm algorithm, const KeyProviderFactory& keys,
    const core::ContinuousOptions& options, std::uint64_t owner) {
  const util::UserId known = interner_.Find(user_id);
  if (StateOf(known) != UserState::kUntracked) return known;
  const KeyProviderFactory& factory =
      options_.key_provider_factory ? options_.key_provider_factory : keys;
  RCLOAK_ASSIGN_OR_RETURN(const auto tracked,
                          TrackFresh(user_id, profile, algorithm,
                                     factory(user_id), options, owner));
  return tracked.first;
}

StatusOr<util::UserId> ContinuousSessionPool::UserIdOf(
    std::string_view user_id) const {
  const util::UserId id = interner_.Find(user_id);
  if (!id.valid()) {
    return Status::NotFound("untracked user: " + std::string(user_id));
  }
  return id;
}

// ---- cold tier ------------------------------------------------------------

Status ContinuousSessionPool::AttachSpillFile(const std::string& path) {
  if (spill_ != nullptr) {
    return Status::FailedPrecondition("spill file already attached");
  }
  RCLOAK_ASSIGN_OR_RETURN(
      spill_, store::SpillFile::Attach(
                  path, server_->engine().context()->fingerprint(), interner_));
  return Status::Ok();
}

ContinuousSessionPool::UserState ContinuousSessionPool::StateOf(
    util::UserId user) const {
  if (!user.valid()) return UserState::kUntracked;
  const Shard& shard = *shards_[ShardIndexFor(user)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.sessions.Find(user) != nullptr) return UserState::kResident;
  }
  if (spill_ != nullptr && spill_->Contains(user)) return UserState::kSpilled;
  return UserState::kUntracked;
}

StatusOr<ContinuousSessionPool::UserState> ContinuousSessionPool::StateOf(
    util::UserId user, std::uint64_t principal) const {
  if (!user.valid()) return UserState::kUntracked;
  const Shard& shard = *shards_[ShardIndexFor(user)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (const Session* session = shard.sessions.Find(user)) {
      if (OwnedByOther(session->owner, principal)) {
        return Status::PermissionDenied(
            "user is owned by a different principal");
      }
      return UserState::kResident;
    }
  }
  const auto owner = ReadSpilledOwner(user);
  if (!owner.ok()) {
    if (owner.status().code() == ErrorCode::kNotFound) {
      return UserState::kUntracked;
    }
    return owner.status();
  }
  if (OwnedByOther(*owner, principal)) {
    return Status::PermissionDenied("user is owned by a different principal");
  }
  return UserState::kSpilled;
}

StatusOr<std::uint64_t> ContinuousSessionPool::ReadSpilledOwner(
    util::UserId user, Bytes* state) const {
  if (spill_ == nullptr) return Status::NotFound("no spill file attached");
  RCLOAK_ASSIGN_OR_RETURN(Bytes record, spill_->ReadRecord(user));
  RCLOAK_ASSIGN_OR_RETURN(const std::uint64_t owner,
                          store::SpillOwnerOf(record));
  if (state != nullptr) *state = std::move(record);
  return owner;
}

StatusOr<ContinuousSessionPool::Session>
ContinuousSessionPool::RestoreFromSpill(util::UserId user,
                                        std::uint64_t principal,
                                        bool enforce_owner) {
  Stopwatch timer;
  Bytes state;
  RCLOAK_ASSIGN_OR_RETURN(const std::uint64_t owner,
                          ReadSpilledOwner(user, &state));
  // Ownership gate, before the policy is parsed: a record carrying a
  // different principal's owner is never adopted into this caller's batch —
  // the spilled state stays put.
  if (enforce_owner && OwnedByOther(owner, principal)) {
    return Status::PermissionDenied(
        "user is owned by a different principal: " +
        interner_.NameCopyOf(user));
  }
  std::size_t offset = 0;
  RCLOAK_ASSIGN_OR_RETURN(const store::SpillHead head,
                          store::ParseSpillHead(state, &offset));
  const std::string name = interner_.NameCopyOf(user);
  RCLOAK_ASSIGN_OR_RETURN(
      ContinuousPolicy policy,
      ContinuousPolicy::Deserialize(name, state, offset,
                                    server_->engine().network()));
  // The factory is the only key source for files attached cross-run; a
  // provider parked at budget-spill time is taken at the insert.
  Session session(std::move(policy), options_.key_provider_factory
                                         ? options_.key_provider_factory(name)
                                         : KeyProvider());
  session.owner = head.owner;
  session.last_segment = roadnet::SegmentId{head.last_segment};
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    restore_latency_ms_.Add(timer.ElapsedMillis());
  }
  return session;
}

StatusOr<std::pair<ContinuousSessionPool::Session*, bool>>
ContinuousSessionPool::InsertRestoredLocked(Shard& shard, util::UserId id,
                                            StatusOr<Session> restored) {
  if (Session* resident = shard.sessions.Find(id)) {
    return std::make_pair(resident, false);
  }
  if (!restored.ok()) {
    const ErrorCode code = restored.status().code();
    if (code != ErrorCode::kNotFound && code != ErrorCode::kPermissionDenied) {
      ++shard.restore_failures;  // the record rotted
    }
    return restored.status();
  }
  if (!restored->key_provider) {
    KeyProvider* parked = shard.parked_keys.Find(id);
    if (parked == nullptr) {
      ++shard.restore_failures;
      return Status::FailedPrecondition("restore: no key source");
    }
    restored->key_provider = std::move(*parked);
    shard.parked_keys.Erase(id);
  }
  spill_->Erase(id);  // the restored session supersedes its record
  ++shard.restored;
  return std::make_pair(InsertLocked(shard, id, std::move(*restored)), true);
}

Status ContinuousSessionPool::SpillVictimsLocked(
    Shard& shard, const std::vector<util::UserId>& victims) {
  std::vector<store::SpillFile::Record> batch;
  batch.reserve(victims.size());
  for (const util::UserId id : victims) {
    const Session& session = *shard.sessions.Find(id);
    Bytes state;
    store::PutSpillHead(state,
                        {session.owner, roadnet::Index(session.last_segment)});
    session.policy.Serialize(state);
    batch.push_back({id, std::move(state)});
  }
  RCLOAK_RETURN_IF_ERROR(spill_->AppendBatch(batch));
  for (const util::UserId id : victims) {
    Session* session = shard.sessions.Find(id);
    if (!options_.key_provider_factory) {
      shard.parked_keys.TryEmplace(id, std::move(session->key_provider));
    }
    shard.OccupancyRemove(session->last_segment);
    shard.resident_bytes -= session->mem_bytes;
    shard.sessions.Erase(id);
    ++shard.spilled;
  }
  return Status::Ok();
}

std::size_t ContinuousSessionPool::SweepStep(std::size_t quota) {
  const std::size_t shard_index =
      sweep_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::vector<util::UserId> victims;
  const std::size_t visited = shard.sessions.SweepFrom(
      &shard.clock_hand, quota, [&](util::UserId id, Session& session) {
        // Its commit must find it: the fresh epoch is in flight.
        if (session.recloak_pending) return false;
        if (session.referenced) {
          // Second chance: touched since the last lap.
          session.referenced = false;
          return false;
        }
        victims.push_back(id);
        return false;  // unlinked below, only once the append landed
      });
  if (victims.empty()) return visited;
  if (SpillVictimsLocked(shard, victims).ok()) {
    shard.budget_spilled += victims.size();
  } else {
    // The sessions simply stay resident; the budget stays exceeded and the
    // next sweep retries.
    ++shard.write_stalls;
  }
  return visited;
}

void ContinuousSessionPool::MaybeSweep() {
  if (spill_ == nullptr) return;
  const std::size_t budget =
      memory_budget_bytes_.load(std::memory_order_relaxed);
  if (budget == 0 || memory_bytes() <= budget) return;
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t quota = options_.sweep_batch > 0 ? options_.sweep_batch
                                                     : std::size_t{256};
  // Two laps over the clock at most: lap one clears referenced bits, lap
  // two spills. If the resident floor (everything touched this tick) still
  // exceeds the budget after that, yield to the next batch.
  std::size_t allowance = 2 * (session_count() + shards_.size());
  while (allowance > 0 && memory_bytes() > budget) {
    const std::size_t visited = SweepStep(quota);
    allowance -= std::min(allowance, std::max<std::size_t>(visited, 1));
  }
}

Status ContinuousSessionPool::CompactColdTier() {
  if (spill_ == nullptr) {
    return Status::FailedPrecondition("no spill file attached");
  }
  return spill_->Compact();
}

StatusOr<std::size_t> ContinuousSessionPool::SpillAllToFile() {
  if (spill_ == nullptr) {
    return Status::FailedPrecondition("no spill file attached");
  }
  std::size_t written = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::vector<util::UserId> victims;
    shard.sessions.ForEach(
        [&](util::UserId id, Session&) { victims.push_back(id); });
    if (victims.empty()) continue;
    RCLOAK_RETURN_IF_ERROR(SpillVictimsLocked(shard, victims));
    written += victims.size();
  }
  return written;
}

StatusOr<std::size_t> ContinuousSessionPool::RestoreAllFromFile() {
  if (spill_ == nullptr) {
    return Status::FailedPrecondition("no spill file attached");
  }
  std::size_t restored = 0;
  for (const util::UserId user : spill_->LiveUsers()) {
    // Warm-boot tooling restores every record regardless of owner (the
    // record's owner survives onto the session, so the ownership gate
    // still holds for subsequent updates).
    auto session = RestoreFromSpill(user, /*principal=*/0,
                                    /*enforce_owner=*/false);
    Shard& shard = *shards_[ShardIndexFor(user)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto resident =
        InsertRestoredLocked(shard, user, std::move(session));
    if (resident.ok() && resident->second) ++restored;
  }
  return restored;
}

StatusOr<std::size_t> ContinuousSessionPool::OwnedSpillRecords() const {
  if (spill_ == nullptr) {
    return Status::FailedPrecondition("no spill file attached");
  }
  std::size_t owned = 0;
  for (const util::UserId user : spill_->LiveUsers()) {
    const auto owner = ReadSpilledOwner(user);
    if (!owner.ok()) {
      if (owner.status().code() == ErrorCode::kNotFound) continue;
      return owner.status();
    }
    if (*owner != 0) ++owned;
  }
  return owned;
}

std::size_t ContinuousSessionPool::memory_bytes() const {
  // std::function storage for a parked provider, approximate.
  constexpr std::size_t kParkedProviderBytes = 64;
  std::size_t total = interner_.memory_bytes();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->resident_bytes;
    total += shard->sessions.memory_bytes();
    total += shard->parked_keys.memory_bytes() +
             shard->parked_keys.size() * kParkedProviderBytes;
    total += shard->occupancy.capacity() * sizeof(std::uint32_t);
  }
  if (spill_ != nullptr) total += spill_->index_bytes();
  return total;
}

// ---- update path ----------------------------------------------------------

ContinuousSessionPool::BatchResults::BatchResults(std::size_t count)
    : results_(count, Status::Internal("batch update not visited")),
      final_(count, 0) {}

void ContinuousSessionPool::BatchResults::Set(
    std::size_t i, StatusOr<core::SharedEncodedArtifact> result) {
  results_[i] = std::move(result);
  final_[i] = 1;
}

void ContinuousSessionPool::BatchResults::Emit(const ResultSink& sink) {
  const std::size_t first = emitted_;
  while (emitted_ < final_.size() && final_[emitted_] != 0) ++emitted_;
  if (emitted_ == first) return;
  sink(first, std::span<const StatusOr<core::SharedEncodedArtifact>>(
                  results_.data() + first, emitted_ - first));
}

void ContinuousSessionPool::RunRound(
    const std::vector<IdPositionUpdate>& updates,
    const std::vector<std::size_t>& round, BatchResults& results,
    const ResultSink& sink) {
  // ---- phase 1: classify under the shard locks; no engine work ----------
  std::vector<PendingRecloak> pending;
  std::vector<AnonymizationServer::BatchJob> jobs;
  // Requires the shard lock. Returns true when the engine must cut a
  // fresh artifact for this update.
  const auto classify = [&](Shard& shard, std::size_t shard_index,
                            Session& session, std::size_t idx,
                            const IdPositionUpdate& update,
                            PendingRecloak& recloak,
                            core::AnonymizeRequest& request) -> bool {
    session.referenced = true;  // second chance for the next clock lap
    shard.OccupancyRemove(session.last_segment);
    session.last_segment = update.segment;
    shard.OccupancyAdd(update.segment);
    switch (session.policy.OnUpdate(update.now_s, update.segment)) {
      case ContinuousPolicy::Action::kServe:
        ++shard.served_in_region;
        // Refcount bump only — the in-region path allocates nothing.
        results.Set(idx, session.policy.encoded());
        return false;
      case ContinuousPolicy::Action::kServeStale:
        ++shard.throttled_stale;
        results.Set(idx, session.policy.encoded());
        return false;
      case ContinuousPolicy::Action::kRecloak:
        recloak.update_index = idx;
        recloak.user = update.user;
        recloak.shard = shard_index;
        recloak.epoch = session.policy.next_epoch();
        recloak.validity_level = session.policy.validity_level();
        recloak.profile = session.policy.profile();
        request.origin = update.segment;
        request.profile = recloak.profile;
        request.algorithm = session.policy.algorithm();
        request.context = session.policy.EpochContext(recloak.epoch);
        // The outermost level is the published region itself.
        if (recloak.validity_level < recloak.profile.num_levels()) {
          request.sealed_level = recloak.validity_level;
        }
        session.recloak_pending = true;
        // Copied so the user-supplied provider runs OUTSIDE the shard
        // lock, on the server worker that runs the job: it may be slow
        // (KMS round-trips) or call back into the pool, and either must
        // not stall or deadlock the shard.
        recloak.provider = session.key_provider;
        return true;
    }
    return false;
  };
  for (const std::size_t idx : round) {
    const IdPositionUpdate& update = updates[idx];
    const std::size_t shard_index = ShardIndexFor(update.user);
    Shard& shard = *shards_[shard_index];
    PendingRecloak recloak;
    core::AnonymizeRequest request;
    bool needs_recloak = false;
    // Requires the shard lock. Ownership gate first, with the session in
    // hand: an owned session only moves for its principal; an unowned one
    // is claimed by the first authenticated principal that updates it (the
    // open-mode -> auth-mode migration path). Then classify.
    const auto admit = [&](Session& session) {
      if (OwnedByOther(session.owner, update.principal)) {
        ++shard.ownership_rejected;
        results.Set(idx, Status::PermissionDenied(
                             "user is owned by a different principal: " +
                             interner_.NameCopyOf(update.user)));
        return;
      }
      if (session.owner == 0 && update.principal != 0) {
        session.owner = update.principal;
      }
      needs_recloak = classify(shard, shard_index, session, idx, update,
                               recloak, request);
    };
    bool missing = false;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      ++shard.updates;
      Session* session = shard.sessions.Find(update.user);
      missing = session == nullptr;
      if (!missing) admit(*session);
    }
    if (missing) {
      // The cold-tier fast path: an update for a spilled user reads the
      // record back and deserializes it with no shard lock held, then
      // proceeds in the SAME batch — no NotFound, byte-identical to a
      // session that never left memory. Insert, owner gate and classify
      // share one critical section, and classify sets the referenced bit
      // before the lock drops, so no concurrent sweep can re-spill the
      // session in between. A session that raced back in meanwhile wins
      // (and is re-gated: it may belong to someone else); ours is dropped.
      auto restored = RestoreFromSpill(update.user, update.principal,
                                       /*enforce_owner=*/true);
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto resident =
          InsertRestoredLocked(shard, update.user, std::move(restored));
      if (!resident.ok()) {
        // A miss is NotFound. A refused or failed restore answers as
        // itself, and its record stays: a failed one locks the user out.
        const ErrorCode code = resident.status().code();
        if (code == ErrorCode::kPermissionDenied) ++shard.ownership_rejected;
        if (code == ErrorCode::kNotFound) {
          ++shard.unknown_user;
          results.Set(idx, Status::NotFound("untracked user: " +
                                            interner_.NameCopyOf(update.user)));
        } else {
          results.Set(idx, resident.status());
        }
        continue;
      }
      if (resident->second) ++shard.restored_on_miss;
      admit(*resident->first);
    }
    if (!needs_recloak) continue;
    jobs.push_back({std::move(request), {recloak.provider, recloak.epoch}});
    pending.push_back(std::move(recloak));
  }
  if (pending.empty()) {
    results.Emit(sink);
    return;
  }

  // ---- phase 2: one server round for every region exit; each finished
  // prefix is committed under the shard locks and emitted as it comes,
  // the in-region results first, once the round is queued -------------------
  const auto commit = [&](std::size_t i,
                          StatusOr<core::AnonymizeResult>& result) {
    PendingRecloak& recloak = pending[i];
    const std::size_t idx = recloak.update_index;
    StatusOr<core::ValidityRegion> region =
        result.ok() ? ValidityRegionOf(recloak, *result)
                    : StatusOr<core::ValidityRegion>(result.status());
    Shard& shard = *shards_[recloak.shard];
    std::lock_guard<std::mutex> lock(shard.mutex);
    Session* session = shard.sessions.Find(recloak.user);
    if (session != nullptr) session->recloak_pending = false;
    if (!region.ok()) {
      ++shard.recloak_failures;
      results.Set(idx, region.status());
      return;
    }
    // One allocation, the worker's bytes beside the artifact, shared
    // between the serve result and the committed session state.
    auto artifact = std::make_shared<const core::EncodedArtifact>(
        core::EncodedArtifact{std::move(result->artifact),
                              std::move(result->wire)});
    results.Set(idx, artifact);
    // Gone only if SpillAllToFile spilled it meanwhile: the clock sweep
    // skips sessions with a re-cloak pending.
    if (session == nullptr) return;
    if (session->policy.next_epoch() != recloak.epoch) return;  // raced
    shard.resident_bytes -= session->mem_bytes;
    session->policy.CommitRecloak(updates[idx].now_s, std::move(artifact),
                                  std::move(region).value());
    session->mem_bytes = SessionFootprint(*session);
    shard.resident_bytes += session->mem_bytes;
    session->referenced = true;
    ++shard.recloaks;
  };
  server_->RunBatch(
      std::move(jobs),
      [&](std::size_t first,
          std::span<StatusOr<core::AnonymizeResult>> finished) {
        for (std::size_t i = 0; i < finished.size(); ++i) {
          commit(first + i, finished[i]);
        }
        results.Emit(sink);
      });
}

StatusOr<core::ValidityRegion> ContinuousSessionPool::ValidityRegionOf(
    const PendingRecloak& recloak, core::AnonymizeResult& result) const {
  if (recloak.validity_level == recloak.profile.num_levels()) {
    return core::ValidityRegion(result.artifact.region_segments);
  }
  if (!result.sealed_region.empty()) {
    return core::ValidityRegion(std::move(result.sealed_region));
  }
  // The backend sealed no inner region (it is not reversible): the keyed
  // reduce, under the chain re-derived here, reports why, exactly as the
  // single-user oracle does.
  RCLOAK_ASSIGN_OR_RETURN(
      const core::CloakRegion region,
      core::ComputeValidityRegion(
          core::Deanonymizer(server_->engine().context()), result.artifact,
          recloak.provider(recloak.epoch), recloak.profile,
          recloak.validity_level));
  return core::ValidityRegion(region.segments_by_id());
}

void ContinuousSessionPool::UpdateBatch(
    const std::vector<IdPositionUpdate>& updates, const ResultSink& sink) {
  BatchResults results(updates.size());
  std::vector<std::size_t> remaining;
  remaining.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (updates[i].user.valid()) {
      remaining.push_back(i);
      continue;
    }
    // Never-interned handle: there is no id shard to charge, so the
    // boundary charges the first shard.
    Shard& shard = *shards_.front();
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.updates;
    ++shard.unknown_user;
    results.Set(i, Status::NotFound("untracked user"));
  }

  // A round holds at most one update per user, preserving input order, so
  // a user's second update in a batch observes the first one's commit.
  while (!remaining.empty()) {
    std::vector<std::size_t> round;
    std::vector<std::size_t> deferred;
    std::unordered_set<std::uint32_t> users_in_round;
    for (const std::size_t idx : remaining) {
      if (users_in_round.insert(updates[idx].user.value).second) {
        round.push_back(idx);
      } else {
        deferred.push_back(idx);
      }
    }
    Stopwatch timer;
    RunRound(updates, round, results, sink);
    const double per_update_ms =
        round.empty() ? 0.0 : timer.ElapsedMillis() /
                                  static_cast<double>(round.size());
    {
      std::lock_guard<std::mutex> lock(latency_mutex_);
      for (std::size_t i = 0; i < round.size(); ++i) {
        update_latency_ms_.Add(per_update_ms);
      }
    }
    remaining = std::move(deferred);
  }
  results.Emit(sink);  // a batch of invalid handles runs no round
  MaybeSweep();
  // A failed compaction leaves the dead bytes for the next batch to retry.
  if (spill_ != nullptr) {
    (void)spill_->CompactIfDue(options_.spill_compact_dead_fraction);
  }
}

std::vector<StatusOr<ContinuousSessionPool::SharedArtifact>>
ContinuousSessionPool::UpdateBatch(
    const std::vector<IdPositionUpdate>& updates) {
  std::vector<StatusOr<SharedArtifact>> artifacts;
  artifacts.reserve(updates.size());
  using Results = std::span<const StatusOr<core::SharedEncodedArtifact>>;
  UpdateBatch(updates, [&artifacts](std::size_t, Results results) {
    for (const auto& result : results) {
      if (result.ok()) {
        artifacts.emplace_back(core::ArtifactOf(*result));
      } else {
        artifacts.emplace_back(result.status());
      }
    }
  });
  return artifacts;
}

mobility::OccupancySnapshot ContinuousSessionPool::BuildOccupancy() const {
  mobility::OccupancySnapshot occupancy(
      server_->engine().network().segment_count());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    occupancy.AddCounts(shard->occupancy);
  }
  return occupancy;
}

StatusOr<std::uint64_t> ContinuousSessionPool::UserEpoch(
    util::UserId user) const {
  if (!user.valid()) return Status::NotFound("untracked user");
  const Shard& shard = *shards_[ShardIndexFor(user)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const Session* session = shard.sessions.Find(user);
  if (session == nullptr) {
    return Status::NotFound("untracked user: " + interner_.NameCopyOf(user));
  }
  return session->policy.epoch();
}

StatusOr<std::uint64_t> ContinuousSessionPool::UserEpoch(
    std::string_view user_id) const {
  const util::UserId id = interner_.Find(user_id);
  if (!id.valid()) {
    return Status::NotFound("untracked user: " + std::string(user_id));
  }
  return UserEpoch(id);
}

StatusOr<core::ContinuousStats> ContinuousSessionPool::UserStats(
    std::string_view user_id) const {
  const util::UserId id = interner_.Find(user_id);
  if (!id.valid()) {
    return Status::NotFound("untracked user: " + std::string(user_id));
  }
  const Shard& shard = *shards_[ShardIndexFor(id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const Session* session = shard.sessions.Find(id);
  if (session == nullptr) {
    return Status::NotFound("untracked user: " + std::string(user_id));
  }
  return session->policy.stats();
}

std::size_t ContinuousSessionPool::session_count() const {
  std::size_t count = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    count += shard->sessions.size();
  }
  return count;
}

SessionPoolStats ContinuousSessionPool::stats() const {
  SessionPoolStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats += *shard;
    stats.active_sessions += shard->sessions.size();
  }
  stats.sweeps = sweeps_.load(std::memory_order_relaxed);
  stats.memory_bytes = memory_bytes();
  stats.interner_bytes = interner_.memory_bytes();
  if (spill_ != nullptr) {
    const store::SpillFileStats spill = spill_->stats();
    stats.spill_compactions = spill.compactions;
    stats.spill_file_bytes = spill.file_bytes;
    stats.spill_dead_bytes = spill.dead_bytes;
    stats.spill_live_records = spill.live_records;
  }
  std::lock_guard<std::mutex> lock(latency_mutex_);
  stats.update_latency_ms = update_latency_ms_;
  stats.restore_latency_ms = restore_latency_ms_;
  return stats;
}

}  // namespace rcloak::server
