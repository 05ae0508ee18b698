// Continuous session pool: server-side fleet tracking over the
// anonymization server.
//
// One pool owns the core::ContinuousPolicy state of up to millions of
// moving users. User-id strings are interned once, at Track, into stable
// 32-bit UserId handles (util::StringInterner); updates carry the handle
// (IdPositionUpdate) and sessions live in per-shard open-addressed id
// tables (own mutex each), so the steady-state in-region update path does
// no allocation, no string hashing and no string compares — integer probes
// only. A position update that stays inside the user's validity region resolves
// entirely in its shard — policy check plus artifact copy, the engine is
// never touched.
//
// Region exits batch into one AnonymizationServer::RunBatch round of
// re-cloaks (one queue lock, no promise per job) and are committed back
// under the shard locks as each finished prefix of the round comes in,
// while the later jobs still run. Each job carries its session's key
// provider and epoch, so the server worker that runs it derives the key
// chain, and that worker encodes the artifact it cut: a session keeps its
// artifact in force together with those bytes (core::EncodedArtifact), so
// an artifact is encoded once however often it is served. Results go to
// the caller's sink in input order as they become final, so the front
// door can send a round's first replies before its last re-cloak is cut.
// Each re-cloak asks the anonymizer for
// its validity level's region as that level is sealed
// (AnonymizeRequest::sealed_level), so the pool never replays a fresh
// artifact through the keyed Deanonymizer::Reduce: the anonymizer already
// holds every inner region, the keyed peel is for data requesters.
//
// Determinism: artifacts are a pure function of (request, keys, map,
// occupancy epoch) and every policy decision is a pure function of the
// user's own update sequence, so per-user artifact sequences are
// byte-identical to the single-user core::ContinuousCloak oracle and
// independent of the server's worker count and of which worker ran each
// re-cloak; the oracle derives validity regions with the keyed reduce, so
// these pins check both routes (tests/session_pool_test.cc, by SHA-256).
// Updates for one user must be fed in order (one UpdateBatch round never
// reorders them; batches containing several updates for one user are
// split into ordered rounds).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/continuous.h"
#include "server/anonymization_server.h"
#include "store/spill_file.h"
#include "util/interner.h"
#include "util/stats.h"

namespace rcloak::server {

using KeyProviderFactory =
    std::function<core::ContinuousCloak::KeyProvider(std::string_view user)>;

struct SessionPoolOptions {
  // Session shards (<= 0: one per server worker). Sessions shard by user
  // id; the server's jobs share one queue.
  int num_shards = 0;

  // ---- cold tier (active once AttachSpillFile succeeds) ------------------
  // Soft budget over resident session state, session tables, interned
  // names, parked key providers and the spill index (see memory_bytes());
  // 0 = unlimited. When a spill file is attached and the accounting passes
  // the budget, a clock/second-chance sweep runs incrementally from the
  // update path, batch-spilling cold sessions to the file.
  std::size_t memory_budget_bytes = 0;
  // Sessions examined per clock-sweep step (one shard visit each).
  std::size_t sweep_batch = 256;
  // Spill-file compaction triggers after a batch once dead bytes exceed
  // this fraction of the file and the file holds at least 1 MiB.
  double spill_compact_dead_fraction = 0.5;
  // Re-derives the key schedule for sessions restored on miss. When set,
  // budget spills do not park providers in memory (the factory is the
  // source of truth — required for spill files attached from an earlier
  // run); when unset, the spilled session's provider is parked until the
  // user returns.
  KeyProviderFactory key_provider_factory;
};

// The pool's event counters, each a std::uint64_t (operator+= relies on
// it). Each shard keeps one set under its mutex; stats() sums them.
struct SessionCounters {
  std::uint64_t updates = 0;
  std::uint64_t served_in_region = 0;  // resolved without the engine
  std::uint64_t throttled_stale = 0;
  std::uint64_t recloaks = 0;
  std::uint64_t recloak_failures = 0;
  std::uint64_t unknown_user = 0;
  // Updates (and restore-on-miss adoptions) refused because the session is
  // owned by a different principal.
  std::uint64_t ownership_rejected = 0;
  // Sessions written to / read back from the spill file. A spilled
  // session's per-user statistics travel in its record.
  std::uint64_t spilled = 0;
  std::uint64_t restored = 0;
  // ---- cold tier ---------------------------------------------------------
  // Subset of `spilled` written to the spill file by the clock sweep.
  std::uint64_t budget_spilled = 0;
  // Subset of `restored` resolved transparently inside UpdateBatch.
  std::uint64_t restored_on_miss = 0;
  // Spilled records that could not come back (rotted on disk, no key
  // source). The update gets the restore's own status; the record stays,
  // locking the user out (a fresh track would reuse contexts): a rotten
  // record until compaction drops it, a record with no key source for good.
  // A restore that loses to a concurrent restore of the same user serves
  // the session that went in and counts nothing.
  std::uint64_t restore_failures = 0;
  // Sweep batches whose spill append failed, so their victims stayed
  // resident (the budget stays exceeded and the next sweep retries).
  std::uint64_t write_stalls = 0;

  SessionCounters& operator+=(const SessionCounters& other);
};

struct SessionPoolStats : SessionCounters {
  // Compatibility field, always 0: validity regions come from the
  // anonymizer, so the pool has no reduce to fan out. Kept because
  // perfbench reports it.
  std::uint64_t reduce_fanouts = 0;
  std::size_t active_sessions = 0;
  // Wall time per update, batch-amortized (one sample per update, each
  // carrying its round's mean).
  Samples update_latency_ms;

  // ---- cold tier ---------------------------------------------------------
  std::uint64_t sweeps = 0;             // MaybeSweep passes that ran
  std::uint64_t spill_compactions = 0;  // the spill file's compactions
  // Accounting at call time: the budgeted total and its parts.
  std::size_t memory_bytes = 0;
  std::size_t interner_bytes = 0;
  std::uint64_t spill_file_bytes = 0;
  std::uint64_t spill_dead_bytes = 0;
  std::size_t spill_live_records = 0;
  // Wall time of each restore (read + validate + deserialize), on miss and
  // by RestoreAllFromFile alike.
  Samples restore_latency_ms;
};

class ContinuousSessionPool {
 public:
  using KeyProvider = core::ContinuousCloak::KeyProvider;
  // Artifacts are served as refcounted immutable references: the steady-
  // state in-region path never deep-copies level records or segment lists
  // (and so never allocates). Callers needing an owned copy dereference.
  using SharedArtifact = std::shared_ptr<const core::CloakedArtifact>;
  // Receives results [first, first + results.size()) of an UpdateBatch
  // call, each final: the artifact in force with its bytes, or the error.
  using ResultSink = std::function<void(
      std::size_t first,
      std::span<const StatusOr<core::SharedEncodedArtifact>> results)>;

  // One position update, keyed by the UserId handle Track or FindOrTrack
  // returned (or UserIdOf looks up once).
  struct IdPositionUpdate {
    util::UserId user;
    double now_s = 0.0;
    roadnet::SegmentId segment = roadnet::kInvalidSegment;
    // Ownership token of the caller (net::PrincipalToken); 0 = open-mode
    // caller. An update for a session owned by a different principal is
    // refused with kPermissionDenied (and an unowned session is claimed by
    // the first non-zero principal that drives it).
    std::uint64_t principal = 0;
  };

  // The server must outlive the pool.
  explicit ContinuousSessionPool(AnonymizationServer& server,
                                 const SessionPoolOptions& options = {});

  ContinuousSessionPool(const ContinuousSessionPool&) = delete;
  ContinuousSessionPool& operator=(const ContinuousSessionPool&) = delete;

  // Registers a user session and returns its stable id handle. Fails with
  // kFailedPrecondition if the user is resident or live in the spill file
  // (a fresh session would restart its epoch chain). `now_s` is unused: a
  // session keeps no clock of its own (each update carries its time); the
  // parameter stays for existing callers. `owner` binds the session to an
  // authenticated principal (net::PrincipalToken): updates and adoptions
  // under a different principal are refused with kPermissionDenied; 0
  // (default) leaves the session unowned — any caller may drive it, and
  // the first non-zero principal to update it claims it.
  StatusOr<util::UserId> Track(std::string_view user_id,
                               core::PrivacyProfile profile,
                               core::Algorithm algorithm,
                               KeyProvider key_provider,
                               const core::ContinuousOptions& options = {},
                               double now_s = 0.0,
                               std::uint64_t owner = 0);

  // The handle of a resident or spilled user; otherwise tracks the user as
  // Track does. The new session's keys come from the pool's
  // key_provider_factory, the schedule its restores use, or else from
  // `keys`. Callers racing to first-sight one user all get the handle of
  // the one session that went in; UpdateBatch checks its owner.
  StatusOr<util::UserId> FindOrTrack(std::string_view user_id,
                                     const core::PrivacyProfile& profile,
                                     core::Algorithm algorithm,
                                     const KeyProviderFactory& keys,
                                     const core::ContinuousOptions& options,
                                     std::uint64_t owner);

  // The id handle for a user known to this pool; kNotFound otherwise.
  // Handles are never recycled: a tracked user stays resident or spilled
  // for the life of the pool and its spill file, because a user that
  // started over would restart its epoch chain and reuse request contexts.
  StatusOr<util::UserId> UserIdOf(std::string_view user_id) const;

  // ---- cold tier ---------------------------------------------------------
  // A spill record holds a session's complete policy state — epoch chain,
  // artifact in force, validity region, clocks, statistics — so a restore
  // resumes it bit-for-bit (the artifact sequence continues exactly as if
  // the session never left; pinned against the oracle in
  // tests/session_pool_test.cc).

  enum class UserState : std::uint8_t { kUntracked, kResident, kSpilled };

  // Creates or opens the spill file at `path` and activates the cold tier:
  // budget-driven clock sweeps spill into it, and an update for a
  // spilled user restores transparently inside UpdateBatch. An existing
  // file must carry this pool's map fingerprint; its records' names are
  // re-interned so spilled users keep resolvable handles across runs
  // (restore-on-miss then needs options.key_provider_factory). At most one
  // file per pool; attach before concurrent use (nothing guards spill_
  // against a concurrent reader).
  Status AttachSpillFile(const std::string& path);

  // Resident / spilled / untracked, for one handle. A swept victim is in
  // the file before it leaves its shard.
  UserState StateOf(util::UserId user) const;

  // Compatibility: no caller in the library; kept because perfbench times
  // it. Same classification, but a resident session or spill record owned
  // by a different principal returns kPermissionDenied instead of a state.
  StatusOr<UserState> StateOf(util::UserId user,
                              std::uint64_t principal) const;

  // How many live spill records carry a non-zero owner token. Tooling
  // gate: serving an owner-bound file in open mode would let any client
  // adopt those sessions, so `rcloak_tool serve --spill` refuses when this
  // is > 0 and no secret is configured.
  StatusOr<std::size_t> OwnedSpillRecords() const;

  // Writes every resident session to the spill file regardless of budget
  // (tooling, shutdown persistence); returns how many were written.
  StatusOr<std::size_t> SpillAllToFile();

  // Restores every live spill-file record into a resident session (warm
  // boot for `rcloak_tool restore`); returns how many came back. Records
  // that fail (no key source, rot) are counted in restore_failures and
  // skipped.
  StatusOr<std::size_t> RestoreAllFromFile();

  // Compacts the spill file (rewriting live records, truncating dead
  // bytes). Runs automatically after an UpdateBatch when
  // SpillFile::CompactIfDue finds it due; public for tools and tests.
  // Takes no pool lock: the spill file's own mutex orders the rewrite
  // against appends and reads.
  Status CompactColdTier();

  // The budgeted accounting: resident session state + session tables +
  // occupancy vectors + parked key providers + interner + spill index. A
  // deliberate over-estimate (sweeps start early, never late).
  std::size_t memory_bytes() const;
  // Re-targets the clock sweep at runtime (bench calibration, ops).
  void set_memory_budget_bytes(std::size_t bytes) noexcept {
    memory_budget_bytes_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t memory_budget_bytes() const noexcept {
    return memory_budget_bytes_.load(std::memory_order_relaxed);
  }
  // Null until AttachSpillFile succeeds. The plural name is kept for
  // compatibility: perfbench calls it.
  const store::SpillFile* spill_files() const noexcept {
    return spill_.get();
  }

  // The update path: classifies every update under its shard lock,
  // re-cloaks all region exits in one server round (each sealing its own
  // validity region), and commits them as the round's finished prefixes
  // come in. Result i is the artifact in force for updates[i] (freshly
  // re-cloaked if the user left its validity region) with its bytes,
  // served as a shared reference; an invalid or unknown handle is
  // kNotFound. `sink` gets every result once, in input order, as soon as
  // it and all before it are final: an update served in region goes out
  // once its round's re-cloaks are queued, a re-cloak once its prefix of
  // the round is committed. The sink runs on the calling thread with no
  // pool or server lock held (it may call back into the pool, but not
  // UpdateBatch for the same users). After the last result has gone, the
  // call runs the clock sweep and, when due, compacts the spill file.
  void UpdateBatch(const std::vector<IdPositionUpdate>& updates,
                   const ResultSink& sink);
  // The same, collected: element i is result i, as the artifact alone.
  std::vector<StatusOr<SharedArtifact>> UpdateBatch(
      const std::vector<IdPositionUpdate>& updates);

  // Occupancy from the fleet itself: one user counted on each tracked
  // session's last reported segment (sessions that never updated are
  // skipped). Feed it to AnonymizationServer::SetOccupancy between ticks
  // so k-anonymity counts the actual fleet instead of a static snapshot.
  //
  // O(shards x segments): folds the per-shard count vectors that every
  // last_segment mutation maintains incrementally — no session iteration,
  // so the between-tick refresh cost no longer grows with the fleet.
  mobility::OccupancySnapshot BuildOccupancy() const;

  // Per-user introspection (tests, monitoring).
  StatusOr<std::uint64_t> UserEpoch(std::string_view user_id) const;
  StatusOr<std::uint64_t> UserEpoch(util::UserId user) const;
  StatusOr<core::ContinuousStats> UserStats(std::string_view user_id) const;

  std::size_t session_count() const;
  // Aggregated over all shards (active_sessions filled at call time).
  SessionPoolStats stats() const;

  int num_shards() const noexcept { return static_cast<int>(shards_.size()); }

  // The server this pool cloaks through (shared MapContext, occupancy
  // publication). Callers layering on top of the pool — the network front
  // door needs the map fingerprint and a context-sharing Deanonymizer —
  // reach the engine through here instead of threading a second reference.
  AnonymizationServer& server() const noexcept { return *server_; }

 private:
  struct Session {
    Session(core::ContinuousPolicy policy, KeyProvider keys)
        : policy(std::move(policy)), key_provider(std::move(keys)) {}
    core::ContinuousPolicy policy;
    KeyProvider key_provider;
    // Principal that owns this session (0 = unowned). Bound at Track time,
    // carried through spill records, claimed by the first non-zero
    // principal to update an unowned session.
    std::uint64_t owner = 0;
    // Last reported position (BuildOccupancy); invalid until the first
    // update lands.
    roadnet::SegmentId last_segment = roadnet::kInvalidSegment;
    // Second-chance bit: set on every touch, cleared by one clock pass, so
    // a session updated since the last sweep lap is never spilled.
    bool referenced = true;
    // Set from a re-cloak's classify to its commit (success or failure);
    // the clock sweep skips such a session, so no concurrent sweep can make
    // the commit drop its fresh epoch.
    bool recloak_pending = false;
    // Cached footprint (SessionFootprint at last commit), so the sweep's
    // budget check never re-walks artifact internals.
    std::size_t mem_bytes = 0;
  };

  // The shard's counters are its SessionCounters base, under `mutex`.
  struct Shard : SessionCounters {
    mutable std::mutex mutex;
    util::IdMap<Session> sessions;
    // Sum of Session::mem_bytes over this shard (under `mutex`).
    std::size_t resident_bytes = 0;
    // Clock-sweep cursor into `sessions` (slot index; wraps).
    std::size_t clock_hand = 0;
    // Key providers of budget-spilled sessions, parked so restore-on-miss
    // can resume them. Empty when options.key_provider_factory is set.
    util::IdMap<KeyProvider> parked_keys;

    // Per-segment user counts over THIS shard's sessions (one entry per
    // network segment, sized at pool construction). Maintained under
    // `mutex` at every last_segment mutation; BuildOccupancy folds the
    // shard vectors instead of walking every session. Out-of-range ids
    // (kInvalidSegment, hostile wire input) are ignored by the helpers.
    std::vector<std::uint32_t> occupancy;

    void OccupancyAdd(roadnet::SegmentId segment) {
      const std::size_t index = roadnet::Index(segment);
      if (index < occupancy.size()) ++occupancy[index];
    }
    void OccupancyRemove(roadnet::SegmentId segment) {
      const std::size_t index = roadnet::Index(segment);
      if (index < occupancy.size() && occupancy[index] > 0) {
        --occupancy[index];
      }
    }
  };

  // A round-member re-cloak in flight between the classify and commit
  // phases. Its job carries a copy of `provider` and `epoch`, so the
  // server worker derives the key chain; the commit calls `provider` again
  // only for a backend that seals no validity region.
  struct PendingRecloak {
    std::size_t update_index = 0;
    util::UserId user;
    std::size_t shard = 0;
    std::uint64_t epoch = 0;
    int validity_level = 0;
    core::PrivacyProfile profile;
    KeyProvider provider;
  };

  std::size_t ShardIndexFor(util::UserId user) const noexcept {
    return util::MixId(user.value) % shards_.size();
  }

  // Requires shard.mutex and no session resident under `id`. Inserts
  // `session` there, charging the memory accounting and the occupancy.
  Session* InsertLocked(Shard& shard, util::UserId id, Session session);

  // The insert path of Track and FindOrTrack: builds the session outside
  // every lock and inserts it through InsertLocked unless the user is
  // resident or live in the spill file. A fresh session's provider replaces
  // any parked one. Returns the handle and whether the session went in.
  StatusOr<std::pair<util::UserId, bool>> TrackFresh(
      std::string_view user_id, const core::PrivacyProfile& profile,
      core::Algorithm algorithm, KeyProvider key_provider,
      const core::ContinuousOptions& options, std::uint64_t owner);

  // One UpdateBatch call's results. Set makes result i final; Emit hands
  // the sink every final result past the cursor, up to the first one
  // still open, so the sink sees input order.
  class BatchResults {
   public:
    explicit BatchResults(std::size_t count);
    void Set(std::size_t i, StatusOr<core::SharedEncodedArtifact> result);
    void Emit(const ResultSink& sink);

   private:
    std::vector<StatusOr<core::SharedEncodedArtifact>> results_;
    std::vector<char> final_;
    std::size_t emitted_ = 0;
  };

  // Runs one round (at most one update per user) end to end: classify,
  // batch re-cloak, commit, each finished prefix of the round committed
  // and emitted while the rest of the round runs.
  void RunRound(const std::vector<IdPositionUpdate>& updates,
                const std::vector<std::size_t>& round, BatchResults& results,
                const ResultSink& sink);

  // A successful re-cloak's validity region: the published region at the
  // outermost level, else the one the anonymizer sealed (moved out of
  // `result`). A backend that seals none (not reversible) gets the keyed
  // reduce, which fails exactly as the single-user oracle's does.
  StatusOr<core::ValidityRegion> ValidityRegionOf(
      const PendingRecloak& recloak, core::AnonymizeResult& result) const;

  // ---- cold tier internals ---------------------------------------------
  // Lock order: shard.mutex -> spill file mutex -> interner mutex.

  // Heap behind one session: the policy state (artifact, region, stats)
  // plus provider storage. The struct itself rides in the shard table.
  static std::size_t SessionFootprint(const Session& session);

  // The cold tier's one owner read: the owner at the head of `user`'s live
  // spill record, whose state bytes go to `*state` when it is given.
  // NotFound when no record is live, DataLoss when it rotted or its owner
  // is cut.
  StatusOr<std::uint64_t> ReadSpilledOwner(util::UserId user,
                                           Bytes* state = nullptr) const;

  // Reads, gates and deserializes one spill record with no lock held:
  // policy, clocks, owner and the key factory's provider, if any. NotFound
  // is a miss; PermissionDenied a record owned by a different principal
  // (`enforce_owner` false skips that gate: warm boot, which keeps the
  // owner on the session). Any other error is rot. The record stays.
  StatusOr<Session> RestoreFromSpill(util::UserId user,
                                     std::uint64_t principal,
                                     bool enforce_owner);

  // Requires shard.mutex. The insert step of both restore paths, and the
  // one place restore_failures is counted. A session already resident (a
  // concurrent restore won) is returned, not inserted, and nothing is
  // counted; else a failed restore returns its status (counted when it is
  // rot). The key source is chosen here: the factory's provider, else the
  // one parked at spill time, taken only by the insert; with neither,
  // FailedPrecondition, counted. Returns the resident session and whether
  // it is the restored one, which supersedes its record.
  StatusOr<std::pair<Session*, bool>> InsertRestoredLocked(
      Shard& shard, util::UserId id, StatusOr<Session> restored);

  // Clock/second-chance spilling until the accounting is back under
  // budget (bounded by two laps — every referenced bit gets one pass of
  // grace; if the resident floor is above budget the sweep yields).
  void MaybeSweep();
  // One clock step over the current sweep shard: visits up to `quota`
  // sessions, spilling the cold ones in one batched append. Returns
  // sessions visited.
  std::size_t SweepStep(std::size_t quota);
  // Requires shard.mutex. Appends the victims' records in one batch and,
  // once it landed, unlinks them (parking their key providers unless the
  // factory re-derives keys). On failure every victim stays resident.
  Status SpillVictimsLocked(Shard& shard,
                            const std::vector<util::UserId>& victims);

  AnonymizationServer* server_;
  SessionPoolOptions options_;
  util::StringInterner interner_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // ---- cold tier ----
  // Set once by AttachSpillFile, before concurrent use.
  std::unique_ptr<store::SpillFile> spill_;
  std::atomic<std::size_t> memory_budget_bytes_{0};
  std::atomic<std::size_t> sweep_shard_{0};
  std::atomic<std::uint64_t> sweeps_{0};

  mutable std::mutex latency_mutex_;
  Samples update_latency_ms_;
  Samples restore_latency_ms_;
};

}  // namespace rcloak::server
