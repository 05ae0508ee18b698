// Continuous-cloaking policy: the pure, engine-free state machine behind
// moving-user cloaking.
//
// A ContinuousPolicy owns everything about one user's continuous session
// that is NOT engine work: the artifact currently in force, its validity
// region, the re-cloak throttle, the epoch counter that advances the
// per-epoch key chain, and the session statistics. It never touches an
// Anonymizer or Deanonymizer — classification (`OnUpdate`) is a pure
// function of the stored state, and the caller performs the engine work a
// kRecloak decision demands before committing the result back.
//
// Two drivers share this state machine and therefore agree bit-for-bit on
// when to re-cloak and what request context each epoch uses:
//   * core::ContinuousCloak   — the single-user adapter (core/continuous.h),
//     kept as the API-compatible semantics oracle;
//   * server::ContinuousSessionPool — thousands of policies sharded over
//     the anonymization server (server/continuous_session_pool.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/artifact.h"
#include "core/cloak_region.h"
#include "core/privacy_profile.h"
#include "util/bytes.h"

namespace rcloak::core {

struct ContinuousOptions {
  // The artifact stays valid while the user is inside this level's region
  // (1 = innermost). Higher levels re-cloak less often but expose stale
  // positions for longer.
  int validity_level = 1;
  // Throttle: never re-cloak more often than this (seconds).
  double min_recloak_interval_s = 1.0;
};

struct ContinuousStats {
  std::uint64_t updates = 0;
  std::uint64_t recloaks = 0;
  std::uint64_t throttled_stale = 0;  // stale but within throttle window
  double last_recloak_time_s = 0.0;
  // Summed lifetime of every superseded artifact (one per re-cloak after
  // the first): a running total, so the session state stays the same size
  // however many times it re-cloaks.
  double validity_duration_total_s = 0.0;

  // Mean lifetime of a superseded artifact; 0 before the second re-cloak.
  double mean_validity_duration_s() const noexcept {
    return recloaks > 1 ? validity_duration_total_s /
                              static_cast<double>(recloaks - 1)
                        : 0.0;
  }
};

// Compact validity region: the sorted segment-id set of the level region
// that keeps the artifact in force valid. A resident session only ever
// asks "is this segment inside?", so storing the full CloakRegion engine
// (dense per-network membership bitmap plus frontier caches) would make
// every parked session cost O(|network|) bytes — fatal to the million-
// session memory story. A sorted vector + binary search answers Contains
// bit-identically at O(|region|) bytes.
class ValidityRegion {
 public:
  ValidityRegion() = default;
  // Takes any segment list; stored sorted ascending by id (the canonical
  // published order, matching CloakRegion::segments_by_id()).
  explicit ValidityRegion(std::vector<roadnet::SegmentId> segments);

  bool Contains(roadnet::SegmentId id) const noexcept;

  const std::vector<roadnet::SegmentId>& segments_by_id() const noexcept {
    return segments_;
  }

  std::size_t memory_bytes() const noexcept {
    return segments_.capacity() * sizeof(roadnet::SegmentId);
  }

 private:
  std::vector<roadnet::SegmentId> segments_;
};

class ContinuousPolicy {
 public:
  enum class Action : std::uint8_t {
    // The artifact in force still covers the position: serve `artifact()`.
    kServe,
    // Outside the validity region but inside the throttle window: serve the
    // stale `artifact()` (the region still k-anonymizes the previous
    // position; position lag is the documented cost of throttling).
    kServeStale,
    // A fresh artifact must be cut at this position for `next_epoch()`,
    // under the request context `EpochContext(next_epoch())`, then
    // installed with `CommitRecloak`. Until then the policy state is
    // unchanged (a failed engine call leaves the session as it was).
    kRecloak,
  };

  ContinuousPolicy(std::string user_id, PrivacyProfile profile,
                   Algorithm algorithm, const ContinuousOptions& options = {})
      : user_id_(std::move(user_id)),
        profile_(std::move(profile)),
        algorithm_(algorithm),
        options_(options) {}

  // Classifies a position update (and bumps the update / throttled-stale
  // counters). On kRecloak the caller runs the engine and either commits or
  // drops the attempt.
  Action OnUpdate(double now_s, roadnet::SegmentId current_segment);

  // The epoch a kRecloak decision cloaks under (one past the epoch in
  // force; the per-epoch key chain is derived from this counter).
  std::uint64_t next_epoch() const noexcept { return epoch_ + 1; }

  // Public request context binding the PRNG streams of one epoch:
  // core::EpochContext(user_id, epoch).
  std::string EpochContext(std::uint64_t epoch) const;

  // The level whose region keeps the artifact valid, clamped to the
  // profile's level count.
  int validity_level() const noexcept {
    return std::min(options_.validity_level, profile_.num_levels());
  }

  // Installs the artifact cut for `next_epoch()` and its validity region,
  // advancing the epoch and the re-cloak statistics. The first overload
  // encodes the artifact. The second adopts an artifact already kept with
  // its bytes and a region already reduced to its segment set (the session
  // pool shares one allocation between the commit and the serve result,
  // and hands in the region the anonymizer sealed, so no per-network
  // CloakRegion is built).
  void CommitRecloak(double now_s, CloakedArtifact artifact,
                     CloakRegion validity_region);
  void CommitRecloak(double now_s, SharedEncodedArtifact artifact,
                     ValidityRegion validity_region);

  // Spill/restore: appends the complete session state — algorithm,
  // profile, options, epoch counter, artifact in force, validity region,
  // clocks and statistics — to `out`, so an idle session can leave memory
  // and a returning user resumes its epoch chain bit-for-bit (the restored
  // policy's decision and artifact sequence is byte-identical to one that
  // never left; pinned in tests/session_pool_test.cc). The bytes carry no
  // version and no user id: they are the tail of a spill record, whose
  // file header holds the format version and whose payload holds the
  // name. Key material is deliberately NOT serialized: the caller
  // re-supplies its KeyProvider on restore. The artifact goes out as the
  // bytes kept with it.
  void Serialize(Bytes& out) const;
  // Parses data[offset, end) — the policy bytes must run to the end of
  // `data` — in place. `user_id` is the name the spill record stores.
  // `net` rebuilds the validity region (regions are stored as segment
  // lists) and must be the network the artifact was cut on. Truncation,
  // trailing bytes and an unknown algorithm id all fail with a Status.
  // The decoded artifact is re-encoded, so the bytes the restored session
  // keeps (and serves) are canonical whatever the record held.
  static StatusOr<ContinuousPolicy> Deserialize(
      std::string user_id, const Bytes& data, std::size_t offset,
      const roadnet::RoadNetwork& net);

  const std::string& user_id() const noexcept { return user_id_; }
  const PrivacyProfile& profile() const noexcept { return profile_; }
  Algorithm algorithm() const noexcept { return algorithm_; }
  const ContinuousOptions& options() const noexcept { return options_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  // The artifact in force with its bytes (null before the first
  // successful re-cloak), shared immutably: the steady-state serve path
  // hands out refcounted references instead of deep-copying level records
  // and segment lists, or encoding, on every in-region update.
  const SharedEncodedArtifact& encoded() const noexcept { return encoded_; }
  // The artifact in force alone, aliasing encoded().
  std::shared_ptr<const CloakedArtifact> artifact() const {
    return ArtifactOf(encoded_);
  }
  const ContinuousStats& stats() const noexcept { return stats_; }

  // Approximate heap footprint of the session state this policy retains —
  // identity, profile, artifact in force, validity region. The artifact's
  // kept bytes are not counted: they sat outside the pool's budget in the
  // front door's encode cache before the session kept them.
  // An estimate for the session pool's memory-budget accounting, not
  // malloc truth.
  std::size_t MemoryFootprint() const noexcept;

 private:
  // Deserialize fills every field directly.
  ContinuousPolicy() = default;

  std::string user_id_;
  PrivacyProfile profile_;
  Algorithm algorithm_;
  ContinuousOptions options_;

  std::uint64_t epoch_ = 0;
  SharedEncodedArtifact encoded_;
  std::optional<ValidityRegion> validity_region_;
  double artifact_created_s_ = 0.0;
  ContinuousStats stats_;
};

}  // namespace rcloak::core
