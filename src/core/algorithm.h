// CloakAlgorithm — the pluggable-strategy layer of the engine.
//
// RGE, RPLE, Grid and the non-reversible random-expansion baseline are
// stateless strategies over (immutable MapContext, per-request
// EngineSession). RPLE and Grid run the one keyed walk of
// core/walk_codec.h and resolve its tables into one WalkTablePointers. The
// facade (core/reversecloak.h) dispatches AnonymizeRequest::algorithm
// through the registry below instead of hard-coding each backend, and the
// de-anonymizer replays levels through the same strategy object — the
// "computationally recoverable camouflage" shape: a reversible transform
// plugged in over shared public context.
//
// Thread model: strategy objects hold no mutable state, the MapContext is
// immutable, and every mutable byte of a request lives in its
// EngineSession — so any number of threads may run Anonymize concurrently
// against one context as long as each uses its own session.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/artifact.h"
#include "core/cloak_region.h"
#include "core/grid_cloak.h"
#include "core/map_context.h"
#include "core/privacy_profile.h"
#include "core/rge.h"
#include "core/rple.h"
#include "core/user_counter.h"
#include "crypto/keyed_prng.h"
#include "util/status.h"

namespace rcloak::core {

// The immutable walk tables a request needs, resolved from the MapContext
// by the RPLE and Grid strategies (each in one function, for the engine's T
// on Begin and for artifact.rple_T on BeginReduce) and kept across requests,
// so steady-state requests skip the context's memo locks entirely. Each
// pointer stays valid for the context it came from; a strategy re-resolves
// only when the T it needs differs from the one recorded here.
struct WalkTablePointers {
  // RPLE: the context's pre-assigned tables for `tables_T`.
  const TransitionTables* tables = nullptr;
  std::uint32_t tables_T = 0;
  // Grid: the context's cell index and its cell tables for `grid_tables_T`.
  const GridContext* grid = nullptr;
  const GridTransitionTables* grid_tables = nullptr;
  std::uint32_t grid_tables_T = 0;
};

// Per-request mutable scratch: the cloaking region under construction, the
// expansion chain position, the user counter for this request's snapshot,
// resolved table pointers and run statistics. Sessions are cheap to Reset
// and are meant to be reused (one per server worker); they must never be
// shared between concurrent requests.
struct EngineSession {
  explicit EngineSession(const MapContext& ctx)
      : ctx(&ctx), region(ctx.network()) {}

  // Re-arms the session for a new request rooted at `origin`. Keeps the
  // region's allocations and the resolved table pointers (context-derived
  // and immutable, so valid across requests over the same context);
  // equivalent to constructing a fresh session otherwise.
  void Reset(SegmentId origin) {
    region.Clear();
    region.Insert(origin);
    chain = origin;
    users = nullptr;
    rge_stats = RgeStats{};
    rple_stats = RpleStats{};
    grid_stats = GridStats{};
    baseline_expansions = 0;
  }

  // The context this session was built over; the facade rejects sessions
  // used with an engine over a different context (the region bitmap and
  // the cached table pointers are only valid for this one).
  const MapContext* ctx;
  CloakRegion region;
  SegmentId chain = roadnet::kInvalidSegment;
  // The k-anonymity counter for this request (points at caller-owned
  // state; set by the facade before level expansion).
  const UserCounter* users = nullptr;
  WalkTablePointers walk;
  // Grid backend: the cell-walk chain position (the grid analogue of
  // `chain`); level 1 moves it to the origin's cell.
  std::uint32_t grid_cell = 0;
  RgeStats rge_stats;
  RpleStats rple_stats;
  GridStats grid_stats;
  std::uint64_t baseline_expansions = 0;
};

// Per-reduction scratch: shared prerequisites a strategy resolves once
// before the peel loop. A session may be reused across artifacts —
// BeginReduce runs before every reduction and skips work already resolved
// (Deanonymizer::ReduceBatch leans on this to amortize table resolution
// over a batch).
struct ReduceSession {
  WalkTablePointers walk;
};

// A cloaking backend. Implementations are stateless (all methods const,
// no mutable members) and registered process-wide; see FindAlgorithm.
class CloakAlgorithm {
 public:
  virtual ~CloakAlgorithm() = default;

  virtual Algorithm id() const noexcept = 0;
  virtual std::string_view name() const noexcept = 0;
  // Whether artifacts can be reduced level by level with keys.
  virtual bool reversible() const noexcept { return true; }

  // Called once per request, after session.Reset: resolves shared immutable
  // prerequisites from the context into the session (e.g. the RPLE tables
  // for `rple_T`). Default: nothing to resolve.
  virtual Status Begin(const MapContext& ctx, EngineSession& session,
                       std::uint32_t rple_T) const;

  // Expands session.region by one privacy level until `requirement` holds,
  // returning the sealed level record. On failure the session region and
  // chain are rolled back to the previous level.
  virtual StatusOr<LevelRecord> AnonymizeLevel(
      const MapContext& ctx, EngineSession& session,
      const crypto::AccessKey& key, const std::string& request_context,
      int level_index, const LevelRequirement& requirement) const = 0;

  // Called once per Reduce before the peel loop: resolves shared
  // prerequisites for `artifact` into the reduce session (e.g. the RPLE
  // tables for artifact.rple_T) so the per-level peels touch no locks.
  // Default: nothing to resolve.
  virtual Status BeginReduce(const MapContext& ctx,
                             const CloakedArtifact& artifact,
                             ReduceSession& session) const;

  // Peels one level off `region` (which must be the level-`level_index`
  // region of `artifact`), leaving the level below. The caller
  // (Deanonymizer::ReduceWith) checks that the region left has
  // `prev_region_size` segments.
  virtual Status DeanonymizeLevel(const MapContext& ctx,
                                  const CloakedArtifact& artifact,
                                  ReduceSession& session, CloakRegion& region,
                                  const crypto::AccessKey& key,
                                  int level_index, const LevelRecord& record,
                                  std::uint32_t prev_region_size) const = 0;
};

// Registry. The four built-ins (RGE, RPLE, RandomExpand, Grid) are always
// present; RegisterAlgorithm adds out-of-tree strategies. Lookup is by the
// wire id. FindAlgorithm returns nullptr for unknown ids.
const CloakAlgorithm* FindAlgorithm(Algorithm id) noexcept;
std::vector<const CloakAlgorithm*> RegisteredAlgorithms();
// Fails with InvalidArgument if the id is already taken.
Status RegisterAlgorithm(const CloakAlgorithm* algorithm);

}  // namespace rcloak::core
