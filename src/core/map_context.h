// MapContext — the immutable, thread-shareable public layer of the engine.
//
// Everything that is a pure function of the road map lives here exactly
// once: the road network itself, the spatial index over segment midpoints,
// the structural fingerprint, and the memoized derived structures — RPLE
// transition tables by T, grid cell indexes by side, ALT landmark tables
// by parameters. Anonymizer, Deanonymizer, the anonymization server's
// workers, examples and benches all share one context by
// shared_ptr/const& — nothing in this class ever mutates after
// construction, so no reader needs a lock on the hot path. The only
// internal synchronization is the one build-once memo type
// (util::BuildOnceMemo), which hands out pointer-stable immutable values.
//
// Ownership rules (docs/ARCHITECTURE.md):
//   * a MapContext borrows the network (Create — the caller keeps it
//     alive);
//   * everything handed out by const accessor is valid for the lifetime of
//     the context and safe to read from any thread;
//   * per-request mutable state never lives here — it belongs to
//     EngineSession (core/algorithm.h).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "core/grid_cloak.h"
#include "core/rple.h"
#include "roadnet/alt_routing.h"
#include "roadnet/road_network.h"
#include "roadnet/spatial_index.h"
#include "util/build_once_memo.h"
#include "util/status.h"

namespace rcloak::core {

class MapContext {
 public:
  // Borrowing constructor: `net` must outlive the context (the historical
  // Anonymizer/Deanonymizer contract).
  static std::shared_ptr<const MapContext> Create(
      const roadnet::RoadNetwork& net);

  MapContext(const MapContext&) = delete;
  MapContext& operator=(const MapContext&) = delete;

  const roadnet::RoadNetwork& network() const noexcept { return *net_; }
  const roadnet::SpatialIndex& index() const noexcept { return index_; }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  // The memoized accessors below build on first use, once per key, and
  // hand out pointers that stay valid and immutable for the lifetime of
  // the context (util::BuildOnceMemo).

  // The RPLE pre-assigned tables for transition-list length T.
  StatusOr<const TransitionTables*> TablesFor(std::uint32_t T) const;

  // How many table builds have run so far. Sharing tests pin this to prove
  // that co-located Anonymizer + Deanonymizer do not duplicate work.
  std::size_t table_builds() const { return tables_by_T_.builds(); }

  // The grid/Hilbert cell index for the non-road-constrained backend
  // (core/grid_cloak.h). side == 0 uses GridContext::DefaultSide, so both
  // protocol sides agree without a wire field.
  StatusOr<const GridContext*> GridFor(std::uint32_t side = 0) const;

  // How many grid builds have run so far (memoization pin).
  std::size_t grid_builds() const { return grids_by_side_.builds(); }

  // The ALT landmark distance tables for (num_landmarks, metric), memoized
  // so routing consumers (the mobility simulator, query benches) stop
  // paying the Dijkstra sweeps per run. Construct a roadnet::AltRouter over
  // the returned pointer.
  const roadnet::LandmarkTable* LandmarksFor(
      int num_landmarks,
      roadnet::PathMetric metric = roadnet::PathMetric::kDistance) const;

  // How many landmark builds have run so far (memoization pin).
  std::size_t landmark_builds() const {
    return landmarks_by_params_.builds();
  }

 private:
  explicit MapContext(const roadnet::RoadNetwork& net);

  const roadnet::RoadNetwork* net_;
  roadnet::SpatialIndex index_;
  std::uint64_t fingerprint_;

  util::BuildOnceMemo<std::uint32_t, TransitionTables> tables_by_T_;
  util::BuildOnceMemo<std::uint32_t, GridContext> grids_by_side_;
  util::BuildOnceMemo<std::pair<int, roadnet::PathMetric>,
                      roadnet::LandmarkTable>
      landmarks_by_params_;
};

}  // namespace rcloak::core
