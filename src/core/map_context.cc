#include "core/map_context.h"

#include <utility>

#include "core/artifact.h"

namespace rcloak::core {

MapContext::MapContext(const roadnet::RoadNetwork& net)
    : net_(&net), index_(net), fingerprint_(FingerprintNetwork(net)) {}

std::shared_ptr<const MapContext> MapContext::Create(
    const roadnet::RoadNetwork& net) {
  return std::shared_ptr<const MapContext>(new MapContext(net));
}

StatusOr<const TransitionTables*> MapContext::TablesFor(
    std::uint32_t T) const {
  return tables_by_T_.Get(
      T, [&]() -> StatusOr<std::unique_ptr<const TransitionTables>> {
        RCLOAK_ASSIGN_OR_RETURN(TransitionTables tables,
                                BuildTransitionTables(*net_, index_, T));
        return std::make_unique<const TransitionTables>(std::move(tables));
      });
}

StatusOr<const GridContext*> MapContext::GridFor(std::uint32_t side) const {
  // Normalize so explicit DefaultSide and 0 share one memo entry.
  if (side == 0) side = GridContext::DefaultSide(*net_);
  return grids_by_side_.Get(side,
                            [&] { return GridContext::Build(*net_, side); });
}

const roadnet::LandmarkTable* MapContext::LandmarksFor(
    int num_landmarks, roadnet::PathMetric metric) const {
  return *landmarks_by_params_.Get(
      std::make_pair(num_landmarks, metric),
      [&]() -> StatusOr<std::unique_ptr<const roadnet::LandmarkTable>> {
        return std::make_unique<const roadnet::LandmarkTable>(
            roadnet::LandmarkTable::Build(*net_, num_landmarks, metric));
      });
}

}  // namespace rcloak::core
