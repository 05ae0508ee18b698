#include "core/grid_cloak.h"

#include <algorithm>
#include <cmath>
#include <utility>


namespace rcloak::core {

namespace {

constexpr std::uint64_t kMask32 = 0xFFFFFFFFull;

// Canonical walk offsets: a clockwise ring walk starting due north, ring 1
// first (N, NE, E, SE, S, SW, W, NW), then ring 2, ... A pure function of
// T, so both protocol sides derive identical tables.
std::vector<std::pair<int, int>> WalkOffsets(std::uint32_t T) {
  std::vector<std::pair<int, int>> offsets;
  offsets.reserve(T);
  for (int r = 1; offsets.size() < T; ++r) {
    for (int dx = 0; dx <= r && offsets.size() < T; ++dx) {
      offsets.emplace_back(dx, -r);
    }
    for (int dy = -r + 1; dy <= r && offsets.size() < T; ++dy) {
      offsets.emplace_back(r, dy);
    }
    for (int dx = r - 1; dx >= -r && offsets.size() < T; --dx) {
      offsets.emplace_back(dx, r);
    }
    for (int dy = r - 1; dy >= -r && offsets.size() < T; --dy) {
      offsets.emplace_back(-r, dy);
    }
    for (int dx = -r + 1; dx <= -1 && offsets.size() < T; ++dx) {
      offsets.emplace_back(dx, -r);
    }
  }
  return offsets;
}

std::uint32_t TorusCoord(int v, std::uint32_t side) noexcept {
  const int s = static_cast<int>(side);
  return static_cast<std::uint32_t>(((v % s) + s) % s);
}

std::uint32_t AxisCell(double v, double lo, double extent,
                       std::uint32_t side) noexcept {
  if (side <= 1 || extent <= 0.0) return 0;
  const double t = (v - lo) / extent;
  const auto cell = static_cast<std::int64_t>(t * static_cast<double>(side));
  if (cell < 0) return 0;
  if (cell >= static_cast<std::int64_t>(side)) return side - 1;
  return static_cast<std::uint32_t>(cell);
}

// A grid walk node is a cell; its members are the cell's segments.
auto CellMembers(const GridContext& grid) {
  return [&grid](std::uint32_t cell) { return grid.CellSegments(cell); };
}

}  // namespace

std::uint32_t HilbertRankOfCell(std::uint32_t side, std::uint32_t x,
                                std::uint32_t y) noexcept {
  std::uint32_t rank = 0;
  for (std::uint32_t s = side / 2; s > 0; s /= 2) {
    const std::uint32_t rx = (x & s) ? 1u : 0u;
    const std::uint32_t ry = (y & s) ? 1u : 0u;
    rank += s * s * ((3u * rx) ^ ry);
    if (ry == 0) {
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return rank;
}

void HilbertCellOf(std::uint32_t side, std::uint32_t rank, std::uint32_t* x,
                   std::uint32_t* y) noexcept {
  std::uint32_t cx = 0, cy = 0;
  std::uint32_t t = rank;
  for (std::uint32_t s = 1; s < side; s *= 2) {
    const std::uint32_t rx = 1u & (t / 2);
    const std::uint32_t ry = 1u & (t ^ rx);
    if (ry == 0) {
      if (rx == 1) {
        cx = s - 1 - cx;
        cy = s - 1 - cy;
      }
      std::swap(cx, cy);
    }
    cx += s * rx;
    cy += s * ry;
    t /= 4;
  }
  *x = cx;
  *y = cy;
}

std::uint32_t GridContext::DefaultSide(
    const roadnet::RoadNetwork& net) noexcept {
  const double target = std::sqrt(
      static_cast<double>(std::max<std::size_t>(1, net.segment_count())) /
      8.0);
  std::uint32_t side = 1;
  while (side < 1024 && static_cast<double>(side) < target) side <<= 1;
  return side;
}

StatusOr<std::unique_ptr<const GridContext>> GridContext::Build(
    const roadnet::RoadNetwork& net, std::uint32_t side) {
  if (net.segment_count() == 0) {
    return Status::InvalidArgument("grid cloak: network has no segments");
  }
  if (side == 0) side = DefaultSide(net);
  if ((side & (side - 1)) != 0 || side > 1024) {
    return Status::InvalidArgument(
        "grid cloak: side must be a power of two <= 1024");
  }
  std::unique_ptr<GridContext> grid(new GridContext());
  grid->side_ = side;
  const std::uint32_t num_cells = side * side;
  const geo::BoundingBox bounds = net.bounds();
  const double width = bounds.width();
  const double height = bounds.height();

  const std::size_t count = net.segment_count();
  grid->cell_of_segment_.resize(count);
  std::vector<std::uint32_t> per_cell(num_cells, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const geo::Point mid =
        net.SegmentMidpoint(SegmentId{static_cast<std::uint32_t>(i)});
    const std::uint32_t x = AxisCell(mid.x, bounds.min_x, width, side);
    const std::uint32_t y = AxisCell(mid.y, bounds.min_y, height, side);
    const std::uint32_t cell = y * side + x;
    grid->cell_of_segment_[i] = cell;
    ++per_cell[cell];
  }

  // CSR fill; within-cell order is ascending id because segments are
  // scanned in id order.
  grid->cell_offsets_.assign(num_cells + 1, 0);
  for (std::uint32_t c = 0; c < num_cells; ++c) {
    grid->cell_offsets_[c + 1] = grid->cell_offsets_[c] + per_cell[c];
    if (per_cell[c] > 0) ++grid->occupied_cells_;
  }
  grid->cell_segments_.resize(count, SegmentId{0});
  std::vector<std::uint32_t> cursor(grid->cell_offsets_.begin(),
                                    grid->cell_offsets_.end() - 1);
  for (std::size_t i = 0; i < count; ++i) {
    grid->cell_segments_[cursor[grid->cell_of_segment_[i]]++] =
        SegmentId{static_cast<std::uint32_t>(i)};
  }

  grid->hilbert_of_cell_.resize(num_cells);
  grid->cell_of_hilbert_.resize(num_cells);
  for (std::uint32_t y = 0; y < side; ++y) {
    for (std::uint32_t x = 0; x < side; ++x) {
      const std::uint32_t rank = HilbertRankOfCell(side, x, y);
      grid->hilbert_of_cell_[y * side + x] = rank;
      grid->cell_of_hilbert_[rank] = y * side + x;
    }
  }
  return std::unique_ptr<const GridContext>(std::move(grid));
}

StatusOr<const GridTransitionTables*> GridContext::TablesFor(
    std::uint32_t T) const {
  if (T < 2 || T > 64) {
    return Status::InvalidArgument(
        "grid cloak: walk fan-out T must be in [2, 64]");
  }
  return tables_by_T_.Get(
      T, [&]() -> StatusOr<std::unique_ptr<const GridTransitionTables>> {
        const std::size_t slots = static_cast<std::size_t>(num_cells()) * T;
        std::vector<std::uint32_t> ft(slots), bt(slots);
        const auto offsets = WalkOffsets(T);
        for (std::uint32_t c = 0; c < num_cells(); ++c) {
          const int x = static_cast<int>(c % side_);
          const int y = static_cast<int>(c / side_);
          for (std::uint32_t j = 0; j < T; ++j) {
            const auto [dx, dy] = offsets[j];
            ft[static_cast<std::size_t>(c) * T + j] =
                TorusCoord(y + dy, side_) * side_ + TorusCoord(x + dx, side_);
            bt[static_cast<std::size_t>(c) * T + j] =
                TorusCoord(y - dy, side_) * side_ + TorusCoord(x - dx, side_);
          }
        }
        return std::make_unique<const GridTransitionTables>(T, std::move(ft),
                                                            std::move(bt));
      });
}

StatusOr<LevelRecord> GridAnonymizeLevel(
    const GridContext& grid, const GridTransitionTables& tables,
    const UserCounter& users, CloakRegion& region, std::uint32_t& walk_cell,
    const crypto::AccessKey& key, const std::string& context,
    int level_index, const LevelRequirement& requirement, GridStats* stats) {
  const LevelStreams streams(key, context, level_index);
  std::vector<SegmentId> region_before = region.segments_by_id();
  const std::uint32_t walk_cell_before = walk_cell;

  // Level 1 always completes the origin's cell first (even when {origin}
  // already satisfies the requirement): the reduction peels whole cells,
  // so every published level must be a union of cells.
  std::uint64_t origin_rank_in_cell = 0;
  if (level_index == 1) {
    if (region.size() != 1) {
      return Status::FailedPrecondition(
          "grid level 1 expects the singleton origin region");
    }
    const SegmentId origin = region_before.front();
    walk_cell = grid.CellOf(origin);
    const auto cell_segments = grid.CellSegments(walk_cell);
    origin_rank_in_cell = static_cast<std::uint64_t>(
        std::find(cell_segments.begin(), cell_segments.end(), origin) -
        cell_segments.begin());
    // A cell wider than sigma_s fails the walk's first check.
    for (const SegmentId sid : cell_segments) region.Insert(sid);
  }

  StatusOr<LevelRecord> record =
      WalkForward(tables, CellMembers(grid), users, region, walk_cell,
                  std::move(region_before), walk_cell_before, streams,
                  requirement, "grid", stats);
  if (stats != nullptr) {
    stats->cells_added = stats->walk_steps - stats->revisits;
  }
  if (!record.ok()) return record;
  // Seal layout (all mod 2^32, so the published values are uniform):
  //   low 32 bits  — blinded Hilbert rank of the walk-end cell;
  //   high 32 bits — level 1: blinded rank of the origin within its cell's
  //                  id-sorted segment list; levels >= 2: keyed padding.
  const std::uint64_t low =
      (grid.HilbertRank(walk_cell) + streams.prng.Prf("seal")) & kMask32;
  const std::uint64_t high =
      level_index == 1
          ? (origin_rank_in_cell + streams.prng.Prf("origin")) & kMask32
          : streams.prng.Prf("origin-pad") & kMask32;
  record->seal = (high << 32) | low;
  return record;
}

Status GridDeanonymizeLevel(const GridContext& grid,
                            const GridTransitionTables& tables,
                            CloakRegion& region, const crypto::AccessKey& key,
                            const std::string& context, int level_index,
                            const LevelRecord& record) {
  if (region.size() != record.region_size) {
    return Status::FailedPrecondition(
        "grid de-anonymize: region size does not match level record");
  }
  const LevelStreams streams(key, context, level_index);

  // Open the walk-end cell from the seal's low half; a wrong key decodes
  // to a near-uniform 32-bit value that exceeds the cell count.
  const std::uint64_t cell_rank =
      ((record.seal & kMask32) - streams.prng.Prf("seal")) & kMask32;
  if (cell_rank >= grid.num_cells()) {
    return Status::DataLoss(
        "grid de-anonymize: seal opens outside the grid (wrong key or "
        "corrupt artifact)");
  }
  RCLOAK_ASSIGN_OR_RETURN(
      const std::uint32_t start,
      WalkReverse(tables, CellMembers(grid), region,
                  grid.CellOfHilbertRank(static_cast<std::uint32_t>(cell_rank)),
                  record, streams, "grid"));
  if (level_index != 1) return Status::Ok();

  // The replay ended on the level's start cell == the origin's cell; the
  // remaining region must be exactly that cell. Peel it down to the sealed
  // origin segment.
  const auto cell_segments = grid.CellSegments(start);
  if (cell_segments.empty() || region.size() != cell_segments.size() ||
      !std::all_of(cell_segments.begin(), cell_segments.end(),
                   [&](SegmentId sid) { return region.Contains(sid); })) {
    return Status::DataLoss(
        "grid de-anonymize: residue is not the origin cell (wrong key or "
        "corrupt artifact)");
  }
  const std::uint64_t origin_rank =
      ((record.seal >> 32) - streams.prng.Prf("origin")) & kMask32;
  if (origin_rank >= cell_segments.size()) {
    return Status::DataLoss(
        "grid de-anonymize: origin seal out of range (wrong key or "
        "corrupt artifact)");
  }
  const SegmentId origin =
      cell_segments[static_cast<std::size_t>(origin_rank)];
  for (const SegmentId sid : cell_segments) {
    if (sid != origin) region.Erase(sid);
  }
  return Status::Ok();
}

}  // namespace rcloak::core
