// Grid/Hilbert-cell cloaking — the non-road-constrained backend.
//
// RGE and RPLE cloak along the road graph; commodity LBS traffic is mostly
// free-space (pedestrians, drones, indoor users), where the natural cloaking
// unit is a uniform grid cell (Casper-style quadrant k-anonymity). GridCloak
// keeps the ReverseCloak contract — a keyed, exactly reversible multi-level
// expansion — but expands cell by cell instead of segment by segment:
//
//   * the map's bounding box is covered by a W x W grid (W a power of two)
//     and every segment is assigned to the cell holding its midpoint;
//   * cells are canonically ordered by their Hilbert-curve rank, which keeps
//     rank-adjacent cells spatially adjacent (the grid analogue of the
//     paper's length-sorted canonical order);
//   * cloaking is an RPLE-style keyed walk over cells. The per-T transition
//     tables are torus translations (slot j moves by a fixed offset with
//     wraparound), so FT[c][j] = d  ⟺  BT[d][j] = c holds by construction
//     and the tables are hole-free on ANY grid, including degenerate ones —
//     the walk replays backwards exactly;
//   * a step entering a cell whose segments are not yet covered pulls the
//     whole cell into the region ("added a cell" step bits, key-blinded as
//     in RPLE); empty cells are walked through without adding anything,
//     which is precisely the free-space case road algorithms cannot serve.
//
// Level 0 is still the user's exact segment. Level 1 therefore first
// completes the origin's cell and seals the origin's rank *within* that
// cell into the level record (key-blinded, seal high bits), so a full
// reduction recovers the exact segment, not just the cell.
//
// Published regions are ordinary segment sets: artifacts, Deanonymizer,
// the server and the continuous session pool (validity region =
// the cloak's cell set, as a segment region) all work unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/cloak_region.h"
#include "core/privacy_profile.h"
#include "core/user_counter.h"
#include "crypto/keyed_prng.h"
#include "util/status.h"

namespace rcloak::core {

// Hilbert-curve rank of cell (x, y) on a side x side grid (side a power of
// two; side == 1 maps everything to rank 0). Bijective with HilbertCellOf.
std::uint32_t HilbertRankOfCell(std::uint32_t side, std::uint32_t x,
                                std::uint32_t y) noexcept;
void HilbertCellOf(std::uint32_t side, std::uint32_t rank, std::uint32_t* x,
                   std::uint32_t* y) noexcept;

// Instrumentation of one grid anonymization run (bench_e21).
struct GridStats {
  std::uint64_t walk_steps = 0;
  // Steps that landed in an already-covered or empty cell.
  std::uint64_t revisits = 0;
  std::uint64_t cells_added = 0;
};

// Hole-free forward/backward cell-transition tables for one fan-out T:
// slot j is the torus translation by the j-th canonical offset (N, NE, E,
// ... spiralling outwards), so every slot is a permutation of the cells and
// the RPLE pairing invariant holds with no completion pass.
class GridTransitionTables {
 public:
  std::uint32_t T() const noexcept { return t_; }
  std::uint32_t num_cells() const noexcept { return num_cells_; }

  std::uint32_t Forward(std::uint32_t cell, std::uint32_t slot) const {
    return ft_[static_cast<std::size_t>(cell) * t_ + slot];
  }
  std::uint32_t Backward(std::uint32_t cell, std::uint32_t slot) const {
    return bt_[static_cast<std::size_t>(cell) * t_ + slot];
  }

  // FT[c][j] = d ⟺ BT[d][j] = c over every cell and slot.
  Status ValidatePairing() const;

  std::size_t MemoryBytes() const noexcept {
    return (ft_.capacity() + bt_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  friend class GridContext;
  std::uint32_t t_ = 0;
  std::uint32_t num_cells_ = 0;
  std::vector<std::uint32_t> ft_;
  std::vector<std::uint32_t> bt_;
};

// Immutable cell index over one road network: cell assignment, Hilbert
// ranks, per-cell segment lists, and the per-T transition-table memo.
// Deterministic in (network, side) — anonymizer and de-anonymizer derive
// identical grids from their map copies. Thread-safe to share (the only
// internal synchronization is the build-once table memo, mirroring
// MapContext::TablesFor). Obtain one via MapContext::GridFor.
class GridContext {
 public:
  // side == 0 picks DefaultSide(net). Fails on an empty network.
  static StatusOr<std::unique_ptr<const GridContext>> Build(
      const roadnet::RoadNetwork& net, std::uint32_t side = 0);

  // Smallest power of two with ~8 segments per occupied cell on average,
  // clamped to [1, 1024]. A pure function of the segment count, so both
  // sides of the protocol agree without a wire field.
  static std::uint32_t DefaultSide(const roadnet::RoadNetwork& net) noexcept;

  GridContext(const GridContext&) = delete;
  GridContext& operator=(const GridContext&) = delete;

  std::uint32_t side() const noexcept { return side_; }
  std::uint32_t num_cells() const noexcept { return side_ * side_; }
  // Cells holding at least one segment midpoint.
  std::uint32_t occupied_cells() const noexcept { return occupied_cells_; }

  // Cell of a segment's midpoint; cell index is y * side + x.
  std::uint32_t CellOf(SegmentId id) const {
    return cell_of_segment_[roadnet::Index(id)];
  }
  // Segments assigned to `cell`, ascending by id (possibly empty).
  std::span<const SegmentId> CellSegments(std::uint32_t cell) const {
    return {cell_segments_.data() + cell_offsets_[cell],
            cell_offsets_[cell + 1] - cell_offsets_[cell]};
  }
  std::uint32_t HilbertRank(std::uint32_t cell) const {
    return hilbert_of_cell_[cell];
  }
  std::uint32_t CellOfHilbertRank(std::uint32_t rank) const {
    return cell_of_hilbert_[rank];
  }

  // The transition tables for fan-out T (2 <= T <= 64). Built on first use
  // (thread-safe, build-once per distinct T) and memoized for the lifetime
  // of the context; returned pointer is stable, tables immutable.
  StatusOr<const GridTransitionTables*> TablesFor(std::uint32_t T) const;

  // How many table builds have run (memoization pin for tests).
  std::size_t table_builds() const;

 private:
  GridContext() = default;

  std::uint32_t side_ = 1;
  std::uint32_t occupied_cells_ = 0;
  std::vector<std::uint32_t> cell_of_segment_;
  // CSR layout: cell_segments_[cell_offsets_[c] .. cell_offsets_[c+1]).
  std::vector<std::uint32_t> cell_offsets_;
  std::vector<SegmentId> cell_segments_;
  std::vector<std::uint32_t> hilbert_of_cell_;
  std::vector<std::uint32_t> cell_of_hilbert_;

  mutable std::mutex tables_mutex_;
  mutable std::vector<std::pair<std::uint32_t,
                                std::unique_ptr<const GridTransitionTables>>>
      tables_by_T_;
  mutable std::size_t table_builds_ = 0;
};

// Keyed cell-walk level expansion; mirrors RpleAnonymizeLevel's contract.
// `walk_cell` is the chain seed (the origin's cell for level 1 / the
// previous level's walk end) and is updated to this level's walk end on
// success. Level 1 must be entered with region == {origin}; it completes
// the origin's cell before walking and seals the origin's in-cell rank.
StatusOr<LevelRecord> GridAnonymizeLevel(
    const GridContext& grid, const GridTransitionTables& tables,
    const UserCounter& users, CloakRegion& region, std::uint32_t& walk_cell,
    const crypto::AccessKey& key, const std::string& context,
    int level_index, const LevelRequirement& requirement,
    GridStats* stats = nullptr);

// Reverse walk replay; removes this level's cells from `region` (which must
// currently be the level-`level_index` region). For level 1 it additionally
// peels the origin cell down to the exact origin segment.
Status GridDeanonymizeLevel(const GridContext& grid,
                            const GridTransitionTables& tables,
                            CloakRegion& region, const crypto::AccessKey& key,
                            const std::string& context, int level_index,
                            const LevelRecord& record);

}  // namespace rcloak::core
