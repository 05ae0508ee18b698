// RGE transition table (paper §III-A, Fig. 2).
//
// Rows are the current cloaking region CloakA and columns the candidate set
// CanA, both sorted by segment length. Cell (i, j) (1-based in the paper)
// holds transition value ((i-1) + (j-1)) mod |CanA|, so no value repeats in
// a row or a column whenever |CloakA| <= |CanA| — which the caller
// guarantees via CloakRegion::FrontierAtLeast. A pseudo-random pick value
// p = R mod |CanA| then selects:
//   * forward (anonymization):   the column j in the last-added segment's
//     row with value p — the next segment to add;
//   * backward (de-anonymization): the row i in the last-removed segment's
//     column with value p — the previously added segment.
// Both directions share one table, which is what makes the expansion
// reversible.
//
// The closed form below avoids materializing the table. The RGE hot path
// (rge.cc) applies it to the region's rank bitsets directly — a row index
// is a Rank, a column's segment a Select — so no table is ever built there.
// TransitionTable holds explicit rows and columns for tests, worked
// examples and the Fig. 2 rendering; Materialize() is verified equivalent
// to the closed form by unit tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/cloak_region.h"
#include "util/status.h"

namespace rcloak::core {

// The closed form shared by both directions of a table with `m` columns:
// the column of row `index` whose value is the pick draw mod m (forward),
// or — the table being symmetric in row and column index — the row of
// column `index` with that value (backward).
inline std::size_t TransitionPartner(std::size_t index, std::uint64_t draw,
                                     std::size_t m) {
  const std::size_t pick = static_cast<std::size_t>(draw % m);
  return (pick + m - index % m) % m;
}

class TransitionTable {
 public:
  // `rows` = CloakA sorted by (length, id); `cols` = CanA sorted likewise.
  // Requires rows.size() <= cols.size() (collision-free regime) and
  // cols non-empty.
  TransitionTable(std::vector<SegmentId> rows, std::vector<SegmentId> cols);

  std::size_t row_count() const noexcept { return rows_.size(); }
  std::size_t col_count() const noexcept { return cols_.size(); }

  // Transition value of cell (row, col), 0-based.
  std::uint32_t ValueAt(std::size_t row, std::size_t col) const noexcept {
    return static_cast<std::uint32_t>((row + col) % cols_.size());
  }

  // Forward: given the last-added segment (a row) and raw draw R, returns
  // the segment to add next. Fails if `last_added` is not a row member.
  StatusOr<SegmentId> Forward(SegmentId last_added, std::uint64_t draw) const;

  // Backward: given the last-removed segment (a column) and the same draw
  // R, returns the segment that had been added just before it. Fails if
  // `last_removed` is not a column member or the recovered row index is out
  // of range (corrupt artifact / wrong key).
  StatusOr<SegmentId> Backward(SegmentId last_removed,
                               std::uint64_t draw) const;

  // Dense table of transition values, rows x cols; for tests and demos.
  std::vector<std::vector<std::uint32_t>> Materialize() const;

  // Pretty-printer of the worked example (mirrors Fig. 2's table).
  void Print(std::ostream& os) const;

  const std::vector<SegmentId>& rows() const noexcept { return rows_; }
  const std::vector<SegmentId>& cols() const noexcept { return cols_; }

 private:
  StatusOr<std::size_t> RowIndexOf(SegmentId id) const;
  StatusOr<std::size_t> ColIndexOf(SegmentId id) const;

  std::vector<SegmentId> rows_;
  std::vector<SegmentId> cols_;
};

}  // namespace rcloak::core
