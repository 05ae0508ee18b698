#include "core/transition_table.h"

#include <algorithm>
#include <cassert>
#include <ostream>

namespace rcloak::core {

TransitionTable::TransitionTable(std::vector<SegmentId> rows,
                                 std::vector<SegmentId> cols)
    : rows_(std::move(rows)), cols_(std::move(cols)) {
  assert(!cols_.empty() && "transition table needs candidates");
  assert(rows_.size() <= cols_.size() &&
         "collision-free regime requires |CloakA| <= |CanA| "
         "(use FrontierAtLeast)");
}

StatusOr<std::size_t> TransitionTable::RowIndexOf(SegmentId id) const {
  const auto it = std::find(rows_.begin(), rows_.end(), id);
  if (it == rows_.end()) {
    return Status::InvalidArgument("segment is not a table row");
  }
  return static_cast<std::size_t>(it - rows_.begin());
}

StatusOr<std::size_t> TransitionTable::ColIndexOf(SegmentId id) const {
  const auto it = std::find(cols_.begin(), cols_.end(), id);
  if (it == cols_.end()) {
    return Status::InvalidArgument("segment is not a table column");
  }
  return static_cast<std::size_t>(it - cols_.begin());
}

StatusOr<SegmentId> TransitionTable::Forward(SegmentId last_added,
                                             std::uint64_t draw) const {
  RCLOAK_ASSIGN_OR_RETURN(const std::size_t row, RowIndexOf(last_added));
  return cols_[TransitionPartner(row, draw, cols_.size())];
}

StatusOr<SegmentId> TransitionTable::Backward(SegmentId last_removed,
                                              std::uint64_t draw) const {
  RCLOAK_ASSIGN_OR_RETURN(const std::size_t col, ColIndexOf(last_removed));
  // Unique because |rows| <= |cols|.
  const std::size_t row = TransitionPartner(col, draw, cols_.size());
  if (row >= rows_.size()) {
    return Status::DataLoss(
        "backward transition resolves to no row: artifact/key mismatch");
  }
  return rows_[row];
}

std::vector<std::vector<std::uint32_t>> TransitionTable::Materialize() const {
  std::vector<std::vector<std::uint32_t>> table(
      rows_.size(), std::vector<std::uint32_t>(cols_.size(), 0));
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    for (std::size_t j = 0; j < cols_.size(); ++j) {
      table[i][j] = ValueAt(i, j);
    }
  }
  return table;
}

void TransitionTable::Print(std::ostream& os) const {
  os << "      ";
  for (SegmentId col : cols_) os << " s" << roadnet::Index(col);
  os << "\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    os << "s" << roadnet::Index(rows_[i]) << " |";
    for (std::size_t j = 0; j < cols_.size(); ++j) {
      os << "  " << ValueAt(i, j);
    }
    os << "\n";
  }
}

}  // namespace rcloak::core
