// Tests for the RGE transition table, including the paper's Fig. 2 worked
// example and the structural (Latin-rectangle) properties that make the
// expansion reversible.
#include <gtest/gtest.h>

#include <set>

#include "core/cloak_region.h"
#include "core/rple.h"
#include "core/transition_table.h"
#include "roadnet/generators.h"
#include "roadnet/spatial_index.h"

namespace rcloak::core {
namespace {

using roadnet::RoadNetwork;
using roadnet::SegmentId;

std::vector<SegmentId> Ids(std::initializer_list<std::uint32_t> raw) {
  std::vector<SegmentId> out;
  for (auto v : raw) out.push_back(SegmentId{v});
  return out;
}

// Fig. 2: CloakA = {s8, s9, s11}, CanA = {s6, s10, s14}, both already in
// length order; cell values ((i-1)+(j-1)) mod 3.
TEST(TransitionTableTest, PaperFigure2Values) {
  const TransitionTable table(Ids({8, 9, 11}), Ids({6, 10, 14}));
  const auto values = table.Materialize();
  const std::vector<std::vector<std::uint32_t>> expected = {
      {0, 1, 2}, {1, 2, 0}, {2, 0, 1}};
  EXPECT_EQ(values, expected);
}

// Fig. 2 narrative: R_i = 5 gives pick 5 mod 3 = 2; with last-added s8
// (row 0... the paper's "2nd row" is 1-based counting of {s8,s9,s11} by
// length; in the fixture ids encode the order directly), the forward
// transition from s9's row... We follow the paper's concrete numbers: the
// pick value 2 in the row of the last-added segment s8 selects s14 when s8
// sits in the second row. Reproduce exactly: rows {s9, s8, s11}.
TEST(TransitionTableTest, PaperFigure2ForwardBackward) {
  // Arrange s8 in the 2nd row (index 1), as in the figure.
  const TransitionTable table(Ids({9, 8, 11}), Ids({6, 10, 14}));
  // Forward: pick 2 in row 1 -> cell (1, j): (1 + j) mod 3 == 2 -> j = 1?
  // Figure: transition value 2 at cell (2,2) 1-based = (1,1) 0-based,
  // which is column of s14... the figure's columns are {s6, s10, s14} and
  // cell (2,2) is s10's column. The figure text says the transition goes to
  // s14 (column 3, value at (2,3) = (1+2) mod 3 = 0). The published figure
  // is internally inconsistent there; we assert our closed form instead.
  const auto forward = table.Forward(SegmentId{8}, 5);
  ASSERT_TRUE(forward.ok());
  // (row 1 + j) mod 3 == 2 -> j == 1 -> s10.
  EXPECT_EQ(*forward, SegmentId{10});
  // Backward from that column with the same draw recovers s8.
  const auto backward = table.Backward(SegmentId{10}, 5);
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(*backward, SegmentId{8});
}

TEST(TransitionTableTest, LatinPropertyNoRepeatsInRowsAndColumns) {
  for (std::size_t rows = 1; rows <= 6; ++rows) {
    for (std::size_t cols = rows; cols <= rows + 4; ++cols) {
      std::vector<SegmentId> row_ids, col_ids;
      for (std::uint32_t i = 0; i < rows; ++i) row_ids.push_back(SegmentId{i});
      for (std::uint32_t j = 0; j < cols; ++j) {
        col_ids.push_back(SegmentId{100 + j});
      }
      const TransitionTable table(row_ids, col_ids);
      const auto values = table.Materialize();
      for (std::size_t i = 0; i < rows; ++i) {
        std::set<std::uint32_t> in_row(values[i].begin(), values[i].end());
        EXPECT_EQ(in_row.size(), cols) << rows << "x" << cols;
      }
      for (std::size_t j = 0; j < cols; ++j) {
        std::set<std::uint32_t> in_col;
        for (std::size_t i = 0; i < rows; ++i) in_col.insert(values[i][j]);
        EXPECT_EQ(in_col.size(), rows) << rows << "x" << cols;
      }
    }
  }
}

TEST(TransitionTableTest, ClosedFormMatchesMaterializedTable) {
  const TransitionTable table(Ids({3, 1, 4}), Ids({20, 21, 22, 23, 24}));
  const auto values = table.Materialize();
  for (std::uint64_t draw = 0; draw < 50; ++draw) {
    for (std::size_t row = 0; row < table.row_count(); ++row) {
      const auto forward = table.Forward(table.rows()[row], draw);
      ASSERT_TRUE(forward.ok());
      // Find the unique column in this row whose value equals the pick.
      const std::uint32_t pick =
          static_cast<std::uint32_t>(draw % table.col_count());
      std::size_t expected_col = table.col_count();
      for (std::size_t j = 0; j < table.col_count(); ++j) {
        if (values[row][j] == pick) {
          expected_col = j;
          break;
        }
      }
      ASSERT_LT(expected_col, table.col_count());
      EXPECT_EQ(*forward, table.cols()[expected_col]);
    }
  }
}

// The core reversibility property: Backward(Forward(row)) == row for every
// row and draw, across table shapes.
class TableInverseTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(TableInverseTest, BackwardInvertsForward) {
  const auto [rows, cols] = GetParam();
  std::vector<SegmentId> row_ids, col_ids;
  for (std::uint32_t i = 0; i < rows; ++i) row_ids.push_back(SegmentId{i});
  for (std::uint32_t j = 0; j < cols; ++j) {
    col_ids.push_back(SegmentId{1000 + j});
  }
  const TransitionTable table(row_ids, col_ids);
  for (std::uint64_t draw = 0; draw < 97; draw += 3) {
    for (const SegmentId row : table.rows()) {
      const auto next = table.Forward(row, draw);
      ASSERT_TRUE(next.ok());
      const auto back = table.Backward(*next, draw);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(*back, row)
          << rows << "x" << cols << " draw " << draw;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TableInverseTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{1, 5},
                      std::pair<std::size_t, std::size_t>{2, 2},
                      std::pair<std::size_t, std::size_t>{3, 3},
                      std::pair<std::size_t, std::size_t>{3, 7},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{8, 13},
                      std::pair<std::size_t, std::size_t>{20, 31}));

TEST(TransitionTableTest, ForwardRejectsNonRow) {
  const TransitionTable table(Ids({1}), Ids({2, 3}));
  EXPECT_FALSE(table.Forward(SegmentId{9}, 0).ok());
  EXPECT_FALSE(table.Backward(SegmentId{9}, 0).ok());
}

TEST(TransitionTableTest, BackwardDetectsOutOfRangeRow) {
  // rows=1, cols=3: picks that decode to rows 1 or 2 are invalid (only row
  // 0 exists) -> DataLoss, the wrong-key signal.
  const TransitionTable table(Ids({1}), Ids({10, 11, 12}));
  int failures = 0;
  for (std::uint64_t draw = 0; draw < 3; ++draw) {
    for (const SegmentId col : table.cols()) {
      if (!table.Backward(col, draw).ok()) ++failures;
    }
  }
  EXPECT_EQ(failures, 6);  // 9 combos, 3 valid (one per draw)
}

// ------------------------------------------- parallel pre-assignment pass
// The preference pass of BuildTransitionTables runs on N threads with a
// deterministic slot-indexed merge; the resulting tables must be
// byte-identical to the single-threaded build for every thread count.
TEST(TransitionTableTest, ParallelPreferencePassIsByteIdentical) {
  roadnet::PerturbedGridOptions options;
  options.rows = 20;
  options.cols = 20;
  options.seed = 11;
  const RoadNetwork net = roadnet::MakePerturbedGrid(options);
  const roadnet::SpatialIndex index(net);
  const std::uint32_t T = 5;

  const auto serial = BuildTransitionTables(net, index, T,
                                            /*preassign_threads=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto parallel = BuildTransitionTables(net, index, T, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel->T(), serial->T());
    ASSERT_EQ(parallel->node_count(), serial->node_count());
    // FT and BT compared entry by entry == byte identity of the tables.
    for (std::size_t s = 0; s < serial->node_count(); ++s) {
      const SegmentId sid{static_cast<std::uint32_t>(s)};
      for (std::uint32_t j = 0; j < T; ++j) {
        ASSERT_EQ(parallel->Forward(sid, j), serial->Forward(sid, j))
            << "FT mismatch at segment " << s << " slot " << j << " with "
            << threads << " threads";
        ASSERT_EQ(parallel->Backward(sid, j), serial->Backward(sid, j))
            << "BT mismatch at segment " << s << " slot " << j << " with "
            << threads << " threads";
      }
    }
  }
}

// --------------------------------------------------------- CloakRegion
TEST(CloakRegionTest, InsertEraseContains) {
  const RoadNetwork net = roadnet::MakeGrid({4, 4, 100.0});
  CloakRegion region(net);
  EXPECT_TRUE(region.empty());
  region.Insert(SegmentId{5});
  region.Insert(SegmentId{2});
  region.Insert(SegmentId{5});  // dup
  EXPECT_EQ(region.size(), 2u);
  EXPECT_TRUE(region.Contains(SegmentId{5}));
  EXPECT_FALSE(region.Contains(SegmentId{7}));
  region.Erase(SegmentId{5});
  EXPECT_FALSE(region.Contains(SegmentId{5}));
  region.Erase(SegmentId{5});  // no-op
  EXPECT_EQ(region.size(), 1u);
  // Canonical by-id ordering.
  region.Insert(SegmentId{0});
  EXPECT_EQ(region.segments_by_id().front(), SegmentId{0});
}

TEST(CloakRegionTest, SortedByLengthUsesIdTiebreak) {
  const RoadNetwork net = roadnet::MakeGrid({3, 3, 100.0});  // equal lengths
  CloakRegion region(net);
  region.Insert(SegmentId{7});
  region.Insert(SegmentId{2});
  region.Insert(SegmentId{4});
  const auto sorted = region.SortedByLength();
  EXPECT_EQ(sorted, (std::vector<SegmentId>{SegmentId{2}, SegmentId{4},
                                            SegmentId{7}}));
}

TEST(CloakRegionTest, FrontierIsAdjacentAndOutside) {
  const RoadNetwork net = roadnet::MakeGrid({5, 5, 100.0});
  CloakRegion region(net);
  region.Insert(SegmentId{0});
  const auto frontier = region.Frontier();
  EXPECT_FALSE(frontier.empty());
  for (const SegmentId sid : frontier) {
    EXPECT_FALSE(region.Contains(sid));
    EXPECT_TRUE(net.AreAdjacent(SegmentId{0}, sid));
  }
}

TEST(CloakRegionTest, FrontierAtLeastExpandsRings) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  CloakRegion region(net);
  region.Insert(SegmentId{0});
  int rings = 0;
  const auto big_view = region.FrontierAtLeast(20, &rings);
  const std::vector<SegmentId> big(big_view.begin(), big_view.end());
  EXPECT_GE(big.size(), 20u);
  EXPECT_GT(rings, 1);
  // Deterministic: same call, same answer.
  int rings2 = 0;
  const auto again_view = region.FrontierAtLeast(20, &rings2);
  const std::vector<SegmentId> again(again_view.begin(), again_view.end());
  EXPECT_EQ(again, big);
  EXPECT_EQ(rings, rings2);
}

TEST(CloakRegionTest, FrontierExhaustsComponent) {
  const RoadNetwork net = roadnet::MakeTriangleFixture();
  CloakRegion region(net);
  region.Insert(SegmentId{0});
  region.Insert(SegmentId{1});
  region.Insert(SegmentId{2});
  EXPECT_TRUE(region.Frontier().empty());
}

TEST(CloakRegionTest, UserCountAndBounds) {
  const RoadNetwork net = roadnet::MakeGrid({3, 3, 100.0});
  mobility::OccupancySnapshot occupancy(net.segment_count());
  occupancy.Add(SegmentId{0});
  occupancy.Add(SegmentId{0});
  occupancy.Add(SegmentId{3});
  CloakRegion region(net);
  region.Insert(SegmentId{0});
  EXPECT_EQ(region.UserCount(occupancy), 2u);
  region.Insert(SegmentId{3});
  EXPECT_EQ(region.UserCount(occupancy), 3u);
  EXPECT_GT(region.Bounds().Diagonal(), 0.0);
}

}  // namespace
}  // namespace rcloak::core
