#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/rng.h"

#include "geo/geometry.h"
#include "roadnet/generators.h"
#include "roadnet/graph_stats.h"
#include "roadnet/alt_routing.h"
#include "roadnet/io.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "roadnet/spatial_index.h"

namespace rcloak::roadnet {
namespace {

// -------------------------------------------------------------- geometry
TEST(GeometryTest, PointSegmentDistance) {
  EXPECT_DOUBLE_EQ(
      geo::PointSegmentDistance({0, 1}, {-1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(
      geo::PointSegmentDistance({5, 0}, {-1, 0}, {1, 0}), 4.0);
  EXPECT_DOUBLE_EQ(
      geo::PointSegmentDistance({0, 0}, {0, 0}, {0, 0}), 0.0);
}

TEST(GeometryTest, BoundingBox) {
  geo::BoundingBox box;
  EXPECT_TRUE(box.empty());
  box.Extend(geo::Point{0, 0});
  box.Extend(geo::Point{3, 4});
  EXPECT_DOUBLE_EQ(box.Area(), 12.0);
  EXPECT_DOUBLE_EQ(box.Diagonal(), 5.0);
  EXPECT_TRUE(box.Contains({1, 1}));
  EXPECT_FALSE(box.Contains({5, 5}));
}

// ---------------------------------------------------------------- builder
TEST(RoadNetworkTest, BuildTriangle) {
  const RoadNetwork net = MakeTriangleFixture();
  EXPECT_EQ(net.junction_count(), 3u);
  EXPECT_EQ(net.segment_count(), 3u);
  EXPECT_TRUE(net.Validate().ok());
  // Every segment is adjacent to the two others.
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(net.AdjacentSegments(SegmentId{i}).size(), 2u);
  }
  EXPECT_TRUE(net.AreAdjacent(SegmentId{0}, SegmentId{1}));
  EXPECT_FALSE(net.AreAdjacent(SegmentId{0}, SegmentId{0}));
}

TEST(RoadNetworkTest, BuilderRejectsSelfLoopAndBadIds) {
  RoadNetwork::Builder builder;
  const JunctionId a = builder.AddJunction({0, 0});
  const JunctionId b = builder.AddJunction({1, 0});
  EXPECT_FALSE(builder.AddSegment(a, a).ok());
  EXPECT_FALSE(builder.AddSegment(a, JunctionId{99}).ok());
  EXPECT_TRUE(builder.AddSegment(a, b).ok());
}

TEST(RoadNetworkTest, BuilderRejectsCoincidentJunctions) {
  RoadNetwork::Builder builder;
  const JunctionId a = builder.AddJunction({1, 1});
  const JunctionId b = builder.AddJunction({1, 1});
  EXPECT_FALSE(builder.AddSegment(a, b).ok());
  // Explicit positive length overrides the degenerate geometry.
  EXPECT_TRUE(builder.AddSegment(a, b, RoadClass::kResidential, 5.0).ok());
}

TEST(RoadNetworkTest, SegmentGeometryHelpers) {
  const RoadNetwork net = MakeTriangleFixture();
  const auto mid = net.SegmentMidpoint(SegmentId{0});
  EXPECT_DOUBLE_EQ(mid.x, 50.0);
  EXPECT_DOUBLE_EQ(mid.y, 0.0);
  EXPECT_DOUBLE_EQ(net.SegmentBounds(SegmentId{0}).width(), 100.0);
}

// ------------------------------------------------------------- generators
TEST(GeneratorsTest, GridCountsAndDegrees) {
  const RoadNetwork net = MakeGrid({4, 5, 100.0});
  EXPECT_EQ(net.junction_count(), 20u);
  // Edges: 4*(5-1) horizontal + 5*(4-1) vertical = 16 + 15.
  EXPECT_EQ(net.segment_count(), 31u);
  EXPECT_TRUE(net.Validate().ok());
  const auto stats = ComputeStats(net);
  EXPECT_EQ(stats.max_degree, 4u);
  EXPECT_EQ(stats.connected_components, 1u);
}

TEST(GeneratorsTest, PerturbedGridConnectedAndSparse) {
  PerturbedGridOptions options;
  options.rows = 20;
  options.cols = 20;
  options.seed = 3;
  const RoadNetwork net = MakePerturbedGrid(options);
  EXPECT_TRUE(net.Validate().ok());
  const auto stats = ComputeStats(net);
  EXPECT_EQ(stats.connected_components, 1u);
  EXPECT_LT(stats.avg_degree, 4.0);
  EXPECT_GT(stats.avg_degree, 1.5);
}

TEST(GeneratorsTest, PerturbedGridDeterministicInSeed) {
  PerturbedGridOptions options;
  options.rows = 12;
  options.cols = 12;
  options.seed = 9;
  const RoadNetwork a = MakePerturbedGrid(options);
  const RoadNetwork b = MakePerturbedGrid(options);
  EXPECT_EQ(a.junction_count(), b.junction_count());
  EXPECT_EQ(a.segment_count(), b.segment_count());
  options.seed = 10;
  const RoadNetwork c = MakePerturbedGrid(options);
  EXPECT_NE(a.segment_count(), c.segment_count());
}

TEST(GeneratorsTest, AtlantaProfileMatchesPaperScale) {
  const RoadNetwork net = MakePerturbedGrid(AtlantaNwProfile());
  // Paper: 6,979 junctions / 9,187 segments. The calibrated generator must
  // land within 10% on both axes.
  EXPECT_NEAR(static_cast<double>(net.junction_count()), 6979.0, 698.0);
  EXPECT_NEAR(static_cast<double>(net.segment_count()), 9187.0, 919.0);
  const auto stats = ComputeStats(net);
  EXPECT_EQ(stats.connected_components, 1u);
  EXPECT_NEAR(stats.avg_degree, 2.63, 0.4);
}

// The length rank every cloak-region view is indexed by must be exactly
// the (length, id) sort: a rank built without the id tiebreak would
// reorder equal-length segments (every segment of a perfect grid).
void ExpectLengthRankIsLengthIdSort(const RoadNetwork& net) {
  std::vector<std::pair<double, std::uint32_t>> expected;
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    expected.emplace_back(net.segment(SegmentId{i}).length, i);
  }
  std::sort(expected.begin(), expected.end());
  for (std::uint32_t r = 0; r < expected.size(); ++r) {
    const SegmentId sid{expected[r].second};
    ASSERT_EQ(net.SegmentAtLengthRank(r), sid) << "rank " << r;
    ASSERT_EQ(net.LengthRank(sid), r) << "segment " << expected[r].second;
  }
}

TEST(GeneratorsTest, LengthRankIsTheLengthIdSortOnEveryGenerator) {
  const RoadNetwork grid = MakeGrid({7, 9, 100.0});
  // A perfect grid's segments all tie on length: the id alone orders them.
  for (std::uint32_t i = 1; i < grid.segment_count(); ++i) {
    ASSERT_EQ(grid.segment(SegmentId{i}).length,
              grid.segment(SegmentId{0}).length);
  }
  ExpectLengthRankIsLengthIdSort(grid);
  PerturbedGridOptions perturbed;
  perturbed.rows = 12;
  perturbed.cols = 12;
  perturbed.seed = 5;
  ExpectLengthRankIsLengthIdSort(MakePerturbedGrid(perturbed));
  ExpectLengthRankIsLengthIdSort(MakePerturbedGrid(AtlantaNwProfile()));
  ExpectLengthRankIsLengthIdSort(MakeRadial({3, 8, 100.0, 1}));
  ExpectLengthRankIsLengthIdSort(MakeTriangleFixture());
  ExpectLengthRankIsLengthIdSort(MakePaperFigure1Like());
  ExpectLengthRankIsLengthIdSort(MakeLine(40));
  ExpectLengthRankIsLengthIdSort(MakeCycle(30));
  // A map read back from disk builds its rank too.
  std::stringstream stream;
  WriteNetwork(stream, MakePerturbedGrid(perturbed));
  const auto loaded = ReadNetwork(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectLengthRankIsLengthIdSort(*loaded);
}

TEST(GeneratorsTest, RadialStructure) {
  const RoadNetwork net = MakeRadial({3, 8, 100.0, 1});
  EXPECT_EQ(net.junction_count(), 1u + 3u * 8u);
  // spokes: 8 center + 8*2 between rings; rings: 3*8.
  EXPECT_EQ(net.segment_count(), 8u + 16u + 24u);
  EXPECT_TRUE(net.Validate().ok());
  EXPECT_EQ(ComputeStats(net).connected_components, 1u);
}

// ---------------------------------------------------------- shortest path
TEST(ShortestPathTest, GridManhattanDistance) {
  const RoadNetwork net = MakeGrid({5, 5, 100.0});
  // Corner (0,0) is junction 0; corner (4,4) is junction 24.
  const auto path = ShortestPath(net, JunctionId{0}, JunctionId{24});
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 800.0);
  EXPECT_EQ(path->segments.size(), 8u);
  EXPECT_EQ(path->junctions.front(), JunctionId{0});
  EXPECT_EQ(path->junctions.back(), JunctionId{24});
  // Path is contiguous.
  for (std::size_t i = 0; i < path->segments.size(); ++i) {
    const auto& segment = net.segment(path->segments[i]);
    EXPECT_TRUE(segment.Touches(path->junctions[i]));
    EXPECT_TRUE(segment.Touches(path->junctions[i + 1]));
  }
}

TEST(ShortestPathTest, AStarMatchesDijkstra) {
  PerturbedGridOptions options;
  options.rows = 15;
  options.cols = 15;
  options.seed = 4;
  const RoadNetwork net = MakePerturbedGrid(options);
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const JunctionId s{static_cast<std::uint32_t>(
        rng.NextBounded(net.junction_count()))};
    const JunctionId t{static_cast<std::uint32_t>(
        rng.NextBounded(net.junction_count()))};
    const auto d = ShortestPath(net, s, t);
    const auto a = ShortestPathAStar(net, s, t);
    ASSERT_EQ(d.has_value(), a.has_value());
    if (d) EXPECT_NEAR(d->cost, a->cost, 1e-6);
  }
}

TEST(ShortestPathTest, SameSourceAndTarget) {
  const RoadNetwork net = MakeGrid({3, 3, 100.0});
  const auto path = ShortestPath(net, JunctionId{4}, JunctionId{4});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->cost, 0.0);
  EXPECT_TRUE(path->segments.empty());
}

TEST(ShortestPathTest, TravelTimePrefersFasterRoads) {
  // Two routes of equal length; one is highway.
  RoadNetwork::Builder builder;
  const auto a = builder.AddJunction({0, 0});
  const auto mid_slow = builder.AddJunction({50, 50});
  const auto mid_fast = builder.AddJunction({50, -50});
  const auto b = builder.AddJunction({100, 0});
  (void)builder.AddSegment(a, mid_slow, RoadClass::kResidential);
  (void)builder.AddSegment(mid_slow, b, RoadClass::kResidential);
  (void)builder.AddSegment(a, mid_fast, RoadClass::kHighway);
  (void)builder.AddSegment(mid_fast, b, RoadClass::kHighway);
  const RoadNetwork net = builder.Build();
  const auto path = ShortestPath(net, a, b, PathMetric::kTravelTime);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->junctions.size(), 3u);
  EXPECT_EQ(path->junctions[1], mid_fast);
}

TEST(ShortestPathTest, TreeDistances) {
  const RoadNetwork net = MakeGrid({4, 4, 100.0});
  const auto dist = ShortestPathTree(net, JunctionId{0});
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[15], 600.0);  // opposite corner
}

TEST(ComponentsTest, DisconnectedGraph) {
  RoadNetwork::Builder builder;
  const auto a = builder.AddJunction({0, 0});
  const auto b = builder.AddJunction({1, 0});
  const auto c = builder.AddJunction({10, 10});
  const auto d = builder.AddJunction({11, 10});
  (void)builder.AddSegment(a, b);
  (void)builder.AddSegment(c, d);
  const RoadNetwork net = builder.Build();
  const auto components = ConnectedComponents(net);
  EXPECT_EQ(components.count, 2u);
  EXPECT_EQ(components.component_of_junction[0],
            components.component_of_junction[1]);
  EXPECT_NE(components.component_of_junction[0],
            components.component_of_junction[2]);
  // Unreachable target.
  EXPECT_FALSE(ShortestPath(net, a, c).has_value());
}

// ------------------------------------------------------------- ALT routing
TEST(AltRoutingTest, MatchesDijkstraOnPerturbedGrid) {
  PerturbedGridOptions options;
  options.rows = 18;
  options.cols = 18;
  options.seed = 6;
  const RoadNetwork net = MakePerturbedGrid(options);
  const AltRouter alt(net, 6);
  EXPECT_EQ(alt.num_landmarks(), 6u);
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const JunctionId s{static_cast<std::uint32_t>(
        rng.NextBounded(net.junction_count()))};
    const JunctionId t{static_cast<std::uint32_t>(
        rng.NextBounded(net.junction_count()))};
    const auto d = ShortestPath(net, s, t);
    const auto l = alt.Route(s, t);
    ASSERT_EQ(d.has_value(), l.has_value());
    if (d) {
      EXPECT_NEAR(d->cost, l->cost, 1e-6) << trial;
      // Path is contiguous and ends correctly.
      EXPECT_EQ(l->junctions.front(), s);
      EXPECT_EQ(l->junctions.back(), t);
    }
  }
  EXPECT_EQ(alt.stats().queries, 30u);
}

TEST(AltRoutingTest, HandlesDisconnectedTargets) {
  RoadNetwork::Builder builder;
  const auto a = builder.AddJunction({0, 0});
  const auto b = builder.AddJunction({1, 0});
  const auto c = builder.AddJunction({10, 10});
  const auto d = builder.AddJunction({11, 10});
  (void)builder.AddSegment(a, b);
  (void)builder.AddSegment(c, d);
  const RoadNetwork net = builder.Build();
  const AltRouter alt(net, 2);
  EXPECT_FALSE(alt.Route(a, c).has_value());
  EXPECT_TRUE(alt.Route(a, b).has_value());
}

TEST(AltRoutingTest, LandmarksAreFarApart) {
  const RoadNetwork net = MakeGrid({12, 12, 100.0});
  const AltRouter alt(net, 4);
  // Farthest-point selection on a grid picks spread-out junctions: the
  // pairwise midpoint distances must be large relative to the map.
  const auto& landmarks = alt.landmarks();
  double min_pairwise = 1e18;
  for (std::size_t i = 0; i < landmarks.size(); ++i) {
    for (std::size_t j = i + 1; j < landmarks.size(); ++j) {
      min_pairwise = std::min(
          min_pairwise,
          geo::Distance(net.junction(landmarks[i]).position,
                        net.junction(landmarks[j]).position));
    }
  }
  EXPECT_GT(min_pairwise, 400.0);  // at least a few blocks apart
}

// ----------------------------------------------------------- spatial index
TEST(SpatialIndexTest, NearestMatchesBruteForce) {
  PerturbedGridOptions options;
  options.rows = 12;
  options.cols = 12;
  options.seed = 5;
  const RoadNetwork net = MakePerturbedGrid(options);
  const SpatialIndex index(net);
  Xoshiro256 rng(17);
  const auto box = net.bounds();
  for (int trial = 0; trial < 25; ++trial) {
    const geo::Point q{rng.NextDouble(box.min_x, box.max_x),
                       rng.NextDouble(box.min_y, box.max_y)};
    const SegmentId got = index.NearestOne(q);
    SegmentId want{0};
    double best = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
      const double d =
          geo::DistanceSquared(net.SegmentMidpoint(SegmentId{i}), q);
      if (d < best) {
        best = d;
        want = SegmentId{i};
      }
    }
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(SpatialIndexTest, KNearestSortedAndComplete) {
  const RoadNetwork net = MakeGrid({6, 6, 100.0});
  const SpatialIndex index(net);
  const geo::Point q = net.bounds().Center();
  const auto nearest = index.Nearest(q, 10);
  ASSERT_EQ(nearest.size(), 10u);
  for (std::size_t i = 1; i < nearest.size(); ++i) {
    EXPECT_LE(geo::Distance(net.SegmentMidpoint(nearest[i - 1]), q),
              geo::Distance(net.SegmentMidpoint(nearest[i]), q) + 1e-9);
  }
  // k larger than segment count clips.
  EXPECT_EQ(index.Nearest(q, 10000).size(), net.segment_count());
}

TEST(SpatialIndexTest, NearestCursorMatchesNearestPrefixes) {
  PerturbedGridOptions options;
  options.rows = 10;
  options.cols = 10;
  options.seed = 23;
  const RoadNetwork net = MakePerturbedGrid(options);
  const SpatialIndex index(net);
  Xoshiro256 rng(71);
  const auto box = net.bounds();
  for (int trial = 0; trial < 10; ++trial) {
    const geo::Point q{rng.NextDouble(box.min_x, box.max_x),
                       rng.NextDouble(box.min_y, box.max_y)};
    // The cursor must yield exactly the Nearest(q, n) prefix for every n,
    // then report exhaustion.
    SpatialIndex::NearestCursor cursor(index, q);
    const auto all = index.Nearest(q, net.segment_count());
    ASSERT_EQ(all.size(), net.segment_count());
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(cursor.Next(), all[i]) << "trial " << trial << " rank " << i;
    }
    EXPECT_EQ(cursor.Next(), kInvalidSegment);
    EXPECT_EQ(cursor.Next(), kInvalidSegment);
  }
  // Interior query with a fresh cursor: the first k draws equal Nearest(k).
  const geo::Point center = box.Center();
  SpatialIndex::NearestCursor cursor(index, center);
  const auto top = index.Nearest(center, 7);
  for (const SegmentId sid : top) EXPECT_EQ(cursor.Next(), sid);
}

TEST(SpatialIndexTest, WithinRadius) {
  const RoadNetwork net = MakeGrid({5, 5, 100.0});
  const SpatialIndex index(net);
  const auto all = index.WithinRadius(net.bounds().Center(), 1e6);
  EXPECT_EQ(all.size(), net.segment_count());
  const auto none = index.WithinRadius({-1e6, -1e6}, 1.0);
  EXPECT_TRUE(none.empty());
}

// -------------------------------------------------------------------- io
TEST(IoTest, RoundTrip) {
  PerturbedGridOptions options;
  options.rows = 8;
  options.cols = 8;
  options.seed = 21;
  const RoadNetwork net = MakePerturbedGrid(options);
  std::stringstream stream;
  WriteNetwork(stream, net);
  const auto loaded = ReadNetwork(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->junction_count(), net.junction_count());
  EXPECT_EQ(loaded->segment_count(), net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    EXPECT_EQ(loaded->segment(SegmentId{i}).a, net.segment(SegmentId{i}).a);
    EXPECT_DOUBLE_EQ(loaded->segment(SegmentId{i}).length,
                     net.segment(SegmentId{i}).length);
  }
}

TEST(IoTest, RejectsGarbage) {
  {
    std::stringstream stream("not a map");
    EXPECT_FALSE(ReadNetwork(stream).ok());
  }
  {
    std::stringstream stream("rcloak-map 1\njunctions 2\nj 0 0\n");
    EXPECT_FALSE(ReadNetwork(stream).ok());  // truncated
  }
  {
    std::stringstream stream(
        "rcloak-map 1\njunctions 2\nj 0 0\nj 1 0\nsegments 1\ns 0 7 0 -1\n");
    EXPECT_FALSE(ReadNetwork(stream).ok());  // bad junction ref
  }
}

TEST(IoTest, CommentsAndFileApi) {
  const RoadNetwork net = MakeTriangleFixture();
  const std::string path = testing::TempDir() + "/net.rcmap";
  ASSERT_TRUE(SaveNetworkFile(path, net).ok());
  const auto loaded = LoadNetworkFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->segment_count(), 3u);
  EXPECT_FALSE(LoadNetworkFile("/nonexistent/x.map").ok());
}

// ------------------------------------------------------------------ stats
TEST(GraphStatsTest, TriangleStats) {
  const auto stats = ComputeStats(MakeTriangleFixture());
  EXPECT_EQ(stats.junctions, 3u);
  EXPECT_EQ(stats.segments, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 2.0);
  EXPECT_EQ(stats.connected_components, 1u);
  EXPECT_GT(stats.avg_segment_length, 0.0);
}

}  // namespace
}  // namespace rcloak::roadnet
