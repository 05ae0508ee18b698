#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>
#include <sstream>

#include "util/bytes.h"
#include "util/rank_bitset.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_writer.h"

namespace rcloak {
namespace {

// -------------------------------------------------------------- RankBitset
// Rank, Select and iteration against a std::set over the same universe,
// through random flips, Clear and CopyFrom. The probed positions include
// the word and Fenwick-block edges 0, 63, 64, 511, 512 and the last rank.
void ExpectMatchesSet(const RankBitset& bits, const std::set<std::uint32_t>& set,
                      std::size_t universe) {
  ASSERT_EQ(bits.count(), set.size());
  std::vector<std::uint32_t> iterated;
  bits.ForEach([&](std::uint32_t i) { iterated.push_back(i); });
  ASSERT_EQ(iterated, std::vector<std::uint32_t>(set.begin(), set.end()));
  std::size_t k = 0;
  for (const std::uint32_t i : set) {
    ASSERT_EQ(bits.Select(k), i) << "select " << k;
    ASSERT_EQ(bits.Rank(i), k) << "rank " << i;
    ++k;
  }
  std::vector<std::uint32_t> probes = {0, 63, 64, 511, 512,
                                       static_cast<std::uint32_t>(universe - 1),
                                       static_cast<std::uint32_t>(universe)};
  for (std::uint32_t i = 0; i <= universe; i += 37) probes.push_back(i);
  for (const std::uint32_t i : probes) {
    if (i > universe) continue;
    const auto expected =
        static_cast<std::size_t>(std::distance(set.begin(), set.lower_bound(i)));
    ASSERT_EQ(bits.Rank(i), expected) << "rank " << i;
    if (i < universe) ASSERT_EQ(bits.Test(i), set.count(i) == 1) << i;
  }
}

TEST(RankBitsetTest, RankSelectAndIterationMatchASet) {
  for (const std::size_t universe : {std::size_t{1}, std::size_t{64},
                                     std::size_t{513}, std::size_t{1000},
                                     std::size_t{9187}}) {
    Xoshiro256 rng(universe);
    RankBitset bits(universe);
    std::set<std::uint32_t> set;
    // The edge ranks, set and cleared first.
    for (const std::uint32_t i :
         {0u, 63u, 64u, 511u, 512u, static_cast<std::uint32_t>(universe - 1)}) {
      if (i >= universe) continue;
      bits.Set(i);
      set.insert(i);
    }
    ExpectMatchesSet(bits, set, universe);
    for (int round = 0; round < 6; ++round) {
      // Sparse rounds leave most words untouched, dense rounds most words
      // dirty: Clear and CopyFrom take both of their paths.
      const std::size_t flips = round % 2 == 0 ? 8 : universe * 2;
      for (std::size_t f = 0; f < flips; ++f) {
        const auto i = static_cast<std::uint32_t>(rng.NextBounded(universe));
        if (rng.NextBounded(3) == 0) {
          bits.Reset(i);
          set.erase(i);
        } else {
          bits.Set(i);  // a repeated Set is a no-op
          set.insert(i);
        }
      }
      ExpectMatchesSet(bits, set, universe);
      RankBitset copy(universe);
      copy.Set(static_cast<std::uint32_t>(universe - 1));
      copy.CopyFrom(bits);
      ExpectMatchesSet(copy, set, universe);
      RankBitset unsized;
      unsized.CopyFrom(bits);
      ExpectMatchesSet(unsized, set, universe);
      if (round % 2 == 0) {
        bits.Clear();
        set.clear();
        ExpectMatchesSet(bits, set, universe);
      }
    }
  }
}

// ------------------------------------------------------------------ Status
TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::ResourceExhausted("sigma_s exceeded");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(s.ToString(), "RESOURCE_EXHAUSTED: sigma_s exceeded");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}
Status UseHalf(int x, int* out) {
  RCLOAK_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::Ok();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(3, &out).code(), ErrorCode::kInvalidArgument);
}

// -------------------------------------------------------------------- RNG
TEST(RngTest, Deterministic) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
  EXPECT_EQ(rng.NextBounded(1), 0u);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Xoshiro256 rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Xoshiro256 rng(7);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(8);
  int counts[10] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - 600);
    EXPECT_LT(c, n / 10 + 600);
  }
}

// ------------------------------------------------------------------ Stats
TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesCombined) {
  RunningStats a, b, all;
  Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.NextDouble(0, 10);
    (i % 2 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(SamplesTest, Percentiles) {
  Samples samples;
  for (int i = 1; i <= 100; ++i) samples.Add(i);
  EXPECT_NEAR(samples.Median(), 50.5, 1e-9);
  EXPECT_NEAR(samples.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(samples.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(samples.Percentile(95), 95.05, 0.1);
}

TEST(EntropyTest, UniformAndDegenerate) {
  EXPECT_NEAR(EntropyBits({1, 1, 1, 1}), 2.0, 1e-12);
  EXPECT_NEAR(EntropyBits({5, 0, 0, 0}), 0.0, 1e-12);
  EXPECT_NEAR(EntropyBits({}), 0.0, 1e-12);
  EXPECT_NEAR(EntropyBits({1, 1}), 1.0, 1e-12);
}

// ------------------------------------------------------------------ Bytes
TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(ToHex(data), "0001abff");
  EXPECT_EQ(FromHex("0001abff").value(), data);
  EXPECT_EQ(FromHex("0001ABFF").value(), data);
  EXPECT_FALSE(FromHex("abc").has_value());
  EXPECT_FALSE(FromHex("zz").has_value());
}

TEST(BytesTest, VarintRoundTrip) {
  for (std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
        0xFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL}) {
    Bytes buf;
    PutVarint(buf, v);
    std::size_t off = 0;
    const auto decoded = GetVarint(buf, &off);
    ASSERT_TRUE(decoded.has_value()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(off, buf.size());
  }
}

TEST(BytesTest, VarintTruncated) {
  Bytes buf;
  PutVarint(buf, 0xFFFFFFFFULL);
  buf.pop_back();
  std::size_t off = 0;
  EXPECT_FALSE(GetVarint(buf, &off).has_value());
}

TEST(BytesTest, FixedWidthRoundTrip) {
  Bytes buf;
  PutU32le(buf, 0xDEADBEEF);
  PutU64le(buf, 0x0123456789ABCDEFULL);
  std::size_t off = 0;
  EXPECT_EQ(GetU32le(buf, &off).value(), 0xDEADBEEFu);
  EXPECT_EQ(GetU64le(buf, &off).value(), 0x0123456789ABCDEFULL);
  EXPECT_FALSE(GetU32le(buf, &off).has_value());  // exhausted
}

// ------------------------------------------------------------ TableWriter
TEST(TableWriterTest, MarkdownShape) {
  TableWriter table({"k", "time_ms"});
  table.AddRow({"5", "1.25"});
  table.AddRow({"10", "2.50"});
  std::ostringstream os;
  table.PrintMarkdown(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| k "), std::string::npos);
  EXPECT_NE(out.find("| 10"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableWriterTest, CsvEscaping) {
  TableWriter table({"name", "value"});
  table.AddRow({"with,comma", "with\"quote"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "name,value\n\"with,comma\",\"with\"\"quote\"\n");
}

TEST(TableWriterTest, Formatters) {
  EXPECT_EQ(TableWriter::Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::Int(-42), "-42");
}

}  // namespace
}  // namespace rcloak
