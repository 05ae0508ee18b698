// End-to-end tests of the public facade: Anonymizer -> artifact codec ->
// Deanonymizer, both algorithms, all reduction levels, failure modes.
#include <gtest/gtest.h>

#include "core/algorithm.h"
#include "core/artifact.h"
#include "core/reversecloak.h"
#include "mobility/simulator.h"
#include "roadnet/generators.h"
#include "roadnet/spatial_index.h"

namespace rcloak::core {
namespace {

using roadnet::RoadNetwork;
using roadnet::SegmentId;

mobility::OccupancySnapshot OnePerSegment(const RoadNetwork& net) {
  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    occupancy.Add(SegmentId{i});
  }
  return occupancy;
}

std::map<int, crypto::AccessKey> AllKeys(const crypto::KeyChain& keys) {
  std::map<int, crypto::AccessKey> granted;
  for (int level = 1; level <= keys.num_levels(); ++level) {
    granted.emplace(level, keys.LevelKey(level));
  }
  return granted;
}

class EndToEndTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(EndToEndTest, FullPipelineEveryReductionLevel) {
  const RoadNetwork net = roadnet::MakeGrid({14, 14, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net), /*rple_T=*/6);
  const auto keys = crypto::KeyChain::FromSeed(1001, 3);

  AnonymizeRequest request;
  request.origin = SegmentId{190};
  request.profile = PrivacyProfile(
      {{4, 2, 1e9}, {12, 4, 1e9}, {30, 8, 1e9}});
  request.algorithm = GetParam();
  request.context = "user1/req1";

  const auto result = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CloakedArtifact& artifact = result->artifact;
  ASSERT_EQ(artifact.num_levels(), 3);
  EXPECT_EQ(artifact.levels.back().region_size,
            artifact.region_segments.size());

  // Serialize / deserialize.
  const Bytes encoded = EncodeArtifact(artifact);
  const auto decoded = DecodeArtifact(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  Deanonymizer deanonymizer(net);
  // No keys: only the full region.
  const auto full = deanonymizer.FullRegion(*decoded);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), artifact.region_segments.size());

  // Reduce to every level including L0.
  const auto granted = AllKeys(keys);
  std::size_t previous_size = artifact.region_segments.size() + 1;
  for (int target = 3; target >= 0; --target) {
    const auto reduced = deanonymizer.Reduce(*decoded, granted, target);
    ASSERT_TRUE(reduced.ok())
        << "target " << target << ": " << reduced.status().ToString();
    if (target > 0) {
      EXPECT_EQ(reduced->size(),
                artifact.levels[static_cast<std::size_t>(target - 1)]
                    .region_size);
    } else {
      ASSERT_EQ(reduced->size(), 1u);
      EXPECT_EQ(reduced->segments_by_id().front(), request.origin);
    }
    EXPECT_LT(reduced->size(), previous_size);
    previous_size = reduced->size();
    // Every reduced region still contains the origin (correctness of
    // multi-level nesting).
    EXPECT_TRUE(reduced->Contains(request.origin));
  }
}

TEST_P(EndToEndTest, MissingKeyBlocksReduction) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  const auto keys = crypto::KeyChain::FromSeed(7, 2);

  AnonymizeRequest request;
  request.origin = SegmentId{100};
  request.profile = PrivacyProfile({{4, 2, 1e9}, {12, 4, 1e9}});
  request.algorithm = GetParam();
  request.context = "u/r";
  const auto result = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Deanonymizer deanonymizer(net);
  // Only the inner key (level 1): cannot reduce anything — level 2 must be
  // peeled first.
  std::map<int, crypto::AccessKey> only_inner{{1, keys.LevelKey(1)}};
  const auto blocked = deanonymizer.Reduce(result->artifact, only_inner, 1);
  EXPECT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), ErrorCode::kFailedPrecondition);

  // Only the outer key: can reduce to level 1 but not to 0.
  std::map<int, crypto::AccessKey> only_outer{{2, keys.LevelKey(2)}};
  const auto to_l1 = deanonymizer.Reduce(result->artifact, only_outer, 1);
  ASSERT_TRUE(to_l1.ok()) << to_l1.status().ToString();
  EXPECT_EQ(to_l1->size(), result->artifact.levels[0].region_size);
  EXPECT_FALSE(deanonymizer.Reduce(result->artifact, only_outer, 0).ok());
}

TEST_P(EndToEndTest, WrongMapRefused) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  const RoadNetwork other = roadnet::MakeGrid({12, 13, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  const auto keys = crypto::KeyChain::FromSeed(7, 1);

  AnonymizeRequest request;
  request.origin = SegmentId{50};
  request.profile = PrivacyProfile::SingleLevel({5, 2, 1e9});
  request.algorithm = GetParam();
  request.context = "u/r";
  const auto result = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(result.ok());

  Deanonymizer deanonymizer(other);
  const auto reduced =
      deanonymizer.Reduce(result->artifact, AllKeys(keys), 0);
  EXPECT_FALSE(reduced.ok());
  EXPECT_EQ(reduced.status().code(), ErrorCode::kFailedPrecondition);
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, EndToEndTest,
                         ::testing::Values(Algorithm::kRge, Algorithm::kRple),
                         [](const auto& info) {
                           return std::string(AlgorithmName(info.param));
                         });

TEST(AnonymizerTest, ValidatesInputs) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  const auto keys = crypto::KeyChain::FromSeed(1, 2);

  AnonymizeRequest request;
  request.origin = SegmentId{5};
  request.profile = PrivacyProfile::SingleLevel({5, 2, 1e9});
  request.context = "ctx";

  {
    AnonymizeRequest bad = request;
    bad.origin = SegmentId{99999};
    EXPECT_FALSE(anonymizer.Anonymize(bad, keys).ok());
  }
  {
    AnonymizeRequest bad = request;
    bad.context.clear();
    EXPECT_FALSE(anonymizer.Anonymize(bad, keys).ok());
  }
  {
    AnonymizeRequest bad = request;
    bad.profile = PrivacyProfile({{5, 2, 1e9}, {4, 2, 1e9}});  // decreasing k
    EXPECT_FALSE(anonymizer.Anonymize(bad, keys).ok());
  }
  {
    AnonymizeRequest bad = request;
    bad.profile = PrivacyProfile({{5, 2, 1e9}, {6, 2, 1e9}, {7, 2, 1e9}});
    // Three levels but only two keys.
    EXPECT_FALSE(anonymizer.Anonymize(bad, keys).ok());
  }
  for (const int sealed_level : {-1, 2}) {
    AnonymizeRequest bad = request;
    bad.sealed_level = sealed_level;  // the profile has one level
    EXPECT_EQ(anonymizer.Anonymize(bad, keys).status().code(),
              ErrorCode::kInvalidArgument);
  }
}

// An out-of-tree reversible backend: RGE's strategy under a wire id of its
// own, registered the way third-party backends are.
class RegisteredRge final : public CloakAlgorithm {
 public:
  static constexpr Algorithm kId = static_cast<Algorithm>(42);

  Algorithm id() const noexcept override { return kId; }
  std::string_view name() const noexcept override { return "RegisteredRge"; }
  Status Begin(const MapContext& ctx, EngineSession& session,
               std::uint32_t rple_T) const override {
    return Rge().Begin(ctx, session, rple_T);
  }
  StatusOr<LevelRecord> AnonymizeLevel(
      const MapContext& ctx, EngineSession& session,
      const crypto::AccessKey& key, const std::string& request_context,
      int level_index, const LevelRequirement& requirement) const override {
    return Rge().AnonymizeLevel(ctx, session, key, request_context,
                                level_index, requirement);
  }
  Status BeginReduce(const MapContext& ctx, const CloakedArtifact& artifact,
                     ReduceSession& session) const override {
    return Rge().BeginReduce(ctx, artifact, session);
  }
  Status DeanonymizeLevel(const MapContext& ctx,
                          const CloakedArtifact& artifact,
                          ReduceSession& session, CloakRegion& region,
                          const crypto::AccessKey& key, int level_index,
                          const LevelRecord& record,
                          std::uint32_t prev_region_size) const override {
    return Rge().DeanonymizeLevel(ctx, artifact, session, region, key,
                                  level_index, record, prev_region_size);
  }

 private:
  static const CloakAlgorithm& Rge() { return *FindAlgorithm(Algorithm::kRge); }
};

Algorithm RegisteredRgeId() {
  static const RegisteredRge algorithm;
  static const bool registered = RegisterAlgorithm(&algorithm).ok();
  EXPECT_TRUE(registered);
  return RegisteredRge::kId;
}

// The region Anonymize copies out as it seals level L is exactly what the
// keyed reduce recovers from the artifact with keys L+1..N: every
// reversible backend (built-in or registered), profiles of 2-4 levels,
// every inner level, many origins and contexts. Asking for it changes no
// artifact byte.
TEST(SealedRegionTest, EqualsKeyedReduceForEveryInnerLevel) {
  const RoadNetwork net = roadnet::MakeGrid({14, 14, 100.0});
  const auto ctx = MapContext::Create(net);
  Anonymizer anonymizer(ctx, OnePerSegment(net), /*rple_T=*/6);
  Deanonymizer deanonymizer(ctx);
  const std::vector<PrivacyProfile> profiles = {
      PrivacyProfile({{5, 3, 1e9}, {14, 6, 1e9}}),
      PrivacyProfile({{4, 2, 1e9}, {12, 4, 1e9}, {30, 8, 1e9}}),
      PrivacyProfile(
          {{3, 2, 1e9}, {8, 3, 1e9}, {16, 5, 1e9}, {32, 8, 1e9}}),
  };
  std::size_t checked = 0;
  for (const Algorithm algorithm : {Algorithm::kRge, Algorithm::kRple,
                                    Algorithm::kGrid, RegisteredRgeId()}) {
    for (const PrivacyProfile& profile : profiles) {
      const int levels = profile.num_levels();
      for (std::uint32_t i = 0; i < 10; ++i) {
        const SegmentId origin{static_cast<std::uint32_t>(
            (11 + 47 * i) % net.segment_count())};
        for (int sealed = 1; sealed < levels; ++sealed) {
          SCOPED_TRACE(std::string(AlgorithmName(algorithm)) + " levels=" +
                       std::to_string(levels) + " origin=" +
                       std::to_string(roadnet::Index(origin)) +
                       " sealed=" + std::to_string(sealed));
          const auto keys =
              crypto::KeyChain::FromSeed(7000 + 100 * i + sealed, levels);
          AnonymizeRequest request;
          request.origin = origin;
          request.profile = profile;
          request.algorithm = algorithm;
          request.context = "sealed/" + std::to_string(levels) + "/" +
                            std::to_string(i) + "/" + std::to_string(sealed);
          const auto plain = anonymizer.Anonymize(request, keys);
          ASSERT_TRUE(plain.ok()) << plain.status().ToString();
          EXPECT_TRUE(plain->sealed_region.empty());
          request.sealed_level = sealed;
          const auto result = anonymizer.Anonymize(request, keys);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_EQ(EncodeArtifact(result->artifact),
                    EncodeArtifact(plain->artifact));

          std::map<int, crypto::AccessKey> granted;
          for (int level = sealed + 1; level <= levels; ++level) {
            granted.emplace(level, keys.LevelKey(level));
          }
          const auto reduced =
              deanonymizer.Reduce(result->artifact, granted, sealed);
          ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
          EXPECT_EQ(result->sealed_region, reduced->segments_by_id());
          // Exact-size, like a copy out of a CloakRegion: a session's
          // budgeted footprint counts the region's capacity.
          EXPECT_EQ(result->sealed_region.capacity(),
                    result->sealed_region.size());
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 4u * 10u * (1u + 2u + 3u));
}

// A non-reversible backend has no keyed reduce for a sealed region to
// stand in for, so it seals none.
TEST(SealedRegionTest, NonReversibleBackendSealsNothing) {
  const RoadNetwork net = roadnet::MakeGrid({12, 12, 100.0});
  Anonymizer anonymizer(net, OnePerSegment(net));
  AnonymizeRequest request;
  request.origin = SegmentId{40};
  request.profile = PrivacyProfile({{5, 3, 1e9}, {14, 6, 1e9}});
  request.algorithm = Algorithm::kRandomExpand;
  request.context = "baseline/sealed";
  request.sealed_level = 1;
  const auto result =
      anonymizer.Anonymize(request, crypto::KeyChain::FromSeed(5, 2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->sealed_region.empty());
}

TEST(AnonymizerTest, RealisticOccupancyFromSimulator) {
  // The paper's pipeline: cars spawned Gaussian, occupancy snapshot, k from
  // actual user counts.
  const RoadNetwork net = roadnet::MakeGrid({15, 15, 100.0});
  const roadnet::SpatialIndex index(net);
  mobility::SpawnOptions spawn;
  spawn.num_cars = 2000;
  spawn.seed = 3;
  const auto cars = mobility::SpawnCars(net, index, spawn);
  Anonymizer anonymizer(net, mobility::Occupancy(net, cars));
  const auto keys = crypto::KeyChain::FromSeed(77, 2);

  AnonymizeRequest request;
  request.origin = index.NearestOne(net.bounds().Center());
  request.profile = PrivacyProfile({{20, 3, 1e9}, {60, 6, 1e9}});
  request.algorithm = Algorithm::kRge;
  request.context = "sim/req";
  const auto result = anonymizer.Anonymize(request, keys);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Deanonymizer deanonymizer(net);
  const auto reduced =
      deanonymizer.Reduce(result->artifact, AllKeys(keys), 0);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(reduced->segments_by_id().front(), request.origin);
  // Achieved anonymity really is >= requested at each level.
  const auto l1 = deanonymizer.Reduce(result->artifact, AllKeys(keys), 1);
  ASSERT_TRUE(l1.ok());
  EXPECT_GE(l1->UserCount(anonymizer.occupancy()), 20u);
  const auto l2 = deanonymizer.FullRegion(result->artifact);
  ASSERT_TRUE(l2.ok());
  EXPECT_GE(l2->UserCount(anonymizer.occupancy()), 60u);
}

// ------------------------------------------------------------ artifact io
TEST(ArtifactCodecTest, RoundTrip) {
  CloakedArtifact artifact;
  artifact.algorithm = Algorithm::kRple;
  artifact.context = "user42/req7";
  artifact.map_fingerprint = 0xDEADBEEFCAFEF00DULL;
  artifact.rple_T = 6;
  artifact.levels.push_back({10, 123456789ULL, 0xAABBCCDD, {1, 2, 3, 4}});
  artifact.levels.push_back({25, 987654321ULL, 0x11223344, {9, 8, 7}});
  for (std::uint32_t id : {3u, 17u, 17u + 127u, 4000u, 4001u}) {
    artifact.region_segments.push_back(SegmentId{id});
  }
  artifact.levels.back().region_size =
      static_cast<std::uint32_t>(artifact.region_segments.size());

  const Bytes encoded = EncodeArtifact(artifact);
  const auto decoded = DecodeArtifact(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->algorithm, artifact.algorithm);
  EXPECT_EQ(decoded->context, artifact.context);
  EXPECT_EQ(decoded->map_fingerprint, artifact.map_fingerprint);
  EXPECT_EQ(decoded->rple_T, artifact.rple_T);
  ASSERT_EQ(decoded->levels.size(), 2u);
  EXPECT_EQ(decoded->levels[0].seal, artifact.levels[0].seal);
  EXPECT_EQ(decoded->levels[1].step_bits_blinded,
            artifact.levels[1].step_bits_blinded);
  EXPECT_EQ(decoded->region_segments, artifact.region_segments);
}

// ReduceBatch is the amortized path (one table resolution per algorithm/T
// run): every element must be byte-identical to the looped Reduce it
// replaces, including the error cases.
TEST(DeanonymizerBatchTest, ReduceBatchMatchesLoopedReduce) {
  const RoadNetwork net = roadnet::MakeGrid({14, 14, 100.0});
  const auto ctx = MapContext::Create(net);
  Anonymizer anonymizer(ctx, OnePerSegment(net), /*rple_T=*/6);
  Deanonymizer deanonymizer(ctx);

  // A mixed batch: RGE and RPLE artifacts, several origins and targets,
  // plus a non-reversible baseline artifact and a missing-key job.
  std::vector<CloakedArtifact> artifacts;
  std::vector<crypto::KeyChain> chains;
  for (int i = 0; i < 6; ++i) {
    AnonymizeRequest request;
    request.origin = SegmentId{static_cast<std::uint32_t>(20 + 31 * i)};
    request.profile = PrivacyProfile({{5, 3, 1e9}, {14, 6, 1e9}});
    request.algorithm = i < 3 ? Algorithm::kRge
                              : (i < 5 ? Algorithm::kRple
                                       : Algorithm::kRandomExpand);
    request.context = "batch/" + std::to_string(i);
    chains.push_back(crypto::KeyChain::FromSeed(4400 + i, 2));
    const auto result = anonymizer.Anonymize(request, chains.back());
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    artifacts.push_back(result->artifact);
  }

  std::vector<std::map<int, crypto::AccessKey>> granted;
  for (const auto& chain : chains) granted.push_back(AllKeys(chain));
  const std::map<int, crypto::AccessKey> no_keys;

  std::vector<Deanonymizer::ReduceJob> jobs;
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    jobs.push_back({&artifacts[i], &granted[i], static_cast<int>(i % 3)});
  }
  jobs.push_back({&artifacts[0], &no_keys, 0});  // missing keys
  jobs.push_back({nullptr, &granted[0], 0});     // malformed job

  const auto batched = deanonymizer.ReduceBatch(jobs);
  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].artifact == nullptr) {
      EXPECT_EQ(batched[i].status().code(), ErrorCode::kInvalidArgument);
      continue;
    }
    const auto looped = deanonymizer.Reduce(
        *jobs[i].artifact, *jobs[i].granted_keys, jobs[i].target_level);
    ASSERT_EQ(batched[i].ok(), looped.ok()) << i;
    if (looped.ok()) {
      EXPECT_EQ(batched[i]->segments_by_id(), looped->segments_by_id()) << i;
    } else {
      EXPECT_EQ(batched[i].status().code(), looped.status().code()) << i;
    }
  }
  // One table build serves anonymization and every batched RPLE reduce.
  EXPECT_EQ(ctx->table_builds(), 1u);
}

TEST(ArtifactCodecTest, RejectsCorruption) {
  CloakedArtifact artifact;
  artifact.algorithm = Algorithm::kRge;
  artifact.context = "c";
  artifact.levels.push_back({2, 1, 0, {}});
  artifact.region_segments = {SegmentId{1}, SegmentId{2}};
  const Bytes encoded = EncodeArtifact(artifact);

  // Truncations at every prefix length must fail cleanly, never crash.
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    const Bytes truncated(encoded.begin(),
                          encoded.begin() + static_cast<long>(len));
    EXPECT_FALSE(DecodeArtifact(truncated).ok()) << "len " << len;
  }
  // Bad magic.
  Bytes bad_magic = encoded;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeArtifact(bad_magic).ok());
  // Trailing garbage.
  Bytes trailing = encoded;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeArtifact(trailing).ok());
}

TEST(ArtifactCodecTest, FingerprintDistinguishesNetworks) {
  const auto a = FingerprintNetwork(roadnet::MakeGrid({5, 5, 100.0}));
  const auto b = FingerprintNetwork(roadnet::MakeGrid({5, 6, 100.0}));
  const auto c = FingerprintNetwork(roadnet::MakeGrid({5, 5, 100.0}));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);
}

// ---------------------------------------------------------------- profile
TEST(PrivacyProfileTest, Validation) {
  EXPECT_FALSE(
      PrivacyProfile(std::vector<LevelRequirement>{}).Validate().ok());
  EXPECT_TRUE(PrivacyProfile({{5, 2, 100.0}}).Validate().ok());
  EXPECT_FALSE(PrivacyProfile({{0, 2, 100.0}}).Validate().ok());
  EXPECT_FALSE(PrivacyProfile({{5, 0, 100.0}}).Validate().ok());
  EXPECT_FALSE(PrivacyProfile({{5, 2, 0.0}}).Validate().ok());
  EXPECT_FALSE(
      PrivacyProfile({{5, 2, 100.0}, {4, 2, 100.0}}).Validate().ok());
  EXPECT_FALSE(
      PrivacyProfile({{5, 2, 100.0}, {6, 2, 50.0}}).Validate().ok());
  EXPECT_TRUE(
      PrivacyProfile({{5, 2, 100.0}, {5, 2, 100.0}}).Validate().ok());
}

TEST(PrivacyProfileTest, DefaultLadderIsValidAndMonotone) {
  for (int n : {1, 2, 4, 6}) {
    const auto profile = PrivacyProfile::DefaultLadder(n);
    EXPECT_TRUE(profile.Validate().ok()) << n;
    EXPECT_EQ(profile.num_levels(), n);
  }
}

}  // namespace
}  // namespace rcloak::core
