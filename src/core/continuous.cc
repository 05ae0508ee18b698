#include "core/continuous.h"

namespace rcloak::core {

StatusOr<CloakRegion> ComputeValidityRegion(const Deanonymizer& deanonymizer,
                                            const CloakedArtifact& artifact,
                                            const crypto::KeyChain& keys,
                                            const PrivacyProfile& profile,
                                            int validity_level) {
  const int validity = std::min(validity_level, profile.num_levels());
  if (validity == profile.num_levels()) {
    // FullRegion keeps the fingerprint/segment-validity checks of the
    // keyed path while skipping the replay itself.
    return deanonymizer.FullRegion(artifact);
  }
  std::map<int, crypto::AccessKey> granted;
  for (int level = validity + 1; level <= profile.num_levels(); ++level) {
    granted.emplace(level, keys.LevelKey(level));
  }
  return deanonymizer.Reduce(artifact, granted, validity);
}

ContinuousCloak::ContinuousCloak(Anonymizer& anonymizer,
                                 Deanonymizer& deanonymizer,
                                 PrivacyProfile profile, Algorithm algorithm,
                                 std::string user_id,
                                 KeyProvider key_provider,
                                 const ContinuousOptions& options)
    : anonymizer_(&anonymizer),
      deanonymizer_(&deanonymizer),
      key_provider_(std::move(key_provider)),
      policy_(std::move(user_id), std::move(profile), algorithm, options) {}

StatusOr<CloakedArtifact> ContinuousCloak::Update(
    double now_s, roadnet::SegmentId current_segment) {
  switch (policy_.OnUpdate(now_s, current_segment)) {
    case ContinuousPolicy::Action::kServe:
    case ContinuousPolicy::Action::kServeStale:
      return policy_.encoded()->artifact;
    case ContinuousPolicy::Action::kRecloak:
      break;
  }

  const std::uint64_t epoch = policy_.next_epoch();
  const crypto::KeyChain keys = key_provider_(epoch);
  AnonymizeRequest request;
  request.origin = current_segment;
  request.profile = policy_.profile();
  request.algorithm = policy_.algorithm();
  request.context = policy_.EpochContext(epoch);
  auto result = anonymizer_->Anonymize(request, keys);
  if (!result.ok()) return result.status();

  auto region =
      ComputeValidityRegion(*deanonymizer_, result->artifact, keys,
                            policy_.profile(), policy_.validity_level());
  if (!region.ok()) return region.status();

  policy_.CommitRecloak(now_s, std::move(result).value().artifact,
                        std::move(region).value());
  return policy_.encoded()->artifact;
}

}  // namespace rcloak::core
