#include "net/encode_cache.h"

#include <algorithm>

namespace rcloak::net {

EncodeCache::Lookup EncodeCache::Encode(
    const std::shared_ptr<const core::CloakedArtifact>& artifact) {
  const core::CloakedArtifact* key = artifact.get();
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (const auto live = it->second.source.lock(); live.get() == key) {
      return {it->second.wire, true};
    }
    entries_.erase(it);
  }
  auto wire = std::make_shared<const Bytes>(core::EncodeArtifact(*artifact));
  if (entries_.size() >= prune_at_) {
    std::erase_if(entries_, [](const auto& entry) {
      return entry.second.source.expired();
    });
    const std::size_t kept = entries_.size();
    prune_at_ = std::max(kPruneFloor, kept + kept / kGrowthDivisor);
  }
  entries_.emplace(key, Entry{artifact, wire});
  return {std::move(wire), false};
}

}  // namespace rcloak::net
