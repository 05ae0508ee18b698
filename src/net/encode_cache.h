// Reply encode cache: the EncodeArtifact bytes of every artifact in force,
// keyed by artifact identity, so an artifact served on many ticks or to
// many connections is serialized once and queued by reference. Not
// thread-safe; each front-door event loop owns one.
//
// Entries hold their artifact weakly (the session owns it), so a hit
// requires the live artifact at the key's address to still be the one
// that was encoded: an entry whose artifact died and whose address a new
// artifact reuses misses and is re-encoded.
//
// Dead entries are swept on an amortized schedule. Sessions keep each
// user's current artifact alive, so a table of N live artifacts reclaims
// almost nothing per sweep; sweeping on every miss past a fixed size would
// walk all N on every first sighting and region exit. Instead a miss that
// finds the table at its trigger size sweeps it and re-arms the trigger at
// max(kPruneFloor, kept + kept / kGrowthDivisor): the table grows by a
// quarter of what the sweep kept before it is walked again, so sweeping
// costs at most kGrowthDivisor entry checks per miss, amortized. The table
// never exceeds that trigger, so stale entries (each pins its artifact's
// make_shared block through the weak_ptr) stay below a quarter of the
// live set the last sweep kept, plus the floor.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>

#include "core/artifact.h"

namespace rcloak::net {

class EncodeCache {
 public:
  static constexpr std::size_t kPruneFloor = 4096;
  static constexpr std::size_t kGrowthDivisor = 4;

  struct Lookup {
    std::shared_ptr<const Bytes> wire;
    bool hit = false;
  };

  // The artifact's wire bytes, encoded on a miss.
  Lookup Encode(const std::shared_ptr<const core::CloakedArtifact>& artifact);

  // Entries held right now, live and not yet swept.
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::weak_ptr<const core::CloakedArtifact> source;
    std::shared_ptr<const Bytes> wire;
  };

  std::unordered_map<const core::CloakedArtifact*, Entry> entries_;
  std::size_t prune_at_ = kPruneFloor;
};

}  // namespace rcloak::net
