#include "core/request_cache.h"

#include <cstdio>

namespace rcloak::core {

std::string RequestCache::CacheKey(const std::string& user,
                                   const AnonymizeRequest& request) {
  std::string key = user;
  key += '\x1f';
  key += std::to_string(roadnet::Index(request.origin));
  key += '\x1f';
  key += std::to_string(static_cast<int>(request.algorithm));
  for (int level = 1; level <= request.profile.num_levels(); ++level) {
    const auto& req = request.profile.level(level);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\x1f%u/%u/%.3f", req.delta_k,
                  req.delta_l, req.sigma_s);
    key += buf;
  }
  if (request.sealed_level != 0) {
    key += "\x1fsealed/" + std::to_string(request.sealed_level);
  }
  return key;
}

StatusOr<AnonymizeResult> RequestCache::GetOrAnonymize(
    Anonymizer& anonymizer, const std::string& user,
    const AnonymizeRequest& request, const crypto::KeyChain& keys,
    double now_s) {
  const std::string cache_key = CacheKey(user, request);
  const auto it = entries_.find(cache_key);
  if (it != entries_.end() && now_s < it->second.expires_at) {
    ++hits_;
    return it->second.result;
  }
  ++misses_;
  AnonymizeRequest fresh = request;
  fresh.context = EpochContext(user, epoch_counter_++);
  auto result = anonymizer.Anonymize(fresh, keys);
  if (!result.ok()) return result.status();
  entries_[cache_key] = Entry{*result, now_s + ttl_s_};
  return std::move(result).value();
}

void RequestCache::EvictExpired(double now_s) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.expires_at <= now_s) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace rcloak::core
