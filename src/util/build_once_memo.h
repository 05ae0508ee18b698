// BuildOnceMemo — a build-once memo of immutable values by key. The engine
// keeps all of its derived map data in it (core::MapContext's RPLE tables
// by T, grids by side and ALT landmarks by parameters; core::GridContext's
// cell tables by T): each value is built at most once per key and handed
// out as a stable pointer that readers use without a lock.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "util/status.h"

namespace rcloak::util {

template <typename Key, typename Value>
class BuildOnceMemo {
 public:
  // The value stored under `key`, running `build()` (returning
  // StatusOr<std::unique_ptr<const Value>>) only when none is stored yet.
  // The build runs under the lock, so racing first requests build once; a
  // failed build stores nothing. The pointer lives as long as the memo.
  template <typename Build>
  StatusOr<const Value*> Get(const Key& key, const Build& build) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second.get();
    auto built = build();
    if (!built.ok()) return built.status();
    ++builds_;
    const Value* result = built->get();
    values_.emplace(key, std::move(built).value());
    return result;
  }

  // How many builds have run (memoization pin for tests).
  std::size_t builds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return builds_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::map<Key, std::unique_ptr<const Value>> values_;
  mutable std::size_t builds_ = 0;
};

}  // namespace rcloak::util
