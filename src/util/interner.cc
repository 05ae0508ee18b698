#include "util/interner.h"

#include <mutex>

namespace rcloak::util {

namespace {

// Heap a name holds beyond its entry: none while it fits the inline
// (small-string) buffer.
std::size_t NameHeapBytes(const std::string& name) {
  static const std::size_t inline_capacity = std::string().capacity();
  return name.capacity() > inline_capacity ? name.capacity() + 1 : 0;
}

}  // namespace

UserId StringInterner::FindLocked(std::string_view s,
                                  std::uint64_t hash) const {
  if (slots_.empty()) return kInvalidUserId;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t index = hash & mask; slots_[index] != kEmptySlot;
       index = (index + 1) & mask) {
    if (names_[slots_[index]] == s) return UserId{slots_[index]};
  }
  return kInvalidUserId;
}

UserId StringInterner::Find(std::string_view s) const {
  const std::uint64_t hash = HashBytes(s);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return FindLocked(s, hash);
}

UserId StringInterner::Intern(std::string_view s) {
  const std::uint64_t hash = HashBytes(s);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const UserId existing = FindLocked(s, hash);
    if (existing.valid()) return existing;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // Re-probe: another thread may have interned it between the locks.
  const UserId existing = FindLocked(s, hash);
  if (existing.valid()) return existing;
  GrowLocked(names_.size() + 1);
  const auto entry_index = static_cast<std::uint32_t>(names_.size());
  name_heap_bytes_ += NameHeapBytes(names_.emplace_back(s));
  const std::size_t mask = slots_.size() - 1;
  std::size_t index = hash & mask;
  while (slots_[index] != kEmptySlot) index = (index + 1) & mask;
  slots_[index] = entry_index;
  return UserId{entry_index};
}

std::string StringInterner::NameCopyOf(UserId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  if (!id.valid() || id.value >= names_.size()) return {};
  return names_[id.value];
}

std::size_t StringInterner::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return names_.size();
}

std::size_t StringInterner::memory_bytes() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return name_heap_bytes_ + slots_.capacity() * sizeof(std::uint32_t) +
         names_.capacity() * sizeof(std::string);
}

void StringInterner::GrowLocked(std::size_t min_entries) {
  if (!slots_.empty() && min_entries * 8 < slots_.size() * 7) return;
  std::size_t new_capacity = slots_.empty() ? 64 : slots_.size();
  while (min_entries * 8 >= new_capacity * 7) new_capacity *= 2;
  std::vector<std::uint32_t> old(new_capacity, kEmptySlot);
  old.swap(slots_);
  const std::size_t mask = new_capacity - 1;
  for (const std::uint32_t entry_index : old) {
    if (entry_index == kEmptySlot) continue;
    std::size_t index = HashBytes(names_[entry_index]) & mask;
    while (slots_[index] != kEmptySlot) index = (index + 1) & mask;
    slots_[index] = entry_index;
  }
}

}  // namespace rcloak::util
