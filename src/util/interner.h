// String interner and id-keyed open-addressed tables for the million-user
// session layer.
//
// The steady-state fleet update path must not pay a string hash, a string
// compare, or an allocation per position update. StringInterner maps each
// user-id string to a stable dense UserId handle exactly once (at the API
// boundary); afterwards shard selection, session lookup and commit all run
// on 32-bit handles. Each entry owns its name as a std::string, so names of
// up to 15 bytes live inline in the entry and the caller's buffer is never
// referenced after Intern returns.
//
// Handles are stable for the life of the interner: no entry is ever
// released or recycled. The session pool never forgets a tracked user (a
// user that started over would reuse its request contexts), so it never
// needs to give a name back.
//
// IdMap is the companion table: open addressing (linear probing, power-of-
// two capacity, tombstoned erase) keyed by UserId, so a session lookup is
// one mix + a short probe over a flat array instead of an unordered_map
// node walk keyed by strings.
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rcloak::util {

// Stable dense handle for an interned string (index into the interner's
// entry list). Value-comparable; kInvalid means "not interned".
struct UserId {
  static constexpr std::uint32_t kInvalidValue = 0xffffffffu;

  std::uint32_t value = kInvalidValue;

  bool valid() const noexcept { return value != kInvalidValue; }
  friend bool operator==(UserId a, UserId b) noexcept {
    return a.value == b.value;
  }
  friend bool operator!=(UserId a, UserId b) noexcept {
    return a.value != b.value;
  }
};

inline constexpr UserId kInvalidUserId{};

// splitmix64 finalizer: spreads dense ids across the table / shard space.
constexpr std::uint64_t MixId(std::uint32_t value) noexcept {
  std::uint64_t z = static_cast<std::uint64_t>(value) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// FNV-1a 64: the one string hash the boundary pays per request.
constexpr std::uint64_t HashBytes(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

class StringInterner {
 public:
  StringInterner() = default;
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  // Get-or-create (exclusive lock on create, shared probe first so the
  // already-interned case taken by Track retries stays read-mostly).
  UserId Intern(std::string_view s);

  // Lookup only; kInvalidUserId when `s` is not interned. Shared lock —
  // this is the per-update boundary hit.
  UserId Find(std::string_view s) const;

  // A copy of the name behind `id`, taken under the interner lock. Empty
  // for an invalid or out-of-range id.
  std::string NameCopyOf(UserId id) const;

  // Interned name count.
  std::size_t size() const;

  // Slot table, entries and the heap of names too long to live inline —
  // the interner's contribution to the pool memory budget.
  std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  // All require mutex_ held (shared suffices for the const one).
  UserId FindLocked(std::string_view s, std::uint64_t hash) const;
  void GrowLocked(std::size_t min_entries);

  mutable std::shared_mutex mutex_;
  std::vector<std::uint32_t> slots_;  // entry index or kEmptySlot
  std::vector<std::string> names_;    // by handle
  std::size_t name_heap_bytes_ = 0;  // heap behind names not stored inline
};

// Open-addressed id→value map (linear probing, tombstoned erase). Not
// internally synchronized — each session-pool shard owns one under its
// shard mutex. Values must be movable (growth relocates them).
template <typename Value>
class IdMap {
 public:
  Value* Find(UserId id) noexcept {
    const std::size_t slot = FindSlot(id);
    return slot == kNoSlot ? nullptr : &*slots_[slot].value;
  }
  const Value* Find(UserId id) const noexcept {
    const std::size_t slot = FindSlot(id);
    return slot == kNoSlot ? nullptr : &*slots_[slot].value;
  }

  // Inserts id→Value(args...) unless present; returns {value, inserted}.
  template <typename... Args>
  std::pair<Value*, bool> TryEmplace(UserId id, Args&&... args) {
    ReserveForOneMore();
    const std::uint64_t mask = slots_.size() - 1;
    std::size_t index = MixId(id.value) & mask;
    std::size_t first_tombstone = kNoSlot;
    for (;;) {
      Slot& slot = slots_[index];
      if (slot.key == kEmptyKey) {
        Slot& target =
            first_tombstone == kNoSlot ? slot : slots_[first_tombstone];
        if (first_tombstone != kNoSlot) --tombstones_;
        target.key = id.value;
        target.value.emplace(std::forward<Args>(args)...);
        ++size_;
        return {&*target.value, true};
      }
      if (slot.key == kTombstoneKey) {
        if (first_tombstone == kNoSlot) first_tombstone = index;
      } else if (slot.key == id.value) {
        return {&*slot.value, false};
      }
      index = (index + 1) & mask;
    }
  }

  bool Erase(UserId id) {
    const std::size_t slot = FindSlot(id);
    if (slot == kNoSlot) return false;
    slots_[slot].value.reset();
    slots_[slot].key = kTombstoneKey;
    --size_;
    ++tombstones_;
    return true;
  }

  // fn(UserId, Value&) over every live entry, in table order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.value) fn(UserId{slot.key}, *slot.value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.value) fn(UserId{slot.key}, *slot.value);
    }
  }

  // Clock-sweep support: visits up to `limit` live entries in slot order
  // starting at *cursor, wrapping at most once around the table, and
  // advances *cursor past the last slot examined. fn(UserId, Value&)
  // returning true erases the entry in place (tombstoned — safe mid-walk,
  // the table cannot grow during a sweep). Returns live entries visited.
  template <typename Fn>
  std::size_t SweepFrom(std::size_t* cursor, std::size_t limit, Fn&& fn) {
    if (slots_.empty() || size_ == 0 || limit == 0) return 0;
    const std::size_t capacity = slots_.size();
    std::size_t index = *cursor % capacity;
    std::size_t visited = 0;
    for (std::size_t step = 0; step < capacity && visited < limit; ++step) {
      Slot& slot = slots_[index];
      if (slot.value) {
        ++visited;
        if (fn(UserId{slot.key}, *slot.value)) {
          slot.value.reset();
          slot.key = kTombstoneKey;
          --size_;
          ++tombstones_;
        }
      }
      index = (index + 1) % capacity;
    }
    *cursor = index;
    return visited;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  // Table overhead (slot array only; Value-owned heap is the caller's to
  // account). Used by the session pool's memory-budget bookkeeping.
  std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  // Key sentinels; real UserId values are dense and never reach them.
  static constexpr std::uint32_t kEmptyKey = 0xffffffffu;
  static constexpr std::uint32_t kTombstoneKey = 0xfffffffeu;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  struct Slot {
    std::uint32_t key = kEmptyKey;
    std::optional<Value> value;
  };

  std::size_t FindSlot(UserId id) const noexcept {
    if (slots_.empty() || !id.valid()) return kNoSlot;
    const std::uint64_t mask = slots_.size() - 1;
    std::size_t index = MixId(id.value) & mask;
    for (;;) {
      const Slot& slot = slots_[index];
      if (slot.key == kEmptyKey) return kNoSlot;
      if (slot.key == id.value) return index;
      index = (index + 1) & mask;
    }
  }

  void ReserveForOneMore() {
    if (slots_.empty()) {
      slots_.resize(16);
      return;
    }
    // Rehash at 7/8 occupancy counting tombstones, so probes stay short
    // and an erase-heavy workload reclaims its dead slots.
    if ((size_ + tombstones_ + 1) * 8 < slots_.size() * 7) return;
    // Smallest power-of-two capacity keeping live entries under 7/8; a
    // tombstone-dominated table rehashes in place and reclaims them.
    std::size_t new_capacity = slots_.size();
    while ((size_ + 1) * 8 >= new_capacity * 7) new_capacity *= 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_capacity);
    tombstones_ = 0;
    const std::uint64_t mask = slots_.size() - 1;
    for (Slot& slot : old) {
      if (!slot.value) continue;
      std::size_t index = MixId(slot.key) & mask;
      while (slots_[index].key != kEmptyKey) index = (index + 1) & mask;
      slots_[index].key = slot.key;
      slots_[index].value = std::move(slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace rcloak::util
