// String interner + id-keyed open-addressed map: the session layer's
// million-user fast path depends on (a) handles being dense and stable for
// the life of the interner, (b) names surviving table growth and caller
// buffer reuse (string_view boundary), and (c) IdMap behaving like a map
// through insert/erase/growth cycles including tombstone reuse.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/interner.h"

namespace rcloak::util {
namespace {

TEST(StringInternerTest, InternAssignsDenseStableHandles) {
  StringInterner interner;
  const UserId a = interner.Intern("alice");
  const UserId b = interner.Intern("bob");
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a, b);
  EXPECT_EQ(a.value, 0u);
  EXPECT_EQ(b.value, 1u);
  // Get-or-create: same string, same handle, no growth.
  EXPECT_EQ(interner.Intern("alice"), a);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.NameCopyOf(a), "alice");
  EXPECT_EQ(interner.NameCopyOf(b), "bob");
}

TEST(StringInternerTest, FindNeverInterns) {
  StringInterner interner;
  EXPECT_FALSE(interner.Find("ghost").valid());
  EXPECT_EQ(interner.size(), 0u);
  const UserId id = interner.Intern("ghost");
  EXPECT_EQ(interner.Find("ghost"), id);
  EXPECT_FALSE(interner.Find("ghos").valid());
  EXPECT_FALSE(interner.Find("ghostt").valid());
  EXPECT_EQ(kInvalidUserId, interner.Find(""));
  EXPECT_TRUE(interner.Intern("").valid());  // empty string is a valid name
  EXPECT_TRUE(interner.Find("").valid());
}

TEST(StringInternerTest, NamesSurviveGrowthAndIdsStayDense) {
  StringInterner interner;
  constexpr int kUsers = 10000;  // forces several slot-table rehashes
  std::vector<UserId> ids;
  for (int i = 0; i < kUsers; ++i) {
    ids.push_back(interner.Intern("user" + std::to_string(i)));
  }
  for (int i = 0; i < kUsers; ++i) {
    EXPECT_EQ(ids[i].value, static_cast<std::uint32_t>(i));
    ASSERT_EQ(interner.Find("user" + std::to_string(i)), ids[i]) << i;
    // Names interned before ~10 rehashes (and entry-vector moves) intact.
    ASSERT_EQ(interner.NameCopyOf(ids[i]), "user" + std::to_string(i)) << i;
  }
  EXPECT_EQ(interner.size(), static_cast<std::size_t>(kUsers));
}

TEST(StringInternerTest, StringViewBoundaryCopiesTheBytes) {
  StringInterner interner;
  char buffer[16];
  std::strcpy(buffer, "transient");
  const UserId id = interner.Intern(std::string_view(buffer, 9));
  // The caller's buffer is reused; the interned name must not change.
  std::strcpy(buffer, "clobbered");
  EXPECT_EQ(interner.NameCopyOf(id), "transient");
  EXPECT_EQ(interner.Find("transient"), id);
  EXPECT_FALSE(interner.Find(std::string_view(buffer, 9)).valid());
}

TEST(StringInternerTest, ConcurrentInternAndFindAgree) {
  StringInterner interner;
  constexpr int kThreads = 4;
  constexpr int kNames = 500;
  // All threads intern the same name set concurrently; handles must agree.
  std::vector<std::vector<UserId>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&interner, &seen, t] {
      for (int i = 0; i < kNames; ++i) {
        seen[static_cast<std::size_t>(t)].push_back(
            interner.Intern("shared" + std::to_string(i)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(interner.size(), static_cast<std::size_t>(kNames));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  }
}

TEST(IdMapTest, BehavesLikeAMapThroughInsertEraseGrowth) {
  IdMap<int> map;
  std::unordered_map<std::uint32_t, int> reference;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(UserId{0}), nullptr);
  EXPECT_EQ(map.Find(kInvalidUserId), nullptr);

  // Insert enough to force several growths.
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const auto [value, inserted] = map.TryEmplace(UserId{i}, int(i * 3));
    ASSERT_TRUE(inserted);
    ASSERT_EQ(*value, static_cast<int>(i * 3));
    reference[i] = static_cast<int>(i * 3);
  }
  // Re-emplace is a no-op returning the existing value.
  const auto [existing, inserted] = map.TryEmplace(UserId{7}, -1);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*existing, 21);

  // Erase every third entry, then verify lookups against the reference.
  for (std::uint32_t i = 0; i < 2000; i += 3) {
    EXPECT_TRUE(map.Erase(UserId{i}));
    EXPECT_FALSE(map.Erase(UserId{i}));  // double erase
    reference.erase(i);
  }
  EXPECT_EQ(map.size(), reference.size());
  for (std::uint32_t i = 0; i < 2000; ++i) {
    int* found = map.Find(UserId{i});
    const auto ref = reference.find(i);
    if (ref == reference.end()) {
      EXPECT_EQ(found, nullptr) << i;
    } else {
      ASSERT_NE(found, nullptr) << i;
      EXPECT_EQ(*found, ref->second) << i;
    }
  }

  // Reinsert into tombstones and keep probing consistent.
  for (std::uint32_t i = 0; i < 2000; i += 3) {
    const auto [value, fresh] = map.TryEmplace(UserId{i}, int(i));
    ASSERT_TRUE(fresh);
    EXPECT_EQ(*value, static_cast<int>(i));
    reference[i] = static_cast<int>(i);
  }
  EXPECT_EQ(map.size(), reference.size());

  std::size_t visited = 0;
  map.ForEach([&](UserId id, int& value) {
    ++visited;
    EXPECT_EQ(reference.at(id.value), value);
  });
  EXPECT_EQ(visited, reference.size());
}

// Tombstone-heavy churn must keep the table bounded and correct (the
// rehash reclaims dead slots instead of growing forever).
TEST(IdMapTest, ChurnReclaimsTombstones) {
  IdMap<std::string> map;
  for (int round = 0; round < 200; ++round) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      map.TryEmplace(UserId{i}, "value" + std::to_string(i));
    }
    EXPECT_EQ(map.size(), 64u);
    for (std::uint32_t i = 0; i < 64; ++i) ASSERT_TRUE(map.Erase(UserId{i}));
    EXPECT_TRUE(map.empty());
  }
  for (std::uint32_t i = 0; i < 64; ++i) {
    map.TryEmplace(UserId{i}, "final" + std::to_string(i));
  }
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_NE(map.Find(UserId{i}), nullptr);
    EXPECT_EQ(*map.Find(UserId{i}), "final" + std::to_string(i));
  }
}

}  // namespace
}  // namespace rcloak::util
