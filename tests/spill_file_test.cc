// Batched spill file: the cold tier's on-disk format must survive what
// disks actually do — torn tails from a crash mid-append, rotted bytes,
// hostile length prefixes — and its last-write-wins index, compaction and
// cross-run re-interning must round-trip sessions byte-for-byte. The
// concurrency smoke (appends + reads + erases racing a compaction) runs
// under the TSAN CI job.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "store/spill_file.h"

namespace rcloak::store {
namespace {

using util::StringInterner;
using util::UserId;

constexpr std::uint64_t kFingerprint = 0x1122334455667788ull;
constexpr std::size_t kFileHeader = 13;   // "RCSF" + version + fingerprint
constexpr std::size_t kRecordHeader = 12;  // u32 len + u64 checksum

std::string TempPath(const std::string& name) {
  const std::string path = "spill_test_" + name + ".rcsf";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

Bytes ReadAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(is)),
               std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const Bytes& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(data.data()),
           static_cast<std::streamsize>(data.size()));
}

Bytes State(std::initializer_list<std::uint8_t> bytes) { return Bytes(bytes); }

TEST(SpillFileTest, RoundTripAndLastWriteWins) {
  const std::string path = TempPath("roundtrip");
  StringInterner interner;
  const UserId alice = interner.Intern("alice");
  const UserId bob = interner.Intern("bob");
  auto file = SpillFile::Attach(path, kFingerprint, interner);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  ASSERT_TRUE((*file)
                  ->AppendBatch({{alice, State({1, 2, 3})},
                                 {bob, State({9, 9})}})
                  .ok());
  EXPECT_TRUE((*file)->Contains(alice));
  EXPECT_TRUE((*file)->Contains(bob));
  EXPECT_FALSE((*file)->Contains(UserId{777}));

  // A later record for the same user supersedes; the old bytes go dead.
  ASSERT_TRUE((*file)->AppendBatch({{alice, State({4, 5, 6, 7})}}).ok());
  const auto read = (*file)->ReadRecord(alice);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, State({4, 5, 6, 7}));
  EXPECT_GT((*file)->stats().dead_bytes, 0u);
  EXPECT_EQ((*file)->stats().live_records, 2u);
  EXPECT_EQ((*file)->LiveUsers().size(), 2u);

  EXPECT_TRUE((*file)->Erase(bob));
  EXPECT_FALSE((*file)->Erase(bob));
  EXPECT_EQ((*file)->ReadRecord(bob).status().code(), ErrorCode::kNotFound);
  std::remove(path.c_str());
}

TEST(SpillFileTest, ReattachScansAndReinterns) {
  const std::string path = TempPath("reattach");
  {
    StringInterner interner;
    const UserId a = interner.Intern("carol");
    const UserId b = interner.Intern("dave");
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)
                    ->AppendBatch({{a, State({1})}, {b, State({2, 2})}})
                    .ok());
    ASSERT_TRUE((*file)->AppendBatch({{a, State({3, 3, 3})}}).ok());
  }
  // A fresh process: new interner, names come back from the scan.
  StringInterner interner;
  auto file = SpillFile::Attach(path, kFingerprint, interner);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const UserId carol = interner.Find("carol");
  const UserId dave = interner.Find("dave");
  ASSERT_TRUE(carol.valid());
  ASSERT_TRUE(dave.valid());
  EXPECT_EQ((*file)->stats().live_records, 2u);
  const auto read = (*file)->ReadRecord(carol);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, State({3, 3, 3}));  // last write won across the run
  const auto read_dave = (*file)->ReadRecord(dave);
  ASSERT_TRUE(read_dave.ok());
  EXPECT_EQ(*read_dave, State({2, 2}));
  std::remove(path.c_str());
}

TEST(SpillFileTest, FingerprintMismatchRejected) {
  const std::string path = TempPath("fingerprint");
  StringInterner interner;
  {
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    const UserId u = interner.Intern("eve");
    ASSERT_TRUE((*file)->AppendBatch({{u, State({1})}}).ok());
  }
  const auto mismatched = SpillFile::Attach(path, kFingerprint + 1, interner);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), ErrorCode::kInvalidArgument);
  std::remove(path.c_str());
}

// The header's version is the only format version of a spill file. A
// version-1 file holding one record is refused with a message naming the
// version, before the scan could truncate or index anything, and its bytes
// stay exactly as they were.
TEST(SpillFileTest, RefusesOlderFormatVersion) {
  const std::string path = TempPath("old_version");
  StringInterner interner;
  {
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    const UserId u = interner.Intern("frank");
    ASSERT_TRUE((*file)->AppendBatch({{u, State({3, 1, 4})}}).ok());
  }
  Bytes raw = ReadAll(path);
  ASSERT_EQ(raw.size(), kFileHeader + kRecordHeader + 10);
  raw[4] = 1;  // the version byte follows "RCSF"
  WriteAll(path, raw);

  StringInterner fresh;
  const auto refused = SpillFile::Attach(path, kFingerprint, fresh);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("format version 1"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_FALSE(fresh.Find("frank").valid());
  EXPECT_EQ(ReadAll(path), raw);
  std::remove(path.c_str());
}

TEST(SpillFileTest, TruncatedTailRecordIgnored) {
  const std::string path = TempPath("torntail");
  StringInterner interner;
  std::size_t first_end = 0;
  {
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    const UserId a = interner.Intern("alice");
    const UserId b = interner.Intern("bob");
    ASSERT_TRUE((*file)->AppendBatch({{a, State({1, 2, 3})}}).ok());
    first_end = (*file)->stats().file_bytes;
    ASSERT_TRUE((*file)->AppendBatch({{b, State({4, 5, 6})}}).ok());
  }
  // Crash mid-append: the second record loses its last 2 bytes.
  Bytes raw = ReadAll(path);
  raw.resize(raw.size() - 2);
  WriteAll(path, raw);

  StringInterner fresh;
  auto file = SpillFile::Attach(path, kFingerprint, fresh);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->stats().live_records, 1u);
  EXPECT_GT((*file)->stats().tail_truncated_bytes, 0u);
  // The file was truncated back to the last whole-record boundary.
  EXPECT_EQ((*file)->stats().file_bytes, first_end);
  EXPECT_TRUE(fresh.Find("alice").valid());
  EXPECT_FALSE(fresh.Find("bob").valid());
  std::remove(path.c_str());
}

TEST(SpillFileTest, CorruptedLengthPrefixStopsScan) {
  const std::string path = TempPath("badlength");
  StringInterner interner;
  std::size_t first_end = 0;
  std::size_t second_end = 0;
  {
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    const UserId a = interner.Intern("alice");
    const UserId b = interner.Intern("bob");
    const UserId c = interner.Intern("carol");
    ASSERT_TRUE((*file)->AppendBatch({{a, State({1})}}).ok());
    first_end = (*file)->stats().file_bytes;
    ASSERT_TRUE((*file)->AppendBatch({{b, State({2})}}).ok());
    second_end = (*file)->stats().file_bytes;
    ASSERT_TRUE((*file)->AppendBatch({{c, State({3})}}).ok());
  }
  // An implausible length prefix on record 2: nothing after that boundary
  // can be trusted — the scan must stop and truncate there, losing record
  // 3 as well.
  Bytes raw = ReadAll(path);
  raw[first_end] = 0xFF;
  raw[first_end + 1] = 0xFF;
  raw[first_end + 2] = 0xFF;
  raw[first_end + 3] = 0xFF;
  WriteAll(path, raw);
  (void)second_end;

  StringInterner fresh;
  auto file = SpillFile::Attach(path, kFingerprint, fresh);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->stats().live_records, 1u);
  EXPECT_EQ((*file)->stats().file_bytes, first_end);
  EXPECT_TRUE(fresh.Find("alice").valid());
  EXPECT_FALSE(fresh.Find("bob").valid());
  EXPECT_FALSE(fresh.Find("carol").valid());
  // Appends continue from the trustworthy boundary.
  const UserId dave = fresh.Intern("dave");
  ASSERT_TRUE((*file)->AppendBatch({{dave, State({7, 7})}}).ok());
  const auto read = (*file)->ReadRecord(dave);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, State({7, 7}));
  std::remove(path.c_str());
}

TEST(SpillFileTest, CorruptedPayloadSkippedAndReadsReportDataLoss) {
  const std::string path = TempPath("rot");
  StringInterner interner;
  std::size_t first_end = 0;
  {
    auto file = SpillFile::Attach(path, kFingerprint, interner);
    ASSERT_TRUE(file.ok());
    const UserId a = interner.Intern("alice");
    const UserId b = interner.Intern("bob");
    ASSERT_TRUE((*file)->AppendBatch({{a, State({1, 2, 3, 4})}}).ok());
    first_end = (*file)->stats().file_bytes;
    ASSERT_TRUE((*file)->AppendBatch({{b, State({5, 6})}}).ok());
  }
  // Flip one payload byte of record 1 (the length prefix stays sane): the
  // scan must skip it as dead via the checksum and keep record 2.
  Bytes raw = ReadAll(path);
  raw[kFileHeader + kRecordHeader + 2] ^= 0x40;
  WriteAll(path, raw);

  StringInterner fresh;
  auto file = SpillFile::Attach(path, kFingerprint, fresh);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->stats().live_records, 1u);
  EXPECT_EQ((*file)->stats().corrupt_records_skipped, 1u);
  EXPECT_FALSE(fresh.Find("alice").valid());
  const UserId bob = fresh.Find("bob");
  ASSERT_TRUE(bob.valid());
  const auto read = (*file)->ReadRecord(bob);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, State({5, 6}));

  // Rot AFTER attach: the indexed record's bytes change under the file —
  // the read must fail loudly, not hand back garbage state.
  Bytes again = ReadAll(path);
  again[first_end + kRecordHeader + 1] ^= 0x01;
  WriteAll(path, again);
  EXPECT_EQ((*file)->ReadRecord(bob).status().code(), ErrorCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SpillFileTest, CompactDropsDeadBytesAndSurvivesReattach) {
  const std::string path = TempPath("compact");
  StringInterner interner;
  auto file = SpillFile::Attach(path, kFingerprint, interner);
  ASSERT_TRUE(file.ok());
  std::vector<UserId> users;
  for (int i = 0; i < 50; ++i) {
    users.push_back(interner.Intern("user" + std::to_string(i)));
  }
  for (int round = 0; round < 4; ++round) {
    std::vector<SpillFile::Record> batch;
    for (const UserId user : users) {
      batch.push_back({user, State({static_cast<std::uint8_t>(round)})});
    }
    ASSERT_TRUE((*file)->AppendBatch(batch).ok());
  }
  for (int i = 0; i < 10; ++i) EXPECT_TRUE((*file)->Erase(users[i]));
  const auto before = (*file)->stats();
  EXPECT_GT(before.dead_bytes, 0u);

  ASSERT_TRUE((*file)->Compact().ok());
  const auto after = (*file)->stats();
  EXPECT_EQ(after.dead_bytes, 0u);
  EXPECT_EQ(after.live_records, 40u);
  EXPECT_LT(after.file_bytes, before.file_bytes);
  EXPECT_EQ(after.compactions, 1u);
  for (int i = 10; i < 50; ++i) {
    const auto read = (*file)->ReadRecord(users[i]);
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_EQ(*read, State({3}));
  }
  file->reset();  // close before reattach

  StringInterner fresh;
  auto reopened = SpillFile::Attach(path, kFingerprint, fresh);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().live_records, 40u);
  EXPECT_FALSE(fresh.Find("user3").valid());
  EXPECT_TRUE(fresh.Find("user37").valid());
  std::remove(path.c_str());
}

// The head of a record's state bytes is pinned byte for byte: the file's
// version covers it, so any change to this layout must bump the version.
TEST(SpillHeadTest, LayoutIsOwnerSegment) {
  const SpillHead head{0x0102030405060708ull, 300};
  Bytes encoded;
  PutSpillHead(encoded, head);
  Bytes expected;
  PutU64le(expected, head.owner);
  PutVarint(expected, head.last_segment);
  EXPECT_EQ(encoded, expected);
  ASSERT_EQ(encoded.size(), 8u + 2u);

  // Policy bytes follow the head untouched.
  encoded.push_back(0xAB);
  std::size_t offset = 0;
  const auto parsed = ParseSpillHead(encoded, &offset);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->owner, head.owner);
  EXPECT_EQ(parsed->last_segment, head.last_segment);
  EXPECT_EQ(offset, expected.size());
  EXPECT_EQ(*SpillOwnerOf(encoded), head.owner);
}

TEST(SpillHeadTest, ShortHeadsAreDataLoss) {
  Bytes encoded;
  PutSpillHead(encoded, {42, 300});
  for (std::size_t size = 0; size < encoded.size(); ++size) {
    SCOPED_TRACE(size);
    const Bytes prefix(encoded.begin(),
                       encoded.begin() + static_cast<std::ptrdiff_t>(size));
    std::size_t offset = 0;
    EXPECT_EQ(ParseSpillHead(prefix, &offset).status().code(),
              ErrorCode::kDataLoss);
    // The owner alone needs only its own 8 bytes.
    EXPECT_EQ(SpillOwnerOf(prefix).ok(), size >= 8);
    if (size < 8) {
      EXPECT_EQ(SpillOwnerOf(prefix).status().code(), ErrorCode::kDataLoss);
    }
  }
}

TEST(SpillHeadTest, SegmentPastThirtyTwoBitsIsDataLoss) {
  Bytes state;
  PutU64le(state, 42);
  PutVarint(state, std::uint64_t{1} << 32);
  std::size_t offset = 0;
  EXPECT_EQ(ParseSpillHead(state, &offset).status().code(),
            ErrorCode::kDataLoss);
}

// TSAN smoke: appends, reads, erases and stats racing periodic
// compactions through the file's internal mutex.
TEST(SpillFileTest, CompactionUnderConcurrentUpdates) {
  const std::string path = TempPath("concurrent");
  StringInterner interner;
  auto attached = SpillFile::Attach(path, kFingerprint, interner);
  ASSERT_TRUE(attached.ok());
  SpillFile* file = attached->get();
  constexpr int kWriters = 3;
  constexpr int kUsersPerWriter = 40;
  constexpr int kRounds = 25;
  std::vector<std::vector<UserId>> users(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kUsersPerWriter; ++i) {
      users[w].push_back(
          interner.Intern("w" + std::to_string(w) + "u" + std::to_string(i)));
    }
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([file, &users, w] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<SpillFile::Record> batch;
        for (const UserId user : users[w]) {
          batch.push_back(
              {user, State({static_cast<std::uint8_t>(round),
                            static_cast<std::uint8_t>(w)})});
        }
        ASSERT_TRUE(file->AppendBatch(batch).ok());
        for (const UserId user : users[w]) {
          const auto read = file->ReadRecord(user);
          ASSERT_TRUE(read.ok());
        }
        if (round % 7 == 3) file->Erase(users[w][round % kUsersPerWriter]);
        (void)file->stats();
      }
    });
  }
  threads.emplace_back([file] {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(file->Compact().ok());
      (void)file->LiveUsers();
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();
  EXPECT_GE(file->stats().compactions, 8u);
  // Every non-erased user still resolves to its last write.
  for (int w = 0; w < kWriters; ++w) {
    for (const UserId user : users[w]) {
      if (!file->Contains(user)) continue;
      const auto read = file->ReadRecord(user);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ((*read)[1], static_cast<std::uint8_t>(w));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rcloak::store
