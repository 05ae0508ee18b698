// Batched append-only spill file: the cold tier's on-disk home for spilled
// continuous sessions (server/continuous_session_pool.h drives it).
//
// On-disk layout (all integers little-endian):
//
//   header   "RCSF" | u8 version (=3) | u64 map fingerprint
//   record   u32 payload_len | u64 fnv1a64(payload) | payload
//   payload  varint name_len | name bytes | varint state_len | state bytes
//   state    u64le owner | varint last_segment | policy bytes
//
// The header's version is the only format version: it covers the state
// bytes too, and Attach refuses a file of any other version without
// touching it. The codec below owns the state's head; the session pool
// writes the policy bytes after it. The file header holds the map
// fingerprint and the payload the user's name, so the state writes neither.
//
// Records are group-appended — one write per clock-sweep step — and indexed
// in memory by interned UserId → {offset, length}. A later record for the
// same user supersedes the earlier one (last-write-wins on scan); the
// superseded bytes are dead until compaction. Attach() scans an existing
// file (refusing a map-fingerprint mismatch), re-interning every live
// record's name so spilled users keep resolvable ids across runs:
//   * a torn tail (incomplete header or payload) is truncated away;
//   * an implausible length prefix stops the scan and truncates from that
//     record boundary (nothing after it can be trusted);
//   * a checksum mismatch with a plausible length skips the record as dead
//     and continues at the next boundary.
// Compact() rewrites live records into a temp file and atomically renames
// it over the old one, dropping dead bytes; on a file with no dead bytes it
// returns at once. A live record that rotted on disk since it was written
// is dropped by the rewrite. Its user's name stays interned (the interner
// never releases a name); the session pool then counts the user as
// untracked, so a later Track reuses the name and handle.
//
// Thread safety: internally synchronized (one mutex); safe to call from
// concurrent shard sweeps and restore-on-miss reads. CompactIfDue and
// index_bytes() read sizes published under it, so per-batch checks do not
// wait out a compaction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/interner.h"
#include "util/status.h"

namespace rcloak::store {

struct SpillFileStats {
  std::uint64_t file_bytes = 0;  // current size on disk
  std::uint64_t dead_bytes = 0;  // superseded / erased / corrupt records
  std::size_t live_records = 0;
  std::size_t index_bytes = 0;  // in-memory index footprint
  std::uint64_t appended_records = 0;
  std::uint64_t appended_bytes = 0;  // lifetime write volume (pre-compaction)
  std::uint64_t reads = 0;
  // Compact calls that succeeded, no-ops on a file without dead bytes
  // included.
  std::uint64_t compactions = 0;
  std::uint64_t tail_truncated_bytes = 0;    // dropped by Attach scans
  std::uint64_t corrupt_records_skipped = 0;  // checksum failures on scan
};

// The head of a record's state bytes (layout above). The owner sits at
// offset 0, so an ownership check reads 8 bytes and never parses the rest.
struct SpillHead {
  std::uint64_t owner = 0;  // principal token, 0 = unowned
  std::uint32_t last_segment = 0;  // road-network segment index
};

// Appends `head` to `state`; the policy bytes follow it.
void PutSpillHead(Bytes& state, const SpillHead& head);
// The owner token alone; DataLoss when the state is shorter than it.
StatusOr<std::uint64_t> SpillOwnerOf(const Bytes& state);
// The whole head, leaving `*offset` at the first policy byte. DataLoss when
// the head is cut short or its segment does not fit 32 bits.
StatusOr<SpillHead> ParseSpillHead(const Bytes& state, std::size_t* offset);

class SpillFile {
 public:
  struct Record {
    util::UserId user;
    Bytes state;
  };

  // Creates `path` (with a fresh header) or opens an existing spill file,
  // scanning its records into the index. An existing file whose header
  // fingerprint differs from `map_fingerprint` is refused with
  // InvalidArgument — a spill file is bound to the map its sessions were
  // cloaked on — and one of another format version with
  // FailedPrecondition. `interner` must outlive the SpillFile; scanned
  // names are interned through it.
  static StatusOr<std::unique_ptr<SpillFile>> Attach(
      std::string path, std::uint64_t map_fingerprint,
      util::StringInterner& interner);

  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  // Appends every record in one write. Each record's name is looked up
  // from the interner (the id must still resolve). On error nothing is
  // indexed — callers must not drop in-memory state unless this returns OK.
  Status AppendBatch(const std::vector<Record>& records);

  bool Contains(util::UserId user) const;

  // The state bytes of the live record for `user` (NotFound if absent,
  // DataLoss if the record rotted on disk since it was written).
  StatusOr<Bytes> ReadRecord(util::UserId user) const;

  // Drops the live record for `user` from the index (its bytes become dead
  // until compaction). Returns false if there was none.
  bool Erase(util::UserId user);

  // Rewrites live records into `path + ".tmp"` and renames it over the
  // file, reclaiming dead bytes. Returns at once when no bytes are dead,
  // so callers racing on one due compaction rewrite the file once.
  Status Compact();

  // Compacts once the file holds at least 1 MiB and its dead bytes exceed
  // `dead_fraction` of it; OK without a rewrite otherwise. The check reads
  // the published sizes without the file mutex, so it never waits on a
  // rewrite in progress.
  Status CompactIfDue(double dead_fraction);

  // Ids of every live record (compaction-ordered snapshot).
  std::vector<util::UserId> LiveUsers() const;

  SpillFileStats stats() const;
  // stats().index_bytes without the file mutex: the figure as of the last
  // append, erase or compaction.
  std::size_t index_bytes() const noexcept {
    return index_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Location {
    std::uint64_t offset = 0;       // record start (length prefix)
    std::uint32_t payload_len = 0;  // payload bytes after the 12B header
  };

  SpillFile(std::string path, std::uint64_t map_fingerprint,
            util::StringInterner& interner)
      : path_(std::move(path)),
        map_fingerprint_(map_fingerprint),
        interner_(&interner) {}

  // Scans records from `scan_start` to EOF, applying the tail/corruption
  // rules above; truncates the file to the last trustworthy boundary.
  Status ScanLocked();
  Status ReadPayloadLocked(const Location& loc, Bytes* payload) const;
  // Copies the file size, dead bytes and index footprint into the relaxed
  // atomics that CompactIfDue and index_bytes() read; call after changing
  // any of them.
  void PublishLocked();

  const std::string path_;
  const std::uint64_t map_fingerprint_;
  util::StringInterner* interner_;

  mutable std::mutex mutex_;
  int fd_ = -1;
  std::uint64_t append_offset_ = 0;  // == current file size
  util::IdMap<Location> index_;
  mutable SpillFileStats stats_;
  std::atomic<std::uint64_t> file_bytes_{0};
  std::atomic<std::uint64_t> dead_bytes_{0};
  std::atomic<std::size_t> index_bytes_{0};
};

}  // namespace rcloak::store
