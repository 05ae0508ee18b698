#include "store/spill_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>

namespace rcloak::store {

namespace {

constexpr char kMagic[4] = {'R', 'C', 'S', 'F'};
// The only format version of a spill file, its records' state bytes
// included: bump it on any layout change of either.
constexpr std::uint8_t kFormatVersion = 3;
constexpr std::uint64_t kHeaderSize = 4 + 1 + 8;
constexpr std::uint64_t kRecordHeader = 4 + 8;  // payload_len + checksum
// A length prefix beyond this is corruption, not a record: nothing after
// it can be trusted.
constexpr std::uint64_t kMaxRecordPayload = 1ull << 28;
// Compaction streams records through a bounded buffer.
constexpr std::size_t kCompactFlushBytes = 1 << 20;
// CompactIfDue waits until the file holds at least this many bytes.
constexpr std::uint64_t kCompactMinBytes = 1 << 20;

std::uint64_t HashPayload(const Bytes& payload) {
  return util::HashBytes(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
}

Status FullPWrite(int fd, const std::uint8_t* data, std::size_t size,
                  std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("spill file: write failed: ") +
                              std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return Status::Ok();
}

// True when all `size` bytes were read; false on EOF first or an error.
bool FullPRead(int fd, std::uint8_t* data, std::size_t size,
               std::uint64_t offset) {
  std::size_t total = 0;
  while (total < size) {
    const ssize_t n = ::pread(fd, data + total, size - total,
                              static_cast<off_t>(offset + total));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    total += static_cast<std::size_t>(n);
  }
  return true;
}

struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint64_t checksum = 0;
};

// The 12-byte header of the record at `offset`; nullopt when the file ends
// (or the read fails) first.
std::optional<FrameHeader> ReadFrameHeader(int fd, std::uint64_t offset) {
  Bytes raw(kRecordHeader);
  if (!FullPRead(fd, raw.data(), kRecordHeader, offset)) return std::nullopt;
  std::size_t cursor = 0;
  const std::uint32_t payload_len = *GetU32le(raw, &cursor);
  return FrameHeader{payload_len, *GetU64le(raw, &cursor)};
}

// Appends one record: u32 payload_len | u64 checksum | payload.
void PutFrame(Bytes& out, const Bytes& payload) {
  PutU32le(out, static_cast<std::uint32_t>(payload.size()));
  PutU64le(out, HashPayload(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

Bytes EncodeHeader(std::uint64_t map_fingerprint) {
  Bytes header;
  header.reserve(kHeaderSize);
  for (const char c : kMagic) header.push_back(static_cast<std::uint8_t>(c));
  header.push_back(kFormatVersion);
  PutU64le(header, map_fingerprint);
  return header;
}

// payload = varint name_len | name | varint state_len | state
bool ParsePayload(const Bytes& payload, std::string_view* name,
                  std::size_t* state_offset) {
  std::size_t offset = 0;
  const auto name_len = GetVarint(payload, &offset);
  if (!name_len || *name_len == 0 || *name_len > payload.size() - offset) {
    return false;
  }
  *name = std::string_view(reinterpret_cast<const char*>(payload.data()) +
                               offset,
                           static_cast<std::size_t>(*name_len));
  offset += static_cast<std::size_t>(*name_len);
  const auto state_len = GetVarint(payload, &offset);
  if (!state_len || *state_len != payload.size() - offset) return false;
  *state_offset = offset;
  return true;
}

}  // namespace

void PutSpillHead(Bytes& state, const SpillHead& head) {
  PutU64le(state, head.owner);
  PutVarint(state, head.last_segment);
}

StatusOr<std::uint64_t> SpillOwnerOf(const Bytes& state) {
  std::size_t offset = 0;
  const auto owner = GetU64le(state, &offset);
  if (!owner) return Status::DataLoss("spilled session truncated");
  return *owner;
}

StatusOr<SpillHead> ParseSpillHead(const Bytes& state, std::size_t* offset) {
  *offset = 0;
  const auto owner = GetU64le(state, offset);
  const auto segment = GetVarint(state, offset);
  if (!owner || !segment) {
    return Status::DataLoss("spilled session truncated");
  }
  if (*segment > std::numeric_limits<std::uint32_t>::max()) {
    return Status::DataLoss("spilled session: segment id out of range");
  }
  return SpillHead{*owner, static_cast<std::uint32_t>(*segment)};
}

StatusOr<std::unique_ptr<SpillFile>> SpillFile::Attach(
    std::string path, std::uint64_t map_fingerprint,
    util::StringInterner& interner) {
  std::unique_ptr<SpillFile> file(
      new SpillFile(std::move(path), map_fingerprint, interner));
  const int fd =
      ::open(file->path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("spill file: cannot open " + file->path_ + ": " +
                            std::strerror(errno));
  }
  file->fd_ = fd;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::Internal("spill file: fstat failed: " +
                            std::string(std::strerror(errno)));
  }
  if (st.st_size == 0) {
    const Bytes header = EncodeHeader(map_fingerprint);
    RCLOAK_RETURN_IF_ERROR(FullPWrite(fd, header.data(), header.size(), 0));
  }
  Bytes header(kHeaderSize);
  if (!FullPRead(fd, header.data(), header.size(), 0) ||
      std::memcmp(header.data(), kMagic, 4) != 0) {
    return Status::DataLoss("spill file: bad magic in " + file->path_);
  }
  if (header[4] != kFormatVersion) {
    // Refused before the scan, so the file is left exactly as it was.
    return Status::FailedPrecondition(
        "spill file: format version " + std::to_string(header[4]) +
        " is not supported (this build reads version " +
        std::to_string(kFormatVersion) + "): " + file->path_);
  }
  std::size_t offset = 5;
  const auto fingerprint = GetU64le(header, &offset);
  if (!fingerprint || *fingerprint != map_fingerprint) {
    return Status::InvalidArgument(
        "spill file: map fingerprint mismatch (file was written for a "
        "different road network)");
  }
  RCLOAK_RETURN_IF_ERROR(file->ScanLocked());
  return file;
}

SpillFile::~SpillFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status SpillFile::ScanLocked() {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::Internal("spill file: fstat failed: " +
                            std::string(std::strerror(errno)));
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);
  std::uint64_t offset = kHeaderSize;
  std::uint64_t trusted_end = file_size;
  while (offset < file_size) {
    const auto header = ReadFrameHeader(fd_, offset);
    const std::uint32_t payload_len = header ? header->payload_len : 0;
    if (payload_len < 2 || payload_len > kMaxRecordPayload ||
        offset + kRecordHeader + payload_len > file_size) {
      // A torn header, an implausible length or a record claiming bytes
      // past EOF: either the prefix rotted or the tail is torn. Truncate
      // from this boundary.
      trusted_end = offset;
      break;
    }
    Bytes payload(payload_len);
    if (!FullPRead(fd_, payload.data(), payload_len, offset + kRecordHeader)) {
      trusted_end = offset;
      break;
    }
    const std::uint64_t record_size = kRecordHeader + payload_len;
    std::string_view name;
    std::size_t state_offset = 0;
    if (HashPayload(payload) != header->checksum ||
        !ParsePayload(payload, &name, &state_offset)) {
      // The length frame is intact but the payload rotted: skip this
      // record as dead and keep scanning at the next boundary.
      ++stats_.corrupt_records_skipped;
      stats_.dead_bytes += record_size;
      offset += record_size;
      continue;
    }
    const util::UserId user = interner_->Intern(name);
    const Location loc{offset, payload_len};
    auto [slot, inserted] = index_.TryEmplace(user, loc);
    if (!inserted) {
      // Last-write-wins: the earlier record for this user is dead bytes.
      stats_.dead_bytes += kRecordHeader + slot->payload_len;
      *slot = loc;
    }
    offset += record_size;
  }
  if (trusted_end < file_size) {
    stats_.tail_truncated_bytes += file_size - trusted_end;
    if (::ftruncate(fd_, static_cast<off_t>(trusted_end)) != 0) {
      return Status::Internal("spill file: truncate failed: " +
                              std::string(std::strerror(errno)));
    }
  }
  append_offset_ = trusted_end;
  PublishLocked();
  return Status::Ok();
}

Status SpillFile::AppendBatch(const std::vector<Record>& records) {
  if (records.empty()) return Status::Ok();
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::FailedPrecondition("spill file closed");
  struct Pending {
    util::UserId user;
    Location loc;
  };
  Bytes buffer;
  std::vector<Pending> pending;
  pending.reserve(records.size());
  for (const Record& record : records) {
    const std::string name = interner_->NameCopyOf(record.user);
    if (name.empty()) {
      return Status::InvalidArgument(
          "spill append: user id does not resolve to an interned name");
    }
    Bytes payload;
    payload.reserve(name.size() + record.state.size() + 10);
    PutVarint(payload, name.size());
    payload.insert(payload.end(), name.begin(), name.end());
    PutVarint(payload, record.state.size());
    payload.insert(payload.end(), record.state.begin(), record.state.end());
    const Location loc{append_offset_ + buffer.size(),
                       static_cast<std::uint32_t>(payload.size())};
    PutFrame(buffer, payload);
    pending.push_back(Pending{record.user, loc});
  }
  const Status written =
      FullPWrite(fd_, buffer.data(), buffer.size(), append_offset_);
  if (!written.ok()) {
    // Leave the file at the old boundary so the scan rules stay simple.
    (void)::ftruncate(fd_, static_cast<off_t>(append_offset_));
    return written;
  }
  append_offset_ += buffer.size();
  stats_.appended_records += records.size();
  stats_.appended_bytes += buffer.size();
  for (const Pending& entry : pending) {
    auto [slot, inserted] = index_.TryEmplace(entry.user, entry.loc);
    if (!inserted) {
      stats_.dead_bytes += kRecordHeader + slot->payload_len;
      *slot = entry.loc;
    }
  }
  PublishLocked();
  return Status::Ok();
}

bool SpillFile::Contains(util::UserId user) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.Find(user) != nullptr;
}

Status SpillFile::ReadPayloadLocked(const Location& loc,
                                    Bytes* payload) const {
  const auto header = ReadFrameHeader(fd_, loc.offset);
  if (!header) return Status::DataLoss("spill record: header unreadable");
  if (header->payload_len != loc.payload_len) {
    return Status::DataLoss("spill record: length prefix rotted on disk");
  }
  payload->resize(loc.payload_len);
  if (!FullPRead(fd_, payload->data(), loc.payload_len,
                 loc.offset + kRecordHeader)) {
    return Status::DataLoss("spill record: payload unreadable");
  }
  if (HashPayload(*payload) != header->checksum) {
    return Status::DataLoss("spill record: checksum mismatch");
  }
  return Status::Ok();
}

StatusOr<Bytes> SpillFile::ReadRecord(util::UserId user) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Location* loc = index_.Find(user);
  if (loc == nullptr) return Status::NotFound("no spilled record for user");
  Bytes payload;
  RCLOAK_RETURN_IF_ERROR(ReadPayloadLocked(*loc, &payload));
  std::string_view name;
  std::size_t state_offset = 0;
  if (!ParsePayload(payload, &name, &state_offset)) {
    return Status::DataLoss("spill record: malformed payload");
  }
  ++stats_.reads;
  return Bytes(payload.begin() + static_cast<std::ptrdiff_t>(state_offset),
               payload.end());
}

bool SpillFile::Erase(util::UserId user) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Location* loc = index_.Find(user);
  if (loc == nullptr) return false;
  stats_.dead_bytes += kRecordHeader + loc->payload_len;
  index_.Erase(user);
  PublishLocked();
  return true;
}

Status SpillFile::Compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::FailedPrecondition("spill file closed");
  if (stats_.dead_bytes == 0) {
    ++stats_.compactions;
    return Status::Ok();
  }
  const std::string tmp = path_ + ".tmp";
  const int out =
      ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out < 0) {
    return Status::Internal("spill compact: cannot open " + tmp + ": " +
                            std::strerror(errno));
  }
  auto fail = [&](Status status) {
    ::close(out);
    ::unlink(tmp.c_str());
    return status;
  };
  const Bytes header = EncodeHeader(map_fingerprint_);
  Status status = FullPWrite(out, header.data(), header.size(), 0);
  if (!status.ok()) return fail(std::move(status));

  util::IdMap<Location> new_index;
  Bytes buffer;
  std::uint64_t out_offset = kHeaderSize;
  auto flush = [&]() -> Status {
    if (buffer.empty()) return Status::Ok();
    RCLOAK_RETURN_IF_ERROR(
        FullPWrite(out, buffer.data(), buffer.size(), out_offset));
    out_offset += buffer.size();
    buffer.clear();
    return Status::Ok();
  };
  index_.ForEach([&](util::UserId user, const Location& loc) {
    Bytes payload;
    if (!status.ok()) return;  // a flush failed: the rewrite is abandoned
    if (!ReadPayloadLocked(loc, &payload).ok()) {
      // A record that rotted since it was written is dropped here; the
      // user's session is lost to the cold tier, counted, not fatal.
      ++stats_.corrupt_records_skipped;
      return;
    }
    new_index.TryEmplace(user, Location{out_offset + buffer.size(),
                                        static_cast<std::uint32_t>(
                                            payload.size())});
    PutFrame(buffer, payload);
    if (buffer.size() >= kCompactFlushBytes) status = flush();
  });
  if (status.ok()) status = flush();
  if (!status.ok()) return fail(std::move(status));
  if (::fsync(out) != 0) {
    return fail(Status::Internal("spill compact: fsync failed: " +
                                 std::string(std::strerror(errno))));
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    return fail(Status::Internal("spill compact: rename failed: " +
                                 std::string(std::strerror(errno))));
  }
  ::close(fd_);
  fd_ = out;
  index_ = std::move(new_index);
  append_offset_ = out_offset;
  stats_.dead_bytes = 0;
  ++stats_.compactions;
  PublishLocked();
  return Status::Ok();
}

Status SpillFile::CompactIfDue(double dead_fraction) {
  const std::uint64_t file_bytes = file_bytes_.load(std::memory_order_relaxed);
  if (file_bytes < kCompactMinBytes) return Status::Ok();
  if (static_cast<double>(dead_bytes_.load(std::memory_order_relaxed)) <=
      dead_fraction * static_cast<double>(file_bytes)) {
    return Status::Ok();
  }
  return Compact();
}

void SpillFile::PublishLocked() {
  file_bytes_.store(append_offset_, std::memory_order_relaxed);
  dead_bytes_.store(stats_.dead_bytes, std::memory_order_relaxed);
  index_bytes_.store(index_.memory_bytes(), std::memory_order_relaxed);
}

std::vector<util::UserId> SpillFile::LiveUsers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<util::UserId> users;
  users.reserve(index_.size());
  index_.ForEach([&](util::UserId user, const Location&) {
    users.push_back(user);
  });
  return users;
}

SpillFileStats SpillFile::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SpillFileStats out = stats_;
  out.file_bytes = append_offset_;
  out.live_records = index_.size();
  out.index_bytes = index_.memory_bytes();
  return out;
}

}  // namespace rcloak::store
