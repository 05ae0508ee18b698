#include "net/connection.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace rcloak::net {

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Connection::ReadResult Connection::ReadReady() {
  std::uint8_t chunk[16 << 10];
  for (;;) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      Count(traffic_->bytes_in, static_cast<std::uint64_t>(n));
      const Status fed =
          reassembler_.Feed(chunk, static_cast<std::size_t>(n));
      if (!fed.ok()) return ReadResult::kProtocolError;
      // A full chunk likely means more is waiting; a short read means the
      // socket buffer is drained — but only EAGAIN proves it, so loop.
      continue;
    }
    if (n == 0) return ReadResult::kPeerClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadResult::kOk;
    if (errno == EINTR) continue;
    // An abrupt client teardown (RST mid-stream) is the peer leaving, not
    // a server-side I/O failure — connect/disconnect churn should count as
    // closes, not errors.
    if (errno == ECONNRESET) return ReadResult::kPeerClosed;
    return ReadResult::kIoError;
  }
}

void Connection::QueueOwned(Bytes bytes) {
  if (bytes.empty()) return;
  queued_bytes_ += bytes.size();
  Chunk chunk;
  chunk.owned = std::move(bytes);
  write_queue_.push_back(std::move(chunk));
}

void Connection::QueueShared(std::shared_ptr<const Bytes> bytes) {
  if (!bytes || bytes->empty()) return;
  queued_bytes_ += bytes->size();
  Chunk chunk;
  chunk.shared = std::move(bytes);
  write_queue_.push_back(std::move(chunk));
}

Connection::FlushResult Connection::Flush() {
  while (!write_queue_.empty()) {
    iovec iov[kFlushIov];
    std::size_t iov_count = 0;
    for (const Chunk& chunk : write_queue_) {
      if (iov_count == kFlushIov) break;
      const Bytes& bytes = chunk.bytes();
      iov[iov_count].iov_base =
          const_cast<std::uint8_t*>(bytes.data() + chunk.offset);
      iov[iov_count].iov_len = bytes.size() - chunk.offset;
      ++iov_count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return FlushResult::kBlocked;
      if (errno == EINTR) continue;
      return FlushResult::kError;
    }
    Count(traffic_->bytes_out, static_cast<std::uint64_t>(n));
    queued_bytes_ -= static_cast<std::size_t>(n);
    std::size_t written = static_cast<std::size_t>(n);
    while (written > 0) {
      Chunk& front = write_queue_.front();
      const std::size_t remaining = front.bytes().size() - front.offset;
      if (written >= remaining) {
        written -= remaining;
        write_queue_.pop_front();
      } else {
        front.offset += written;
        written = 0;
      }
    }
  }
  return FlushResult::kDrained;
}

}  // namespace rcloak::net
