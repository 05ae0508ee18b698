// One accepted socket on its owning event loop: incremental frame
// reassembly off nonblocking reads, a bounded per-connection write queue
// flushed with vectored writes, and the backpressure state the NetServer
// acts on. A connection is pinned to the loop that accepted (or adopted)
// it for its whole lifetime — only that loop's thread ever touches it —
// which is what keeps the multi-loop front door lock-free per connection
// and a user's update stream ordered.
//
// The write queue holds two chunk shapes: small *owned* buffers (frame
// prefixes, error frames, hello replies) and *shared* refcounted buffers
// (the EncodeArtifact bytes of an artifact in force, serialized once and
// queued by reference on every connection that is served it). Flush()
// stitches both shapes into one sendmsg/writev call — up to kFlushIov
// chunks per syscall — so the steady-state reply path does one syscall for
// many frames and never copies an artifact body per connection.
//
// Backpressure policy (enforced by the owner, exposed here as state):
//   * queued_bytes() > soft budget  -> stop reading the connection
//     (EPOLLIN off) until the queue drains below half the budget;
//   * queued_bytes() > hard cap     -> drop the connection with a counted
//     error; a peer that never drains cannot pin unbounded memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "net/frame_codec.h"
#include "util/status.h"

namespace rcloak::net {

struct ConnectionLimits {
  std::size_t max_frame_payload = kDefaultMaxFramePayload;
  std::size_t write_soft_budget = 256u << 10;
  std::size_t write_hard_cap = 4u << 20;
  // SO_SNDBUF for accepted sockets. 0 (default) leaves the kernel's
  // autotuning in place; >0 pins the send buffer, which disables autotune
  // and makes the soft-budget/hard-cap write queue — bounded, counted,
  // droppable — the real per-connection memory bound instead of an
  // unbounded kernel buffer.
  int send_buffer_bytes = 0;
};

// Traffic totals shared by every connection on one event loop and bumped
// where bytes and frames move (reads, vectored writes, frame decode and
// queueing), so a stats reader never has to walk the live connections.
// Written only by the owning loop's thread; the relaxed atomics exist so
// another thread can read them without tearing.
struct TrafficCounters {
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
};

class Connection {
 public:
  // `traffic` is the owning loop's block and must outlive the connection.
  Connection(int fd, std::uint64_t id, const ConnectionLimits& limits,
             TrafficCounters& traffic)
      : fd_(fd), id_(id), limits_(limits), traffic_(&traffic),
        reassembler_(limits.max_frame_payload) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const noexcept { return fd_; }
  std::uint64_t id() const noexcept { return id_; }

  enum class ReadResult : std::uint8_t {
    kOk,             // drained to EAGAIN; frames may be pending
    kPeerClosed,     // orderly EOF
    kProtocolError,  // reassembler poisoned (see last_error())
    kIoError,        // read syscall failed hard
  };

  // Drains the socket until EAGAIN, feeding the reassembler.
  ReadResult ReadReady();
  // Pops the next complete inbound frame (counted into frames_in).
  std::optional<Frame> NextFrame() {
    auto frame = reassembler_.Next();
    if (frame) Count(traffic_->frames_in, 1);
    return frame;
  }
  const Status& last_error() const noexcept { return reassembler_.status(); }

  // Write side. Queueing never writes; the owner calls Flush after a batch.
  void QueueOwned(Bytes bytes);
  void QueueShared(std::shared_ptr<const Bytes> bytes);
  // Counts one outbound frame (a frame may span several queued chunks).
  void CountFrameOut() { Count(traffic_->frames_out, 1); }

  enum class FlushResult : std::uint8_t {
    kDrained,  // queue empty; EPOLLOUT interest can be dropped
    kBlocked,  // kernel buffer full; needs EPOLLOUT
    kError,    // write failed hard (peer gone)
  };
  FlushResult Flush();

  std::size_t queued_bytes() const noexcept { return queued_bytes_; }
  bool over_soft_budget() const noexcept {
    return queued_bytes_ > limits_.write_soft_budget;
  }
  // Resume-reading threshold: half the soft budget (hysteresis).
  bool below_resume_mark() const noexcept {
    return queued_bytes_ <= limits_.write_soft_budget / 2;
  }
  bool over_hard_cap() const noexcept {
    return queued_bytes_ > limits_.write_hard_cap;
  }

  // Flags the owner (NetServer) manages across ticks.
  bool reading_paused = false;   // EPOLLIN dropped for backpressure
  bool write_armed = false;      // EPOLLOUT currently registered
  bool handshaken = false;       // handshake complete (HELLO, + AUTH if on)
  bool awaiting_auth = false;    // HELLO done, challenge outstanding
  std::uint64_t loop_token = 0;  // EventLoop registration
  // Challenge issued in the HELLO reply; compared against the AUTH tag.
  Bytes auth_nonce;
  // Ownership token of the authenticated principal (PrincipalToken); 0 in
  // open mode. Every session tracked through this connection binds to it.
  std::uint64_t principal = 0;

 private:
  // Up to this many chunks are stitched into one vectored write.
  static constexpr std::size_t kFlushIov = 64;

  struct Chunk {
    Bytes owned;
    std::shared_ptr<const Bytes> shared;
    std::size_t offset = 0;
    const Bytes& bytes() const noexcept { return shared ? *shared : owned; }
  };

  static void Count(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
    counter.fetch_add(n, std::memory_order_relaxed);
  }

  int fd_;
  std::uint64_t id_;
  ConnectionLimits limits_;
  TrafficCounters* traffic_;
  FrameReassembler reassembler_;
  std::deque<Chunk> write_queue_;
  std::size_t queued_bytes_ = 0;
};

}  // namespace rcloak::net
