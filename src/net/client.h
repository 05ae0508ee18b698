// Blocking client for the networked front door: connect, HELLO, then
// stream framed position updates and read artifact replies. Used by
// bench/bench_e23_net.cpp (pipelined fleet driver), tests/net_test.cc and
// the rcloak_tool `sendto` subcommand.
//
// Writes are buffered: QueuePositionUpdate appends frames to an outgoing
// buffer and Flush() hands the socket one write for the whole burst, so a
// driver can pipeline a tick's worth of updates per connection in one
// syscall. Reads go through the same FrameReassembler as the server.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/frame_codec.h"
#include "util/status.h"

namespace rcloak::net {

class Client {
 public:
  static StatusOr<Client> Connect(const std::string& host, std::uint16_t port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client();

  // Exchanges HELLO frames. `expect_fingerprint` 0 skips the client-side
  // map check (the server's fingerprint is readable afterwards). When the
  // server's reply carries a challenge nonce (auth mode), answers it with
  // AUTH(principal, HMAC-SHA256(secret, nonce || principal)) and waits for
  // AUTH_OK; an empty secret against such a server fails with
  // kPermissionDenied without attempting the challenge.
  Status Hello(std::uint64_t expect_fingerprint = 0,
               std::string_view principal = {}, const Bytes& secret = {});
  std::uint64_t server_fingerprint() const noexcept {
    return server_fingerprint_;
  }
  // Bytes this client wrote to and read from its socket so far.
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  std::uint64_t bytes_received() const noexcept { return bytes_received_; }

  // Appends a POSITION_UPDATE to the out buffer (no I/O until Flush).
  void QueuePositionUpdate(std::uint32_t seq, std::string_view user_id,
                           double now_s, roadnet::SegmentId segment);
  // Writes the whole out buffer.
  Status Flush();

  // Blocks until the next ARTIFACT_REPLY. A server ERROR frame surfaces as
  // the embedded status; EOF as kDataLoss.
  StatusOr<ArtifactReplyView> ReadArtifactReply();

  Status SendReduceRequest(const ReduceRequestFrame& request);
  StatusOr<ReduceReplyFrame> ReadReduceReply();

 private:
  explicit Client(int fd) : fd_(fd) {}

  // Blocks until a complete frame is available.
  StatusOr<Frame> ReadFrame();

  int fd_ = -1;
  std::uint64_t server_fingerprint_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  Bytes out_;
  FrameReassembler reassembler_;
};

}  // namespace rcloak::net
