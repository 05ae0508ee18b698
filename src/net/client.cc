#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace rcloak::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

StatusOr<Client> Client::Connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return Client(fd);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      server_fingerprint_(other.server_fingerprint_),
      bytes_sent_(other.bytes_sent_),
      bytes_received_(other.bytes_received_),
      out_(std::move(other.out_)),
      reassembler_(std::move(other.reassembler_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    server_fingerprint_ = other.server_fingerprint_;
    bytes_sent_ = other.bytes_sent_;
    bytes_received_ = other.bytes_received_;
    out_ = std::move(other.out_);
    reassembler_ = std::move(other.reassembler_);
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::Hello(std::uint64_t expect_fingerprint,
                     std::string_view principal, const Bytes& secret) {
  Bytes hello;
  AppendHello(hello, HelloFrame{kProtocolVersion, expect_fingerprint, {}});
  out_.insert(out_.end(), hello.begin(), hello.end());
  RCLOAK_RETURN_IF_ERROR(Flush());
  RCLOAK_ASSIGN_OR_RETURN(const Frame frame, ReadFrame());
  if (frame.type == FrameType::kError) {
    RCLOAK_ASSIGN_OR_RETURN(const ErrorFrame error, DecodeError(frame.payload));
    return Status(error.code, "server refused hello: " + error.message);
  }
  if (frame.type != FrameType::kHello) {
    return Status::DataLoss("expected HELLO reply");
  }
  RCLOAK_ASSIGN_OR_RETURN(const HelloFrame reply, DecodeHello(frame.payload));
  if (reply.version != kProtocolVersion) {
    return Status::FailedPrecondition("server protocol version mismatch");
  }
  server_fingerprint_ = reply.map_fingerprint;
  if (reply.nonce.empty()) return Status::Ok();  // open mode
  if (secret.empty()) {
    return Status::PermissionDenied(
        "server requires authentication but no secret was provided");
  }
  AuthFrame auth;
  auth.principal = std::string(principal);
  auth.tag = AuthTag(secret, reply.nonce, auth.principal);
  AppendAuth(out_, auth);
  RCLOAK_RETURN_IF_ERROR(Flush());
  RCLOAK_ASSIGN_OR_RETURN(const Frame answer, ReadFrame());
  if (answer.type == FrameType::kError) {
    RCLOAK_ASSIGN_OR_RETURN(const ErrorFrame error,
                            DecodeError(answer.payload));
    return Status(error.code, "server refused auth: " + error.message);
  }
  if (answer.type != FrameType::kAuthOk) {
    return Status::DataLoss("expected AUTH_OK reply");
  }
  return DecodeAuthOk(answer.payload).status();
}

void Client::QueuePositionUpdate(std::uint32_t seq, std::string_view user_id,
                                 double now_s, roadnet::SegmentId segment) {
  AppendPositionUpdate(out_, seq, user_id, now_s, segment);
}

Status Client::Flush() {
  std::size_t sent = 0;
  while (sent < out_.size()) {
    const ssize_t n =
        ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<std::size_t>(n);
    bytes_sent_ += static_cast<std::uint64_t>(n);
  }
  out_.clear();
  return Status::Ok();
}

StatusOr<Frame> Client::ReadFrame() {
  for (;;) {
    if (auto frame = reassembler_.Next()) return std::move(*frame);
    RCLOAK_RETURN_IF_ERROR(reassembler_.status());
    std::uint8_t chunk[16 << 10];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (n == 0) return Status::DataLoss("connection closed by server");
    bytes_received_ += static_cast<std::uint64_t>(n);
    RCLOAK_RETURN_IF_ERROR(
        reassembler_.Feed(chunk, static_cast<std::size_t>(n)));
  }
}

StatusOr<ArtifactReplyView> Client::ReadArtifactReply() {
  RCLOAK_ASSIGN_OR_RETURN(const Frame frame, ReadFrame());
  if (frame.type == FrameType::kError) {
    RCLOAK_ASSIGN_OR_RETURN(const ErrorFrame error, DecodeError(frame.payload));
    return Status(error.code, error.message);
  }
  if (frame.type != FrameType::kArtifactReply) {
    return Status::DataLoss("expected ARTIFACT_REPLY, got " +
                            std::string(FrameTypeName(frame.type)));
  }
  return DecodeArtifactReply(frame.payload);
}

Status Client::SendReduceRequest(const ReduceRequestFrame& request) {
  AppendReduceRequest(out_, request);
  return Flush();
}

StatusOr<ReduceReplyFrame> Client::ReadReduceReply() {
  RCLOAK_ASSIGN_OR_RETURN(const Frame frame, ReadFrame());
  if (frame.type == FrameType::kError) {
    RCLOAK_ASSIGN_OR_RETURN(const ErrorFrame error, DecodeError(frame.payload));
    return Status(error.code, error.message);
  }
  if (frame.type != FrameType::kReduceReply) {
    return Status::DataLoss("expected REDUCE_REPLY, got " +
                            std::string(FrameTypeName(frame.type)));
  }
  return DecodeReduceReply(frame.payload);
}

}  // namespace rcloak::net
