// Wire framing for the networked front door (src/net/net_server.h).
//
// Every frame is a 5-byte header — u32le payload length + one type byte —
// followed by the payload. Integers inside payloads are little-endian or
// unsigned LEB128 varints, matching the artifact codec (util/bytes.h), so
// an ARTIFACT_REPLY's body IS core::EncodeArtifact output verbatim: the
// server serializes a refcounted artifact once and fans the same bytes out
// to every connection that is served it (no per-connection re-encode, no
// CloakedArtifact copy).
//
// FrameReassembler turns an arbitrary nonblocking-read byte stream back
// into frames. Headers are validated *eagerly* on Feed — an unknown type
// byte or a declared length past the cap poisons the stream before any
// body bytes are buffered — so a hostile or corrupt peer cannot make the
// reassembler hold more than one frame cap of memory.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/keyed_prng.h"
#include "roadnet/road_network.h"
#include "util/bytes.h"
#include "util/status.h"

namespace rcloak::net {

// Bumped on any incompatible wire change; HELLO carries it both ways and
// the server refuses a mismatched client with an ERROR frame. v2 extends
// HELLO into a challenge-response: the server's reply may carry a random
// nonce, and the client must answer with an AUTH frame whose tag is
// HMAC-SHA256(secret, nonce || client id) before any other frame.
inline constexpr std::uint32_t kProtocolVersion = 2;

// Seq reserved for connection-level ERROR frames (handshake failures,
// undecodable frames whose seq could not be recovered). Clients must not
// use it as a POSITION_UPDATE / REDUCE_REQUEST seq: replies carrying it
// refer to the connection, never to a specific request.
inline constexpr std::uint32_t kConnectionSeq = 0xFFFFFFFFu;

// Challenge-response sizes: the server's HELLO nonce and the client's
// HMAC-SHA256 tag (full digest, never truncated).
inline constexpr std::size_t kAuthNonceBytes = 16;
inline constexpr std::size_t kAuthTagBytes = 32;

// Frame header: u32le payload length + type byte.
inline constexpr std::size_t kFrameHeaderBytes = 5;
// Default per-frame payload cap. Generous for artifacts (a 100k-segment
// region is ~400 KiB of varints) while bounding per-connection memory.
inline constexpr std::size_t kDefaultMaxFramePayload = 4u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,           // both directions: version + map fingerprint
  kPositionUpdate = 2,  // client -> server: one user position
  kArtifactReply = 3,   // server -> client: artifact (or error) for a seq
  kReduceRequest = 4,   // client -> server: reduce an artifact with keys
  kReduceReply = 5,     // server -> client: reduced region (or error)
  kError = 6,           // either: seq-scoped or connection-level error
  kAuth = 7,            // client -> server: principal id + HMAC tag
  kAuthOk = 8,          // server -> client: handshake complete, principal echo
};

std::string_view FrameTypeName(FrameType type) noexcept;
bool IsKnownFrameType(std::uint8_t type) noexcept;

struct Frame {
  FrameType type = FrameType::kError;
  Bytes payload;
};

// ---------------------------------------------------------------- payloads

struct HelloFrame {
  std::uint32_t version = kProtocolVersion;
  // Structural fingerprint of the map the server cloaks on. A client sends
  // 0 ("unknown") or the fingerprint it expects; the server always sends
  // its own and rejects a nonzero mismatch.
  std::uint64_t map_fingerprint = 0;
  // v2 challenge: non-empty only in the server's reply, and only when the
  // server requires authentication. The client must answer with an AUTH
  // frame before anything else; an empty nonce means open mode and the
  // handshake is complete.
  Bytes nonce;
};

struct AuthFrame {
  // The principal the client claims. Becomes the owner of every session
  // this connection tracks; bounded by the frame payload cap.
  std::string principal;
  // HMAC-SHA256(secret, nonce || principal), kAuthTagBytes long.
  Bytes tag;
};

struct AuthOkFrame {
  std::string principal;  // echo of the authenticated principal
};

struct PositionUpdateFrame {
  std::uint32_t seq = 0;
  double now_s = 0.0;
  roadnet::SegmentId segment = roadnet::kInvalidSegment;
  // Borrowed view into the decoded payload — valid only while the payload
  // bytes live. The server interns it once; it never becomes std::string
  // on the steady-state path.
  std::string_view user_id;
};

struct ReduceRequestFrame {
  std::uint32_t seq = 0;
  int target_level = 0;
  std::map<int, crypto::AccessKey> granted_keys;
  // EncodeArtifact bytes (the remainder of the payload).
  Bytes artifact_wire;
};

struct ReduceReplyFrame {
  std::uint32_t seq = 0;
  Status status = Status::Ok();
  std::vector<roadnet::SegmentId> segments;  // sorted ascending
};

struct ArtifactReplyView {
  std::uint32_t seq = 0;
  Status status = Status::Ok();
  // EncodeArtifact bytes when status is OK (copied out of the payload).
  Bytes artifact_wire;
};

struct ErrorFrame {
  // Request seq the error answers, or kConnectionSeq for errors scoped to
  // the connection itself (handshake refusal, undecodable frame).
  std::uint32_t seq = kConnectionSeq;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// ------------------------------------------------------------ auth helpers

// The challenge-response tag: HMAC-SHA256 over (nonce || principal) under
// the shared secret. Both ends compute it; the server compares in constant
// time.
Bytes AuthTag(const Bytes& secret, const Bytes& nonce,
              std::string_view principal);

// Stable 64-bit ownership token for a principal (first 8 bytes of
// SHA-256, little-endian, never 0 for a non-empty principal). Sessions
// and spill records carry this token, not the principal string; 0 means
// "unowned" (open mode).
std::uint64_t PrincipalToken(std::string_view principal);

// ---------------------------------------------------------------- encoders
//
// Appenders emit the complete frame (header included) so callers can pack
// several frames into one buffer and hand the socket a single write.

void AppendHello(Bytes& out, const HelloFrame& hello);
void AppendAuth(Bytes& out, const AuthFrame& auth);
void AppendAuthOk(Bytes& out, const AuthOkFrame& ok);
void AppendPositionUpdate(Bytes& out, std::uint32_t seq,
                          std::string_view user_id, double now_s,
                          roadnet::SegmentId segment);
void AppendReduceRequest(Bytes& out, const ReduceRequestFrame& request);
void AppendReduceReply(Bytes& out, const ReduceReplyFrame& reply);
void AppendError(Bytes& out, const ErrorFrame& error);

// The artifact reply splits into an owned prefix (header + seq + OK byte)
// and the shared EncodeArtifact body, so the body bytes are queued by
// reference (writev joins them on the wire; see net::Connection).
Bytes ArtifactReplyPrefix(std::uint32_t seq, std::size_t artifact_bytes);
// The error shape of the same frame, self-contained.
void AppendArtifactError(Bytes& out, std::uint32_t seq, const Status& status);

// ---------------------------------------------------------------- decoders

StatusOr<HelloFrame> DecodeHello(const Bytes& payload);
StatusOr<AuthFrame> DecodeAuth(const Bytes& payload);
StatusOr<AuthOkFrame> DecodeAuthOk(const Bytes& payload);
// The returned user_id view borrows `payload`.
StatusOr<PositionUpdateFrame> DecodePositionUpdate(const Bytes& payload);
StatusOr<ReduceRequestFrame> DecodeReduceRequest(const Bytes& payload);
StatusOr<ReduceReplyFrame> DecodeReduceReply(const Bytes& payload);
StatusOr<ArtifactReplyView> DecodeArtifactReply(const Bytes& payload);
StatusOr<ErrorFrame> DecodeError(const Bytes& payload);

// ------------------------------------------------------------- reassembly

class FrameReassembler {
 public:
  explicit FrameReassembler(std::size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  // Consumes `n` raw bytes off the wire. Fails (and poisons the stream —
  // every later call fails the same way) when a frame header declares an
  // unknown type or a length past the cap; the offending body is never
  // buffered, so memory stays bounded by cap + one read chunk.
  Status Feed(const std::uint8_t* data, std::size_t n);

  // Pops the next complete frame; nullopt when more bytes are needed (or
  // the stream is poisoned — check status()).
  std::optional<Frame> Next();

  const Status& status() const noexcept { return status_; }
  std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }
  std::size_t max_payload() const noexcept { return max_payload_; }
  // Lifetime header checks: one per header fed, never repeated by Next.
  std::uint64_t headers_checked() const noexcept { return headers_checked_; }

 private:
  // Validates every header from validated_ on whose bytes are in; poisons
  // on a malformed one.
  Status ValidateNewHeaders();

  std::size_t max_payload_;
  Bytes buffer_;
  std::size_t consumed_ = 0;
  // Start of the first frame whose header is unchecked; never behind
  // consumed_, and past the end of buffer_ while a body is arriving.
  std::size_t validated_ = 0;
  std::uint64_t headers_checked_ = 0;
  Status status_ = Status::Ok();
};

}  // namespace rcloak::net
