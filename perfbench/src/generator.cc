#include "generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/net_server.h"

namespace perfbench {

using namespace rcloak;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

crypto::KeyChain KeysFor(std::uint32_t user, std::uint32_t epoch) {
  const net::NetServerOptions defaults;
  return net::DeterministicKeyProvider(defaults.key_seed_base,
                                       Workload::UserName(user),
                                       Workload::Profile().num_levels())(
      epoch);
}

namespace {

constexpr std::int64_t kNsPerMs = 1000000;
constexpr int kHandshakeTimeoutMs = 10000;

StatusOr<int> ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = strerror(errno);
    ::close(fd);
    return Status::Internal("connect: " + why);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

Generator::Generator(const Workload& workload)
    : workload_(workload),
      conns_(static_cast<std::size_t>(workload.spec().total_connections())),
      tracks_(workload.spec().fleet) {}

Generator::~Generator() { Close(); }

void Generator::Close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }
}

void Generator::Fail(const std::string& why) {
  ++failed_;
  if (first_failure_.empty()) first_failure_ = why;
}

std::vector<std::uint64_t> Generator::timed_sent() const {
  std::vector<std::uint64_t> out;
  for (int c = 0; c < workload_.spec().update_connections; ++c) {
    out.push_back(conns_[static_cast<std::size_t>(c)].timed_sent);
  }
  return out;
}

std::size_t Generator::in_flight() const {
  std::size_t total = 0;
  for (const Conn& conn : conns_) {
    total += conn.updates.size() + conn.reduces.size();
  }
  return total;
}

double WindowedSamples::MedianOfPercentile(double q) const {
  std::vector<double> per_window;
  for (const auto& window : windows) {
    if (!window.empty()) per_window.push_back(window.Percentile(q));
  }
  if (per_window.empty()) return 0.0;
  std::sort(per_window.begin(), per_window.end());
  return per_window[per_window.size() / 2];
}

double Generator::saturation_rate() const {
  if (sat_block_ns_.empty()) {
    return sat_seconds_ > 0 ? static_cast<double>(sat_completed_) / sat_seconds_
                            : 0.0;
  }
  std::vector<std::int64_t> blocks = sat_block_ns_;
  std::sort(blocks.begin(), blocks.end());
  return static_cast<double>(kRateBlock) * 1e9 /
         static_cast<double>(blocks[blocks.size() / 2]);
}

// ------------------------------------------------------------- handshake

StatusOr<net::Frame> Generator::AwaitFrame(Conn& conn) {
  const std::int64_t deadline = NowNs() + kHandshakeTimeoutMs * kNsPerMs;
  for (;;) {
    if (auto frame = conn.in.Next()) return std::move(*frame);
    RCLOAK_RETURN_IF_ERROR(conn.in.status());
    const std::int64_t left_ms = (deadline - NowNs()) / kNsPerMs;
    if (left_ms <= 0) return Status::Internal("handshake timed out");
    pollfd pfd{conn.fd, POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(left_ms));
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::DataLoss("server closed during handshake");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return Status::Internal("recv: " + std::string(strerror(errno)));
    }
    RCLOAK_RETURN_IF_ERROR(conn.in.Feed(chunk, static_cast<std::size_t>(n)));
  }
}

Status Generator::Connect(std::uint16_t port, std::uint64_t map_fingerprint) {
  const Bytes secret = Workload::AuthSecret();
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    auto fd = ConnectLoopback(port);
    RCLOAK_RETURN_IF_ERROR(fd.status());
    conns_[c].fd = *fd;
    net::AppendHello(conns_[c].out,
                     net::HelloFrame{net::kProtocolVersion, map_fingerprint, {}});
  }
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    Conn& conn = conns_[c];
    Flush(conn);
    auto hello = AwaitFrame(conn);
    RCLOAK_RETURN_IF_ERROR(hello.status());
    if (hello->type != net::FrameType::kHello) {
      return Status::FailedPrecondition("expected HELLO reply");
    }
    const auto decoded = net::DecodeHello(hello->payload);
    RCLOAK_RETURN_IF_ERROR(decoded.status());
    if (decoded->nonce.empty()) {
      return Status::FailedPrecondition("server did not challenge");
    }
    const std::string principal = Workload::Principal(static_cast<int>(c));
    net::AppendAuth(conn.out,
                    net::AuthFrame{principal,
                                   net::AuthTag(secret, decoded->nonce,
                                                principal)});
    Flush(conn);
    auto ok = AwaitFrame(conn);
    RCLOAK_RETURN_IF_ERROR(ok.status());
    if (ok->type != net::FrameType::kAuthOk) {
      return Status::PermissionDenied("authentication refused");
    }
  }
  return Status::Ok();
}

// ------------------------------------------------------------- sending

void Generator::SendUpdate(Conn& conn, const Item& item, std::int64_t due_ns,
                           Phase phase) {
  char name[16];
  const std::uint32_t seq = conn.next_seq++;
  net::AppendPositionUpdate(conn.out, seq,
                            Workload::UserName(item.user, name), item.now_s,
                            item.segment);
  conn.updates.push_back({seq, item.user, item.segment, due_ns, phase});
  ++attempted_;
}

void Generator::SendReduce(std::int64_t due_ns, bool timed) {
  if (!have_artifact_) return;
  Conn& conn = conns_[static_cast<std::size_t>(
      workload_.spec().requester_connection())];
  const ReplyTrack& track = tracks_[last_user_];
  // Alternate the two key holders: every key down to the exact segment,
  // and the level-2 key only down to the validity level.
  const bool full = reduces_sent_++ % 2 == 0;
  const crypto::KeyChain keys = KeysFor(last_user_, track.epoch);
  net::ReduceRequestFrame request;
  request.seq = conn.next_seq++;
  request.target_level = full ? 0 : Workload::kValidityLevel;
  for (int level = request.target_level + 1; level <= keys.num_levels();
       ++level) {
    request.granted_keys.emplace(level, keys.LevelKey(level));
  }
  request.artifact_wire = last_artifact_;
  net::AppendReduceRequest(conn.out, request);
  conn.reduces.push_back({request.seq, last_user_, track.epoch, track.origin,
                          full, timed, due_ns});
  ++attempted_;
}

bool Generator::NextFor(int connection, Item* item) {
  Conn& conn = conns_[static_cast<std::size_t>(connection)];
  while (conn.cursor < workload_.length()) {
    const Item next = workload_.At(conn.cursor++);
    if (workload_.ConnectionOf(next.user) == connection) {
      *item = next;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- I/O pump

void Generator::Flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fatal_ = Status::Internal("send: " + std::string(strerror(errno)));
    return;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  } else if (conn.out_off > (1u << 20)) {
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() + static_cast<std::ptrdiff_t>(conn.out_off));
    conn.out_off = 0;
  }
}

void Generator::Read(Conn& conn) {
  // Frames are handled after every chunk, so the reassembler never holds
  // more than one chunk plus a partial frame.
  std::uint8_t chunk[16 << 10];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      const std::int64_t now = NowNs();
      if (const Status fed = conn.in.Feed(chunk, static_cast<std::size_t>(n));
          !fed.ok()) {
        fatal_ = fed;
        return;
      }
      while (auto frame = conn.in.Next()) HandleFrame(conn, *frame, now);
      continue;
    }
    if (n == 0) {
      fatal_ = Status::DataLoss("server closed a connection");
      return;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      fatal_ = Status::Internal("recv: " + std::string(strerror(errno)));
    }
    return;
  }
}

void Generator::Pump(std::int64_t timeout_ns) {
  pollfd fds[8];
  const std::size_t n = conns_.size();
  for (std::size_t c = 0; c < n; ++c) {
    Flush(conns_[c]);
    fds[c] = {conns_[c].fd,
              static_cast<short>(POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT)),
              0};
  }
  const timespec timeout{static_cast<time_t>(timeout_ns / 1000000000),
                         static_cast<long>(timeout_ns % 1000000000)};
  if (::ppoll(fds, n, &timeout, nullptr) <= 0) return;
  for (std::size_t c = 0; c < n; ++c) {
    if (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) Read(conns_[c]);
    if (fds[c].revents & POLLOUT) Flush(conns_[c]);
  }
}

void Generator::HandleFrame(Conn& conn, const net::Frame& frame,
                            std::int64_t now_ns) {
  switch (frame.type) {
    case net::FrameType::kArtifactReply: {
      const auto reply = net::DecodeArtifactReply(frame.payload);
      if (!reply.ok() || conn.updates.empty() ||
          conn.updates.front().seq != reply->seq) {
        Fail("artifact reply undecodable or out of order");
        if (!conn.updates.empty()) conn.updates.pop_front();
        return;
      }
      const PendingUpdate pending = conn.updates.front();
      conn.updates.pop_front();
      if (!reply->status.ok()) {
        Fail("update refused: " + reply->status.ToString());
        return;
      }
      const Bytes& wire = reply->artifact_wire;
      tracks_[pending.user].OnReply(wire.data(), wire.size(), pending.segment);
      last_artifact_ = wire;
      last_user_ = pending.user;
      have_artifact_ = true;
      if (pending.phase == Phase::kOpen) {
        update_ms_.Add(pending.due_ns - open_start_ns_,
                       static_cast<double>(now_ns - pending.due_ns) / 1e6);
      } else if (pending.phase == Phase::kSaturate && saturating_ &&
                 now_ns < sat_deadline_ns_) {
        ++sat_completed_;
        if (sat_completed_ % kRateBlock == 0) {
          sat_block_ns_.push_back(now_ns - sat_block_start_ns_);
          sat_block_start_ns_ = now_ns;
        }
      }
      return;
    }
    case net::FrameType::kReduceReply: {
      const auto reply = net::DecodeReduceReply(frame.payload);
      if (!reply.ok() || conn.reduces.empty() ||
          conn.reduces.front().seq != reply->seq) {
        Fail("reduce reply undecodable or out of order");
        if (!conn.reduces.empty()) conn.reduces.pop_front();
        return;
      }
      const PendingReduce pending = conn.reduces.front();
      conn.reduces.pop_front();
      if (!reply->status.ok()) {
        Fail("reduce refused: " + reply->status.ToString());
        return;
      }
      if (pending.full_keys) {
        if (reply->segments.size() != 1 ||
            reply->segments[0] != pending.origin) {
          Fail("full-key reduce did not return the origin segment");
          return;
        }
      } else {
        checks_.push_back(
            {pending.user, pending.epoch, SegmentsDigest(reply->segments)});
      }
      if (pending.timed) {
        reduce_ms_.Add(pending.due_ns - open_start_ns_,
                       static_cast<double>(now_ns - pending.due_ns) / 1e6);
      }
      return;
    }
    case net::FrameType::kError: {
      const auto error = net::DecodeError(frame.payload);
      const std::string why =
          error.ok() ? error->message : std::string("undecodable ERROR");
      if (error.ok() && !conn.updates.empty() &&
          conn.updates.front().seq == error->seq) {
        conn.updates.pop_front();
      } else if (error.ok() && !conn.reduces.empty() &&
                 conn.reduces.front().seq == error->seq) {
        conn.reduces.pop_front();
      } else {
        fatal_ = Status::DataLoss("connection-level ERROR: " + why);
      }
      Fail("ERROR frame: " + why);
      return;
    }
    default:
      Fail("unexpected frame type");
      return;
  }
}

// ------------------------------------------------------------- phases

Status Generator::FirstSighting() {
  const auto& items = workload_.first_sighting();
  std::size_t next = 0;
  while (next < items.size() && fatal_.ok()) {
    Conn& conn = conns_[static_cast<std::size_t>(
        workload_.ConnectionOf(items[next].user))];
    if (conn.updates.size() >= kFirstSightingWindow) {
      Pump(kNsPerMs);
      continue;
    }
    SendUpdate(conn, items[next], 0, Phase::kSetup);
    ++next;
  }
  Drain(60.0);
  if (!fatal_.ok()) return fatal_;
  if (failed_ != 0) {
    return Status::Internal("first sighting failed: " + first_failure_);
  }
  return Status::Ok();
}

void Generator::OpenLoop(double seconds) {
  const WorkloadSpec& spec = workload_.spec();
  const double ns_per_item = 1e9 / spec.open_loop_rate;
  const std::int64_t start = NowNs() + kNsPerMs;
  const auto duration = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t warm = start + duration / 10;
  open_start_ns_ = warm;
  const std::int64_t end = start + duration;
  std::uint64_t k = 0;
  while (fatal_.ok()) {
    const std::int64_t now = NowNs();
    if (now >= end) break;
    while (k < workload_.length()) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(k) *
                                            ns_per_item);
      if (due > now) break;
      const Item item = workload_.At(k);
      Conn& conn =
          conns_[static_cast<std::size_t>(workload_.ConnectionOf(item.user))];
      SendUpdate(conn, item, due, due < warm ? Phase::kWarmup : Phase::kOpen);
      ++conn.timed_sent;
      lateness_ms_.Add(static_cast<double>(now - due) / 1e6);
      if ((k + 1) % spec.updates_per_reduce == 0) SendReduce(due, due >= warm);
      ++k;
    }
    // Sleep until the next update is due (or a reply arrives) instead of
    // spinning: the generator must not take a core from the server.
    const std::int64_t next_due =
        start + static_cast<std::int64_t>(static_cast<double>(k) *
                                          ns_per_item);
    Pump(std::max<std::int64_t>(0, std::min(next_due, end) - NowNs()));
  }
  open_loop_items_ = k;
  for (Conn& conn : conns_) conn.cursor = k;
}

void Generator::Saturate(double seconds) {
  const WorkloadSpec& spec = workload_.spec();
  const std::int64_t start = NowNs();
  sat_block_start_ns_ = start;
  sat_deadline_ns_ = start + static_cast<std::int64_t>(seconds * 1e9);
  saturating_ = true;
  sat_completed_ = 0;
  std::uint64_t reduces = 0;
  std::int64_t now = start;
  while (fatal_.ok()) {
    now = NowNs();
    if (now >= sat_deadline_ns_) break;
    bool exhausted = true;
    for (int c = 0; c < spec.update_connections; ++c) {
      Conn& conn = conns_[static_cast<std::size_t>(c)];
      Item item;
      while (conn.updates.size() < kSaturationWindow) {
        if (!NextFor(c, &item)) break;
        SendUpdate(conn, item, now, Phase::kSaturate);
        ++conn.timed_sent;
      }
      if (conn.cursor < workload_.length()) exhausted = false;
    }
    while (sat_completed_ / spec.updates_per_reduce > reduces) {
      SendReduce(now, false);
      ++reduces;
    }
    if (exhausted && in_flight() == 0) break;
    Pump(kNsPerMs);
  }
  saturating_ = false;
  sat_seconds_ = static_cast<double>(std::min(now, sat_deadline_ns_) - start) /
                 1e9;
}

void Generator::Drain(double timeout_s) {
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (fatal_.ok() && in_flight() > 0 && NowNs() < deadline) {
    Pump(5 * kNsPerMs);
  }
  const std::size_t missing = in_flight();
  for (std::size_t i = 0; i < missing; ++i) Fail("reply missing");
  for (Conn& conn : conns_) {
    conn.updates.clear();
    conn.reduces.clear();
  }
}

}  // namespace perfbench
