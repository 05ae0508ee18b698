#include "net/net_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <random>
#include <utility>

#include "core/artifact.h"
#include "crypto/sha256.h"

namespace rcloak::net {

namespace {

// Idle poll timeout. Stop() wakes every loop through its eventfd and all
// other work is event-driven, so no behavior depends on this value.
constexpr int kPollTimeoutMs = 100;

// Per-loop counters are written only by the owning loop thread; relaxed is
// enough for the cross-thread sum in stats().
inline void Bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

core::ContinuousCloak::KeyProvider DeterministicKeyProvider(
    std::uint64_t seed_base, std::string_view user_id, int num_levels) {
  const std::uint64_t user_seed =
      seed_base ^ (util::HashBytes(user_id) * 0x9e3779b97f4a7c15ull);
  return [user_seed, num_levels](std::uint64_t epoch) {
    return crypto::KeyChain::FromSeed(user_seed + epoch, num_levels);
  };
}

NetServer::NetServer(server::ContinuousSessionPool& pool,
                     const NetServerOptions& options)
    : pool_(&pool),
      options_(options),
      map_fingerprint_(
          core::FingerprintNetwork(pool.server().engine().network())),
      segment_count_(pool.server().engine().network().segment_count()) {
  std::random_device entropy;
  nonce_salt_ = (static_cast<std::uint64_t>(entropy()) << 32) ^ entropy();
  const int count = std::max(1, options_.loop_threads);
  const auto& ctx = pool.server().engine().context();
  loops_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    loops_.push_back(std::make_unique<Loop>(static_cast<std::uint32_t>(i),
                                            static_cast<std::uint32_t>(count),
                                            ctx));
  }
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  for (const auto& lp : loops_) {
    RCLOAK_RETURN_IF_ERROR(lp->loop.status());
  }
  // The loop threads run REDUCE inline, so build the configured backend's
  // tables now rather than on the first request that needs them (RGE
  // builds none). A failed build surfaces on that request instead.
  const core::Anonymizer& engine = pool_->server().engine();
  if (options_.algorithm == core::Algorithm::kRple) {
    (void)engine.EnsurePreassigned();
  } else if (options_.algorithm == core::Algorithm::kGrid) {
    (void)engine.EnsureGridReady();
  }
  // Every loop owns an acceptor on the shared address. With more than one
  // loop they bind with SO_REUSEPORT so the kernel shards accepts; loop 0
  // binds first and its siblings bind the (possibly ephemeral) port it got.
  const bool reuse_port = loops_.size() > 1;
  for (std::size_t k = 0; k < loops_.size(); ++k) {
    auto acceptor =
        Acceptor::Listen(options_.bind_address, k == 0 ? options_.port : port_,
                         128, reuse_port);
    if (!acceptor.ok()) {
      for (const auto& lp : loops_) lp->acceptor.reset();
      return acceptor.status();
    }
    loops_[k]->acceptor =
        std::make_unique<Acceptor>(std::move(acceptor).value());
    port_ = loops_[k]->acceptor->port();
  }
  for (const auto& lp : loops_) {
    Loop* raw = lp.get();
    auto added =
        lp->loop.Add(lp->acceptor->fd(), EventLoop::kReadable,
                     [this, raw](std::uint32_t) { OnAcceptable(*raw); });
    RCLOAK_RETURN_IF_ERROR(added.status());
  }
  running_.store(true, std::memory_order_release);
  for (const auto& lp : loops_) {
    Loop* raw = lp.get();
    lp->thread = std::thread([this, raw] { LoopMain(*raw); });
  }
  return Status::Ok();
}

void NetServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Fan the shutdown wake across every loop, then join them all.
  for (const auto& lp : loops_) lp->loop.Wakeup();
  for (const auto& lp : loops_) {
    if (lp->thread.joinable()) lp->thread.join();
  }
}

NetServerStats NetServer::SnapshotLoop(const Loop& lp) const {
  const LoopStats& s = lp.stats;
  NetServerStats out;
  const auto get = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  out.connections_accepted = get(s.connections_accepted);
  out.connections_active = get(s.connections_active);
  out.connections_closed_peer = get(s.connections_closed_peer);
  out.connections_dropped_error = get(s.connections_dropped_error);
  out.connections_dropped_backpressure =
      get(s.connections_dropped_backpressure);
  out.protocol_errors = get(s.protocol_errors);
  out.hello_rejected = get(s.hello_rejected);
  out.auth_ok = get(s.auth_ok);
  out.auth_rejected = get(s.auth_rejected);
  out.ownership_rejected = get(s.ownership_rejected);
  out.bytes_in = get(s.traffic.bytes_in);
  out.bytes_out = get(s.traffic.bytes_out);
  out.frames_in = get(s.traffic.frames_in);
  out.frames_out = get(s.traffic.frames_out);
  out.updates_decoded = get(s.updates_decoded);
  out.reduce_requests = get(s.reduce_requests);
  out.reduce_in_tick = get(s.reduce_in_tick);
  out.batches = get(s.batches);
  out.largest_batch = get(s.largest_batch);
  out.reads_paused = get(s.reads_paused);
  out.reads_resumed = get(s.reads_resumed);
  return out;
}

NetServerStats NetServer::stats() const {
  NetServerStats total;
  for (const auto& lp : loops_) {
    const NetServerStats s = SnapshotLoop(*lp);
    total.connections_accepted += s.connections_accepted;
    total.connections_active += s.connections_active;
    total.connections_closed_peer += s.connections_closed_peer;
    total.connections_dropped_error += s.connections_dropped_error;
    total.connections_dropped_backpressure +=
        s.connections_dropped_backpressure;
    total.protocol_errors += s.protocol_errors;
    total.hello_rejected += s.hello_rejected;
    total.auth_ok += s.auth_ok;
    total.auth_rejected += s.auth_rejected;
    total.ownership_rejected += s.ownership_rejected;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
    total.frames_in += s.frames_in;
    total.frames_out += s.frames_out;
    total.updates_decoded += s.updates_decoded;
    total.reduce_requests += s.reduce_requests;
    total.reduce_in_tick += s.reduce_in_tick;
    total.batches += s.batches;
    // A batch never spans loops, so the fleet-wide largest single batch is
    // the max, not the sum.
    total.largest_batch = std::max(total.largest_batch, s.largest_batch);
    total.reads_paused += s.reads_paused;
    total.reads_resumed += s.reads_resumed;
  }
  return total;
}

std::vector<NetServerStats> NetServer::per_loop_stats() const {
  std::vector<NetServerStats> out;
  out.reserve(loops_.size());
  for (const auto& lp : loops_) out.push_back(SnapshotLoop(*lp));
  return out;
}

void NetServer::LoopMain(Loop& lp) {
  while (running_.load(std::memory_order_acquire)) {
    lp.loop.PollOnce(kPollTimeoutMs);
    if (!lp.tick_updates.empty()) DispatchBatch(lp);
    FlushConnections(lp, lp.tick_touched);
  }
  // Shutdown: drop every connection (queued bytes are best-effort flushed).
  std::vector<std::uint64_t> ids;
  ids.reserve(lp.connections.size());
  for (const auto& [id, conn] : lp.connections) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    lp.connections[id]->Flush();
    CloseConnection(lp, id, CloseReason::kPeer);
  }
}

void NetServer::OnAcceptable(Loop& lp) {
  lp.acceptor->AcceptReady([this, &lp](int fd) { AdoptFd(lp, fd); });
}

void NetServer::AdoptFd(Loop& lp, int fd) {
  const std::uint64_t conn_id = lp.next_conn_id;
  lp.next_conn_id += lp.conn_id_stride;
  if (options_.limits.send_buffer_bytes > 0) {
    const int size = options_.limits.send_buffer_bytes;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
  }
  auto conn = std::make_unique<Connection>(fd, conn_id, options_.limits,
                                           lp.stats.traffic);
  auto added = lp.loop.Add(fd, EventLoop::kReadable,
                           [this, &lp, conn_id](std::uint32_t ready) {
                             OnConnectionEvent(lp, conn_id, ready);
                           });
  if (!added.ok()) return;  // fd closed by Connection dtor
  conn->loop_token = added.value();
  lp.connections.emplace(conn_id, std::move(conn));
  Bump(lp.stats.connections_accepted);
  Bump(lp.stats.connections_active);
}

void NetServer::OnConnectionEvent(Loop& lp, std::uint64_t conn_id,
                                  std::uint32_t ready) {
  const auto it = lp.connections.find(conn_id);
  if (it == lp.connections.end()) return;
  Connection& conn = *it->second;
  if (ready & EventLoop::kWritable) {
    FlushAndUpdate(lp, conn);
    if (lp.connections.find(conn_id) == lp.connections.end()) return;
  }
  // Error/hangup bits fall through to the read path: read() reports them.
  if ((ready & ~EventLoop::kWritable) == 0) return;
  switch (conn.ReadReady()) {
    case Connection::ReadResult::kOk:
      break;
    case Connection::ReadResult::kPeerClosed:
      DrainFrames(lp, conn);  // frames completed by the final bytes count
      if (lp.connections.find(conn_id) != lp.connections.end()) {
        CloseConnection(lp, conn_id, CloseReason::kPeer);
      }
      return;
    case Connection::ReadResult::kProtocolError:
      Bump(lp.stats.protocol_errors);
      SendError(conn, kConnectionSeq, conn.last_error().code(),
                conn.last_error().message());
      conn.Flush();
      CloseConnection(lp, conn_id, CloseReason::kError);
      return;
    case Connection::ReadResult::kIoError:
      CloseConnection(lp, conn_id, CloseReason::kError);
      return;
  }
  DrainFrames(lp, conn);
}

void NetServer::DrainFrames(Loop& lp, Connection& conn) {
  const std::uint64_t conn_id = conn.id();
  while (auto frame = conn.NextFrame()) {
    HandleFrame(lp, conn, *frame);
    // The handler may have dropped the connection (hello mismatch, bad
    // frame); `conn` is dead then.
    if (lp.connections.find(conn_id) == lp.connections.end()) return;
  }
  lp.tick_touched.push_back(conn_id);
}

void NetServer::HandleFrame(Loop& lp, Connection& conn, const Frame& frame) {
  // Handshake state machine: HELLO first, then (auth mode) exactly one
  // AUTH, then traffic. Anything out of order is a connection-level error.
  if (conn.awaiting_auth && frame.type != FrameType::kAuth) {
    SendError(conn, kConnectionSeq, ErrorCode::kPermissionDenied,
              "authentication required: answer the HELLO challenge first");
    conn.Flush();
    Bump(lp.stats.auth_rejected);
    CloseConnection(lp, conn.id(), CloseReason::kError);
    return;
  }
  if (!conn.handshaken && !conn.awaiting_auth &&
      frame.type != FrameType::kHello) {
    SendError(conn, kConnectionSeq, ErrorCode::kFailedPrecondition,
              "first frame must be HELLO");
    conn.Flush();
    Bump(lp.stats.hello_rejected);
    CloseConnection(lp, conn.id(), CloseReason::kError);
    return;
  }
  if (conn.handshaken &&
      (frame.type == FrameType::kHello || frame.type == FrameType::kAuth)) {
    // A second HELLO (or stray AUTH) on a live connection is a handshake
    // reset attempt — with auth in play it must not silently re-run.
    SendError(conn, kConnectionSeq, ErrorCode::kFailedPrecondition,
              std::string(FrameTypeName(frame.type)) +
                  " after handshake completed");
    conn.Flush();
    Bump(lp.stats.hello_rejected);
    CloseConnection(lp, conn.id(), CloseReason::kError);
    return;
  }
  switch (frame.type) {
    case FrameType::kHello:
      HandleHello(lp, conn, frame.payload);
      return;
    case FrameType::kAuth:
      HandleAuth(lp, conn, frame.payload);
      return;
    case FrameType::kPositionUpdate:
      HandlePositionUpdate(lp, conn, frame.payload);
      return;
    case FrameType::kReduceRequest:
      HandleReduceRequest(lp, conn, frame.payload);
      return;
    default:
      SendError(conn, kConnectionSeq, ErrorCode::kInvalidArgument,
                std::string("unexpected frame: ") +
                    std::string(FrameTypeName(frame.type)));
      return;
  }
}

void NetServer::HandleHello(Loop& lp, Connection& conn, const Bytes& payload) {
  const auto hello = DecodeHello(payload);
  Status reject = Status::Ok();
  if (!hello.ok()) {
    reject = hello.status();
  } else if (hello->version != kProtocolVersion) {
    reject = Status::FailedPrecondition(
        "protocol version mismatch: server speaks v" +
        std::to_string(kProtocolVersion));
  } else if (hello->map_fingerprint != 0 &&
             hello->map_fingerprint != map_fingerprint_) {
    reject = Status::FailedPrecondition("map fingerprint mismatch");
  }
  if (!reject.ok()) {
    SendError(conn, kConnectionSeq, reject.code(), reject.message());
    conn.Flush();
    Bump(lp.stats.hello_rejected);
    CloseConnection(lp, conn.id(), CloseReason::kError);
    return;
  }
  HelloFrame reply{kProtocolVersion, map_fingerprint_, {}};
  if (options_.auth_secret.empty()) {
    // Open mode: the handshake is complete, sessions stay unowned.
    conn.handshaken = true;
  } else {
    // Auth mode: the reply carries the challenge; the connection stays in
    // the awaiting-auth state until a valid AUTH lands.
    conn.auth_nonce = NextNonce(lp, conn.id());
    conn.awaiting_auth = true;
    reply.nonce = conn.auth_nonce;
  }
  Bytes out;
  AppendHello(out, reply);
  conn.QueueOwned(std::move(out));
  conn.CountFrameOut();
}

void NetServer::HandleAuth(Loop& lp, Connection& conn, const Bytes& payload) {
  const auto auth = DecodeAuth(payload);
  Status reject = Status::Ok();
  if (!auth.ok()) {
    reject = auth.status();
  } else {
    const Bytes expected =
        AuthTag(options_.auth_secret, conn.auth_nonce, auth->principal);
    if (!crypto::ConstantTimeEqual(auth->tag, expected)) {
      reject = Status::PermissionDenied("authentication failed");
    }
  }
  if (!reject.ok()) {
    SendError(conn, kConnectionSeq, reject.code(), reject.message());
    conn.Flush();
    Bump(lp.stats.auth_rejected);
    CloseConnection(lp, conn.id(), CloseReason::kError);
    return;
  }
  conn.awaiting_auth = false;
  conn.handshaken = true;
  conn.principal = PrincipalToken(auth->principal);
  conn.auth_nonce.clear();
  Bump(lp.stats.auth_ok);
  Bytes out;
  AppendAuthOk(out, AuthOkFrame{auth->principal});
  conn.QueueOwned(std::move(out));
  conn.CountFrameOut();
}

Bytes NetServer::NextNonce(Loop& lp, std::uint64_t conn_id) {
  Bytes seed;
  seed.reserve(24);
  PutU64le(seed, nonce_salt_);
  PutU64le(seed, ++lp.nonce_counter);
  // Connection ids are globally unique across loops (per-loop stride), so
  // two loops sharing a counter value still seed distinct nonces.
  PutU64le(seed, conn_id);
  const crypto::Sha256::Digest digest = crypto::Sha256::Hash(seed);
  return Bytes(digest.begin(), digest.begin() + kAuthNonceBytes);
}

void NetServer::HandlePositionUpdate(Loop& lp, Connection& conn,
                                     const Bytes& payload) {
  const auto decoded = DecodePositionUpdate(payload);
  if (!decoded.ok()) {
    // The seq did not survive the decode, so the reply cannot name it:
    // the sentinel marks this as a connection-level complaint instead of
    // masquerading as a legitimate seq's error.
    SendError(conn, kConnectionSeq, decoded.status().code(),
              decoded.status().message());
    return;
  }
  // Range-check against the live map before the id reaches the pool's
  // occupancy accounting or the engine.
  if (roadnet::Index(decoded->segment) >= segment_count_) {
    SendError(conn, decoded->seq, ErrorCode::kOutOfRange,
              "segment id out of range for this map");
    return;
  }
  // The one pool call per update. A first sighting is owned by the
  // connection's principal (0 in open mode); the pool checks ownership.
  const auto user = pool_->FindOrTrack(
      decoded->user_id, options_.profile, options_.algorithm,
      [this](std::string_view name) {
        return DeterministicKeyProvider(options_.key_seed_base, name,
                                        options_.profile.num_levels());
      },
      options_.continuous, conn.principal);
  if (!user.ok()) {
    SendError(conn, decoded->seq, user.status().code(),
              user.status().message());
    return;
  }
  PendingUpdate pending;
  pending.update = {*user, decoded->now_s, decoded->segment, conn.principal};
  pending.conn_id = conn.id();
  pending.seq = decoded->seq;
  lp.tick_updates.push_back(pending);
  Bump(lp.stats.updates_decoded);
}

void NetServer::HandleReduceRequest(Loop& lp, Connection& conn,
                                    const Bytes& payload) {
  Bump(lp.stats.reduce_requests);
  // Inline reduce work runs on the loop thread: a pending tick batch waits
  // behind it.
  if (!lp.tick_updates.empty()) Bump(lp.stats.reduce_in_tick);
  const auto decoded = DecodeReduceRequest(payload);
  if (!decoded.ok()) {
    SendError(conn, kConnectionSeq, decoded.status().code(),
              decoded.status().message());
    return;
  }
  ReduceReplyFrame reply;
  reply.seq = decoded->seq;
  const auto artifact = core::DecodeArtifact(decoded->artifact_wire);
  if (!artifact.ok()) {
    reply.status = artifact.status();
  } else {
    auto region = lp.deanonymizer.Reduce(*artifact, decoded->granted_keys,
                                         decoded->target_level);
    if (region.ok()) {
      reply.segments = region->segments_by_id();
    } else {
      reply.status = region.status();
    }
  }
  Bytes out;
  AppendReduceReply(out, reply);
  conn.QueueOwned(std::move(out));
  conn.CountFrameOut();
}

void NetServer::DispatchBatch(Loop& lp) {
  std::vector<server::ContinuousSessionPool::IdPositionUpdate> updates;
  updates.reserve(lp.tick_updates.size());
  for (const PendingUpdate& pending : lp.tick_updates) {
    updates.push_back(pending.update);
  }
  // N loops call into the pool concurrently here; the pool's shard locks
  // and per-user purity make the concurrent rounds safe and the replies
  // byte-exact (a user's stream arrives on one pinned connection, so its
  // updates never straddle two loops' batches out of order).
  pool_->UpdateBatch(
      updates,
      [this, &lp](
          std::size_t first,
          std::span<const StatusOr<core::SharedEncodedArtifact>> results) {
        for (std::size_t i = 0; i < results.size(); ++i) {
          const PendingUpdate& pending = lp.tick_updates[first + i];
          const auto it = lp.connections.find(pending.conn_id);
          if (it == lp.connections.end()) continue;  // dropped mid-tick
          Connection& conn = *it->second;
          lp.replied.push_back(pending.conn_id);
          if (results[i].ok()) {
            const core::SharedEncodedArtifact& artifact = *results[i];
            conn.QueueOwned(
                ArtifactReplyPrefix(pending.seq, artifact->wire.size()));
            conn.QueueShared(core::WireOf(artifact));
            conn.CountFrameOut();
          } else if (results[i].status().code() ==
                     ErrorCode::kPermissionDenied) {
            // An ownership refusal answers with an ERROR frame, like the
            // front door's other refusals; a failed update rides in its
            // reply.
            Bump(lp.stats.ownership_rejected);
            SendError(conn, pending.seq, ErrorCode::kPermissionDenied,
                      results[i].status().message());
          } else {
            Bytes out;
            AppendArtifactError(out, pending.seq, results[i].status());
            conn.QueueOwned(std::move(out));
            conn.CountFrameOut();
          }
        }
        FlushConnections(lp, lp.replied);
      });
  Bump(lp.stats.batches);
  if (lp.tick_updates.size() >
      lp.stats.largest_batch.load(std::memory_order_relaxed)) {
    lp.stats.largest_batch.store(lp.tick_updates.size(),
                                 std::memory_order_relaxed);
  }
  lp.tick_updates.clear();
}

void NetServer::FlushConnections(Loop& lp,
                                 std::vector<std::uint64_t>& conn_ids) {
  std::sort(conn_ids.begin(), conn_ids.end());
  conn_ids.erase(std::unique(conn_ids.begin(), conn_ids.end()),
                 conn_ids.end());
  for (const std::uint64_t conn_id : conn_ids) {
    const auto it = lp.connections.find(conn_id);
    if (it != lp.connections.end()) FlushAndUpdate(lp, *it->second);
  }
  conn_ids.clear();
}

void NetServer::UpdateInterest(Loop& lp, Connection& conn, bool want_write) {
  std::uint32_t interest = 0;
  if (!conn.reading_paused) interest |= EventLoop::kReadable;
  if (want_write) interest |= EventLoop::kWritable;
  conn.write_armed = want_write;
  (void)lp.loop.Modify(conn.loop_token, interest);
}

void NetServer::FlushAndUpdate(Loop& lp, Connection& conn) {
  const auto result = conn.Flush();
  if (result == Connection::FlushResult::kError) {
    CloseConnection(lp, conn.id(), CloseReason::kError);
    return;
  }
  if (conn.over_hard_cap()) {
    CloseConnection(lp, conn.id(), CloseReason::kBackpressure);
    return;
  }
  bool interest_dirty = false;
  if (!conn.reading_paused && conn.over_soft_budget()) {
    conn.reading_paused = true;
    interest_dirty = true;
    Bump(lp.stats.reads_paused);
  } else if (conn.reading_paused && conn.below_resume_mark()) {
    conn.reading_paused = false;
    interest_dirty = true;
    Bump(lp.stats.reads_resumed);
  }
  const bool want_write = result == Connection::FlushResult::kBlocked;
  if (interest_dirty || want_write != conn.write_armed) {
    UpdateInterest(lp, conn, want_write);
  }
}

void NetServer::SendError(Connection& conn, std::uint32_t seq, ErrorCode code,
                          std::string message) {
  Bytes out;
  AppendError(out, ErrorFrame{seq, code, std::move(message)});
  conn.QueueOwned(std::move(out));
  conn.CountFrameOut();
}

void NetServer::CloseConnection(Loop& lp, std::uint64_t conn_id,
                                CloseReason reason) {
  const auto it = lp.connections.find(conn_id);
  if (it == lp.connections.end()) return;
  Connection& conn = *it->second;
  lp.loop.Remove(conn.loop_token);
  lp.stats.connections_active.fetch_sub(1, std::memory_order_relaxed);
  switch (reason) {
    case CloseReason::kPeer:
      Bump(lp.stats.connections_closed_peer);
      break;
    case CloseReason::kError:
      Bump(lp.stats.connections_dropped_error);
      break;
    case CloseReason::kBackpressure:
      Bump(lp.stats.connections_dropped_backpressure);
      break;
  }
  lp.connections.erase(it);  // Connection dtor closes the fd
}

}  // namespace rcloak::net
