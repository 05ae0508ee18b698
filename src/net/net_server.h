// The networked front door: a pool of epoll event-loop threads turning
// framed position updates off TCP sockets into ContinuousSessionPool
// batches.
//
// The perf-relevant shape (measured by bench/bench_e23_net.cpp):
//
//   * N independent loops (`loop_threads`). Each loop owns its own epoll
//     fd, eventfd wakeup, acceptor on a shared SO_REUSEPORT listening
//     socket (the kernel shards incoming connections across the loops),
//     connection map, frame-reassembly buffers, tick accumulator and
//     reduce Deanonymizer session. Zero
//     cross-loop locks: a connection is pinned to the loop that accepted
//     it for its whole lifetime, so a user's update stream (one
//     connection) stays ordered and its artifact bytes stay byte-identical
//     at any loop count (pinned at 1/2/4 loops in tests/net_test.cc and
//     bench_e23 --verify).
//   * Per-tick batch formation, per loop. One PollOnce round drains every
//     readable connection on that loop; every POSITION_UPDATE decoded in
//     the round is accumulated and handed to the pool as ONE UpdateBatch
//     call on the id path. N loops drive the pool concurrently, and its
//     re-cloaks share the server's one job queue — the pool's shard locks
//     and per-user determinism make the concurrent batches safe and
//     byte-exact.
//   * Allocation-free decode on the steady path: the decoded user id is a
//     view into the frame payload, resolved by one FindOrTrack call (a
//     shared-lock find for a known user), and the update travels as
//     IdPositionUpdate — no std::string materializes per update.
//   * Zero-copy replies, streamed. An artifact is encoded once, by the
//     server worker that cut it, and its session keeps the bytes beside
//     it (core::EncodedArtifact). The pool hands the tick's results to
//     the loop in input order as they become final, in-region ones once
//     the re-cloak round is queued and re-cloaks as each finished prefix
//     of the round commits; the loop queues each reply's kept bytes BY
//     REFERENCE on its connection and flushes every connection that part
//     touched, so early replies leave while later re-cloaks still run.
//     The vectored write joins the owned frame prefix and the shared body
//     on the wire.
//   * Syscall batching: reads drain to EAGAIN, writes go through
//     sendmsg(iovec[64]), EPOLLOUT is registered only while a write queue
//     is non-empty.
//
// Statistics: every counter lives in a per-loop block of relaxed atomics
// written only by the owning loop thread (morally plain u64s; the atomics
// exist so stats() can sum the blocks from any thread without a lock on
// the steady path). `connections_active` stays a coherent gauge because
// each loop only moves its own share.
//
// Backpressure: a connection whose write queue passes the soft budget
// stops being read (EPOLLIN off) until it drains below half the budget; a
// queue passing the hard cap drops the connection with a counted error.
//
// Protocol: the first frame on a connection must be HELLO (version + map
// fingerprint); the server replies with its own and refuses mismatches.
// With `auth_secret` set, the HELLO reply carries a random nonce and the
// client must answer with AUTH (principal + HMAC-SHA256 over
// nonce || principal) before any other frame; sessions tracked by the
// connection bind to that principal, and the pool refuses updates or
// reconnect-adoptions for a user owned by a different principal with
// kPermissionDenied (the front door only counts the refusals).
// POSITION_UPDATE auto-tracks unknown users under the server's profile
// and the key schedule below, so a fleet client is just "connect, hello,
// stream updates". REDUCE_REQUEST runs inline on the owning loop thread
// through that loop's context-sharing Deanonymizer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/event_loop.h"
#include "net/frame_codec.h"
#include "server/continuous_session_pool.h"

namespace rcloak::net {

// The per-user deterministic key schedule the front door tracks unknown
// users under when the pool has no key_provider_factory:
// seed = base ^ (FNV(user) * golden) + epoch. Exposed so an
// in-process twin (bench_e23's --verify oracle, tests) can re-derive the
// exact chains and pin wire artifacts byte-for-byte.
core::ContinuousCloak::KeyProvider DeterministicKeyProvider(
    std::uint64_t seed_base, std::string_view user_id, int num_levels);

struct NetServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()

  // Event-loop threads fronting the pool. 1 (default) is the single-loop
  // behavior of every earlier protocol pin, byte-for-byte. N > 1 shards
  // the whole wire path — accept, decode, batch dispatch, reply encode,
  // inline reduce — across N independent loops with no cross-loop locks;
  // per-user ordering is preserved because a connection is pinned to one
  // loop for life. The loops share the port through SO_REUSEPORT (Linux
  // 3.9+); Start() fails if that bind does.
  int loop_threads = 1;

  // Session parameters applied when a POSITION_UPDATE names an untracked
  // user (the auto-track path).
  core::PrivacyProfile profile = core::PrivacyProfile(
      {{8, 3, 1e9}, {25, 8, 1e9}});
  core::Algorithm algorithm = core::Algorithm::kRge;
  core::ContinuousOptions continuous{1, 0.0};
  // Seeds DeterministicKeyProvider when the pool has no key factory.
  std::uint64_t key_seed_base = 50000;

  // Shared authentication secret. Empty (default) = open mode: the HELLO
  // exchange completes without a challenge and sessions are unowned,
  // preserving the pre-v2 behavior byte-for-byte. Non-empty: the server's
  // HELLO reply carries a random nonce and the client must answer with an
  // AUTH frame (HMAC-SHA256 over nonce || principal) before any other
  // frame; every session the connection tracks binds to that principal.
  Bytes auth_secret;

  ConnectionLimits limits;
};

struct NetServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_closed_peer = 0;
  std::uint64_t connections_dropped_error = 0;
  std::uint64_t connections_dropped_backpressure = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t hello_rejected = 0;
  // Challenge-response outcomes (auth mode only).
  std::uint64_t auth_ok = 0;
  std::uint64_t auth_rejected = 0;
  // Updates the pool refused with kPermissionDenied: the user's session
  // (resident or spilled) is owned by a different principal.
  std::uint64_t ownership_rejected = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t updates_decoded = 0;
  std::uint64_t reduce_requests = 0;
  // Subset of `reduce_requests` that ran while the loop already had a
  // tick batch pending — inline reduce work that batch waits behind.
  std::uint64_t reduce_in_tick = 0;
  // Batch formation: ticks that carried at least one update, and the
  // largest single-tick batch handed to the pool (max over loops).
  std::uint64_t batches = 0;
  std::uint64_t largest_batch = 0;
  // Compatibility fields, always 0: replies send the bytes each session
  // keeps with its artifact, so there is no encode cache. Kept because
  // perfbench reports them.
  std::uint64_t artifact_cache_hits = 0;
  std::uint64_t artifact_cache_misses = 0;
  std::uint64_t artifact_cache_entries = 0;
  std::uint64_t reads_paused = 0;
  std::uint64_t reads_resumed = 0;
};

class NetServer {
 public:
  // The pool (and the server underneath it) must outlive the NetServer.
  // Users are resolved or tracked by the pool's FindOrTrack, keyed by the
  // pool's key_provider_factory when set, else DeterministicKeyProvider.
  // A reconnecting user that was spilled keeps its handle, and the pool's
  // restore-on-miss adopts the session mid-batch.
  NetServer(server::ContinuousSessionPool& pool,
            const NetServerOptions& options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Builds the tables of the backend `algorithm` names (none for RGE),
  // binds the shared listening address, then runs one event loop per
  // `loop_threads` on dedicated threads.
  Status Start();
  // Idempotent; fans a shutdown wake across every loop, joins them all
  // and closes every connection (queued bytes best-effort flushed).
  void Stop();

  std::uint16_t port() const noexcept { return port_; }
  std::uint64_t map_fingerprint() const noexcept { return map_fingerprint_; }
  int loop_count() const noexcept { return static_cast<int>(loops_.size()); }
  // Aggregated over the per-loop stat blocks.
  NetServerStats stats() const;
  // One snapshot per loop, same fields — the per-loop update share for
  // benches and ops dashboards.
  std::vector<NetServerStats> per_loop_stats() const;

 private:
  struct PendingUpdate {
    server::ContinuousSessionPool::IdPositionUpdate update;
    std::uint64_t conn_id = 0;
    std::uint32_t seq = 0;
  };

  // One loop's statistics block. Every field is written only by the
  // owning loop thread; the relaxed atomics exist solely so stats() can
  // read the block from another thread without tearing — there is no
  // cross-loop contention and no lock.
  struct LoopStats {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_active{0};
    std::atomic<std::uint64_t> connections_closed_peer{0};
    std::atomic<std::uint64_t> connections_dropped_error{0};
    std::atomic<std::uint64_t> connections_dropped_backpressure{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> hello_rejected{0};
    std::atomic<std::uint64_t> auth_ok{0};
    std::atomic<std::uint64_t> auth_rejected{0};
    std::atomic<std::uint64_t> ownership_rejected{0};
    // Bumped by the loop's connections as bytes and frames move.
    TrafficCounters traffic;
    std::atomic<std::uint64_t> updates_decoded{0};
    std::atomic<std::uint64_t> reduce_requests{0};
    std::atomic<std::uint64_t> reduce_in_tick{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> largest_batch{0};
    std::atomic<std::uint64_t> reads_paused{0};
    std::atomic<std::uint64_t> reads_resumed{0};
  };

  // Everything one event loop owns. No other loop thread ever touches a
  // Loop's members, except the relaxed-atomic `stats` block (read by
  // stats()).
  struct Loop {
    Loop(std::uint32_t index, std::uint32_t stride,
         std::shared_ptr<const core::MapContext> ctx)
        : next_conn_id(index + 1),
          conn_id_stride(stride),
          deanonymizer(std::move(ctx)) {}

    EventLoop loop;
    std::unique_ptr<Acceptor> acceptor;
    std::thread thread;

    // Loop-thread state. Connection ids are globally unique: loop k mints
    // k+1, k+1+stride, ... so a reply or close can always be attributed
    // to its owning loop.
    std::uint64_t next_conn_id;
    const std::uint64_t conn_id_stride;
    std::uint64_t nonce_counter = 0;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
        connections;
    std::vector<PendingUpdate> tick_updates;
    std::vector<std::uint64_t> tick_touched;
    // Connections the replies of one streamed part of the tick went to.
    std::vector<std::uint64_t> replied;
    // Per-loop reduce session: REDUCE_REQUEST runs inline on the loop
    // thread, so each loop carries its own context-sharing Deanonymizer.
    core::Deanonymizer deanonymizer;

    LoopStats stats;
  };

  void LoopMain(Loop& lp);
  void OnAcceptable(Loop& lp);
  // Registers an accepted fd as a connection owned by `lp`.
  void AdoptFd(Loop& lp, int fd);
  void OnConnectionEvent(Loop& lp, std::uint64_t conn_id, std::uint32_t ready);
  // Decodes every complete frame buffered on `conn`; position updates land
  // in lp.tick_updates, everything else is handled inline.
  void DrainFrames(Loop& lp, Connection& conn);
  void HandleFrame(Loop& lp, Connection& conn, const Frame& frame);
  void HandleHello(Loop& lp, Connection& conn, const Bytes& payload);
  void HandleAuth(Loop& lp, Connection& conn, const Bytes& payload);
  void HandlePositionUpdate(Loop& lp, Connection& conn, const Bytes& payload);
  void HandleReduceRequest(Loop& lp, Connection& conn, const Bytes& payload);
  // End-of-tick: one pool.UpdateBatch over lp.tick_updates. Each part of
  // the results the pool streams back is queued per connection and every
  // connection it touched is flushed before the pool goes on.
  void DispatchBatch(Loop& lp);
  // FlushAndUpdate on each listed connection still open, once each; clears
  // the list.
  void FlushConnections(Loop& lp, std::vector<std::uint64_t>& conn_ids);
  // Flush + EPOLLOUT/backpressure bookkeeping for one connection.
  void FlushAndUpdate(Loop& lp, Connection& conn);
  void UpdateInterest(Loop& lp, Connection& conn, bool want_write);
  void SendError(Connection& conn, std::uint32_t seq, ErrorCode code,
                 std::string message);
  enum class CloseReason : std::uint8_t { kPeer, kError, kBackpressure };
  void CloseConnection(Loop& lp, std::uint64_t conn_id, CloseReason reason);
  NetServerStats SnapshotLoop(const Loop& lp) const;
  // Fresh unpredictable challenge (owning loop thread only; conn ids are
  // globally unique, so challenges never collide across loops).
  Bytes NextNonce(Loop& lp, std::uint64_t conn_id);

  server::ContinuousSessionPool* pool_;
  NetServerOptions options_;
  std::uint64_t map_fingerprint_ = 0;
  std::size_t segment_count_ = 0;

  std::vector<std::unique_ptr<Loop>> loops_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  // Nonce generation: random per-server salt (std::random_device at
  // construction) hashed with a per-loop counter and the globally unique
  // connection id, so challenges never repeat and are not predictable
  // from earlier ones.
  std::uint64_t nonce_salt_ = 0;
};

}  // namespace rcloak::net
