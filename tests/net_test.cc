// Networked front door: the framing codec must round-trip every frame
// type through arbitrary read fragmentation and reject malformed input
// with bounded memory, and a real loopback NetServer must serve byte-for-
// byte the artifact sequences the ContinuousSessionPool produces when
// driven directly — the wire adds transport, never changes results. The
// loopback tests also run under the TSAN CI job (event-loop thread +
// server workers + client driver).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.h"
#include "net/client.h"
#include "net/encode_cache.h"
#include "net/net_server.h"
#include "roadnet/generators.h"

namespace rcloak {
namespace {

using net::FrameReassembler;
using net::FrameType;
using roadnet::RoadNetwork;
using roadnet::SegmentId;
using server::AnonymizationServer;
using server::ContinuousSessionPool;

mobility::OccupancySnapshot OnePerSegment(const RoadNetwork& net) {
  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    occupancy.Add(SegmentId{i});
  }
  return occupancy;
}

std::string Sha(const Bytes& bytes) {
  const auto digest = crypto::Sha256::Hash(bytes);
  return ToHex(Bytes(digest.begin(), digest.end()));
}

// Feeds `wire` into a reassembler `step` bytes at a time and returns every
// completed frame.
std::vector<net::Frame> ReassembleBy(const Bytes& wire, std::size_t step) {
  FrameReassembler reassembler;
  std::vector<net::Frame> frames;
  for (std::size_t off = 0; off < wire.size(); off += step) {
    const std::size_t n = std::min(step, wire.size() - off);
    EXPECT_TRUE(reassembler.Feed(wire.data() + off, n).ok());
    while (auto frame = reassembler.Next()) {
      frames.push_back(std::move(*frame));
    }
  }
  return frames;
}

TEST(FrameCodecTest, HelloRoundTrip) {
  Bytes wire;
  net::AppendHello(wire, {net::kProtocolVersion, 0xfeedface12345678ull});
  auto frames = ReassembleBy(wire, wire.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  const auto hello = net::DecodeHello(frames[0].payload);
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->version, net::kProtocolVersion);
  EXPECT_EQ(hello->map_fingerprint, 0xfeedface12345678ull);
}

TEST(FrameCodecTest, PositionUpdateRoundTrip) {
  Bytes wire;
  net::AppendPositionUpdate(wire, /*seq=*/7, "car/42[weird id]", 123.625,
                            SegmentId{991});
  auto frames = ReassembleBy(wire, wire.size());
  ASSERT_EQ(frames.size(), 1u);
  const auto update = net::DecodePositionUpdate(frames[0].payload);
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->seq, 7u);
  EXPECT_EQ(update->user_id, "car/42[weird id]");
  EXPECT_EQ(update->now_s, 123.625);
  EXPECT_EQ(update->segment, SegmentId{991});
  // The id is a borrowed view into the payload, not a copy.
  EXPECT_GE(update->user_id.data(),
            reinterpret_cast<const char*>(frames[0].payload.data()));
}

TEST(FrameCodecTest, ReduceRequestAndReplyRoundTrip) {
  net::ReduceRequestFrame request;
  request.seq = 31;
  request.target_level = 1;
  request.granted_keys.emplace(1, crypto::AccessKey::FromSeed(11));
  request.granted_keys.emplace(2, crypto::AccessKey::FromSeed(22));
  request.artifact_wire = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  Bytes wire;
  net::AppendReduceRequest(wire, request);

  net::ReduceReplyFrame reply;
  reply.seq = 31;
  reply.segments = {SegmentId{3}, SegmentId{4}, SegmentId{9},
                    SegmentId{4000}};
  net::AppendReduceReply(wire, reply);
  net::ReduceReplyFrame failed;
  failed.seq = 32;
  failed.status = Status::FailedPrecondition("missing level key");
  net::AppendReduceReply(wire, failed);

  auto frames = ReassembleBy(wire, wire.size());
  ASSERT_EQ(frames.size(), 3u);
  const auto decoded_request = net::DecodeReduceRequest(frames[0].payload);
  ASSERT_TRUE(decoded_request.ok());
  EXPECT_EQ(decoded_request->seq, 31u);
  EXPECT_EQ(decoded_request->target_level, 1);
  EXPECT_EQ(decoded_request->granted_keys, request.granted_keys);
  EXPECT_EQ(decoded_request->artifact_wire, request.artifact_wire);

  const auto decoded_reply = net::DecodeReduceReply(frames[1].payload);
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_EQ(decoded_reply->seq, 31u);
  EXPECT_TRUE(decoded_reply->status.ok());
  EXPECT_EQ(decoded_reply->segments, reply.segments);

  const auto decoded_failed = net::DecodeReduceReply(frames[2].payload);
  ASSERT_TRUE(decoded_failed.ok());
  EXPECT_EQ(decoded_failed->status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(decoded_failed->status.message(), "missing level key");
  EXPECT_TRUE(decoded_failed->segments.empty());
}

TEST(FrameCodecTest, ArtifactReplyPrefixPlusBodyDecodes) {
  // The zero-copy server path: an owned prefix and the shared artifact
  // body concatenate into one well-formed ARTIFACT_REPLY frame.
  const Bytes body = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  Bytes wire = net::ArtifactReplyPrefix(/*seq=*/55, body.size());
  wire.insert(wire.end(), body.begin(), body.end());
  net::AppendArtifactError(wire, /*seq=*/56,
                           Status::NotFound("user evicted"));

  auto frames = ReassembleBy(wire, wire.size());
  ASSERT_EQ(frames.size(), 2u);
  const auto ok_reply = net::DecodeArtifactReply(frames[0].payload);
  ASSERT_TRUE(ok_reply.ok());
  EXPECT_EQ(ok_reply->seq, 55u);
  EXPECT_TRUE(ok_reply->status.ok());
  EXPECT_EQ(ok_reply->artifact_wire, body);

  const auto err_reply = net::DecodeArtifactReply(frames[1].payload);
  ASSERT_TRUE(err_reply.ok());
  EXPECT_EQ(err_reply->seq, 56u);
  EXPECT_EQ(err_reply->status.code(), ErrorCode::kNotFound);
  EXPECT_TRUE(err_reply->artifact_wire.empty());
}

TEST(FrameCodecTest, ErrorFrameRoundTrip) {
  Bytes wire;
  net::AppendError(wire, {/*seq=*/0, ErrorCode::kInvalidArgument,
                          "first frame must be HELLO"});
  auto frames = ReassembleBy(wire, wire.size());
  ASSERT_EQ(frames.size(), 1u);
  const auto error = net::DecodeError(frames[0].payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->seq, 0u);
  EXPECT_EQ(error->code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(error->message, "first frame must be HELLO");
}

TEST(FrameCodecTest, ByteAtATimeReassemblyMatchesWholeBuffer) {
  Bytes wire;
  net::AppendHello(wire, {net::kProtocolVersion, 42});
  for (std::uint32_t i = 0; i < 20; ++i) {
    net::AppendPositionUpdate(wire, i, "user" + std::to_string(i),
                              static_cast<double>(i), SegmentId{i * 3});
  }
  net::AppendError(wire, {9, ErrorCode::kInternal, "bye"});

  const auto whole = ReassembleBy(wire, wire.size());
  for (const std::size_t step : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{7}}) {
    const auto pieces = ReassembleBy(wire, step);
    ASSERT_EQ(pieces.size(), whole.size()) << "step " << step;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(pieces[i].type, whole[i].type);
      EXPECT_EQ(pieces[i].payload, whole[i].payload);
    }
  }
}

TEST(FrameCodecTest, UnknownTypePoisonsTheStream) {
  Bytes wire;
  net::AppendHello(wire, {net::kProtocolVersion, 1});
  // A frame with type byte 0xEE after a valid frame.
  const Bytes garbage = {0x02, 0x00, 0x00, 0x00, 0xEE, 0xAA, 0xBB};
  wire.insert(wire.end(), garbage.begin(), garbage.end());

  FrameReassembler reassembler;
  // Detected on Feed, even though a complete valid frame sits ahead of the
  // malformed header in the same buffer.
  const auto fed = reassembler.Feed(wire.data(), wire.size());
  EXPECT_EQ(fed.code(), ErrorCode::kDataLoss);
  // A poisoned stream serves nothing — not even the frame before the rot.
  EXPECT_FALSE(reassembler.Next().has_value());
  EXPECT_EQ(reassembler.status().code(), ErrorCode::kDataLoss);
  // Poison is sticky: later feeds fail without buffering.
  const std::uint8_t more = 0;
  EXPECT_EQ(reassembler.Feed(&more, 1).code(), ErrorCode::kDataLoss);
}

// Each header is checked exactly once, however the bytes arrive and however
// many frames wait ahead of it: Feed checks only new headers and Next
// never re-walks the buffer, so a batch costs O(frames), not O(frames²).
TEST(FrameCodecTest, EachHeaderCheckedOnceAcrossFeedsAndPops) {
  constexpr std::uint32_t kFrames = 4096;
  Bytes valid;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    net::AppendPositionUpdate(valid, i, "c", 1.0, SegmentId{i % 7});
  }

  // Odd-sized chunks, popping after every third one: headers split across
  // feeds and bodies still arriving are checked once all the same.
  FrameReassembler chunked;
  std::size_t popped = 0;
  constexpr std::size_t kStep = 37;
  for (std::size_t off = 0; off < valid.size(); off += kStep) {
    const std::size_t n = std::min(kStep, valid.size() - off);
    ASSERT_TRUE(chunked.Feed(valid.data() + off, n).ok());
    if ((off / kStep) % 3 == 0) {
      while (chunked.Next()) ++popped;
    }
  }
  while (chunked.Next()) ++popped;
  EXPECT_EQ(popped, kFrames);
  EXPECT_EQ(chunked.headers_checked(), kFrames);

  // A bad header queued behind 4096 valid frames fails at Feed; popping
  // half the frames first re-reads none of them.
  FrameReassembler whole;
  ASSERT_TRUE(whole.Feed(valid.data(), valid.size()).ok());
  EXPECT_EQ(whole.headers_checked(), kFrames);
  for (std::uint32_t i = 0; i < kFrames / 2; ++i) {
    ASSERT_TRUE(whole.Next().has_value()) << i;
  }
  EXPECT_EQ(whole.headers_checked(), kFrames);
  const Bytes garbage = {0x02, 0x00, 0x00, 0x00, 0xEE};
  EXPECT_EQ(whole.Feed(garbage.data(), garbage.size()).code(),
            ErrorCode::kDataLoss);
  EXPECT_EQ(whole.headers_checked(), kFrames + 1);
  EXPECT_FALSE(whole.Next().has_value());
  EXPECT_EQ(whole.headers_checked(), kFrames + 1);
}

TEST(FrameCodecTest, OversizedFrameRejectedBeforeBuffering) {
  FrameReassembler reassembler(/*max_payload=*/64);
  // Header declaring a 1 MiB payload: rejected on sight, no body buffered.
  Bytes header;
  PutU32le(header, 1u << 20);
  header.push_back(static_cast<std::uint8_t>(FrameType::kHello));
  EXPECT_EQ(reassembler.Feed(header.data(), header.size()).code(),
            ErrorCode::kResourceExhausted);
  EXPECT_LE(reassembler.buffered_bytes(), net::kFrameHeaderBytes);
  // A hostile peer streaming the body anyway never grows the buffer.
  const Bytes chunk(4096, 0xAB);
  EXPECT_FALSE(reassembler.Feed(chunk.data(), chunk.size()).ok());
  EXPECT_LE(reassembler.buffered_bytes(), net::kFrameHeaderBytes);
}

TEST(FrameCodecTest, TruncatedPayloadsRejected) {
  Bytes wire;
  net::AppendPositionUpdate(wire, 3, "carol", 9.0, SegmentId{4});
  auto frames = ReassembleBy(wire, wire.size());
  ASSERT_EQ(frames.size(), 1u);
  Bytes payload = frames[0].payload;
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const Bytes truncated(payload.begin(),
                          payload.begin() + static_cast<long>(cut));
    EXPECT_FALSE(net::DecodePositionUpdate(truncated).ok()) << cut;
  }
  EXPECT_FALSE(net::DecodeHello({}).ok());
  EXPECT_FALSE(net::DecodeReduceRequest({0x01}).ok());
  EXPECT_FALSE(net::DecodeArtifactReply({}).ok());
  EXPECT_FALSE(net::DecodeError({0x00}).ok());
}

// -------------------------------------------------------- encode cache

// The cache keys on the artifact's address but holds it weakly: a new
// artifact placed at a dead one's address while the dead one's entry is
// still in the table must miss and be encoded afresh, never served the old
// bytes.
TEST(EncodeCacheTest, HitRequiresTheSameLiveArtifact) {
  net::EncodeCache cache;
  alignas(core::CloakedArtifact) unsigned char
      storage[sizeof(core::CloakedArtifact)];
  const auto place = [&storage](std::string context) {
    auto* artifact = new (storage) core::CloakedArtifact();
    artifact->context = std::move(context);
    return std::shared_ptr<const core::CloakedArtifact>(
        artifact,
        [](const core::CloakedArtifact* dead) { dead->~CloakedArtifact(); });
  };

  auto first = place("first");
  const auto encoded = cache.Encode(first);
  EXPECT_FALSE(encoded.hit);
  EXPECT_EQ(*encoded.wire, core::EncodeArtifact(*first));
  EXPECT_TRUE(cache.Encode(first).hit);
  const core::CloakedArtifact* address = first.get();
  first.reset();

  auto second = place("second");
  ASSERT_EQ(second.get(), address);
  const auto reused = cache.Encode(second);
  EXPECT_FALSE(reused.hit);
  EXPECT_EQ(*reused.wire, core::EncodeArtifact(*second));
  EXPECT_NE(*reused.wire, *encoded.wire);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Encode(second).hit);
}

// Dead entries wait for the sweep trigger instead of being swept on every
// miss: the first sweep fires at the floor, and each sweep re-arms the
// trigger at kept + kept / 4.
TEST(EncodeCacheTest, SweepsDeadEntriesOnAnAmortizedSchedule) {
  using net::EncodeCache;
  EncodeCache cache;
  std::vector<std::shared_ptr<const core::CloakedArtifact>> live;
  int minted = 0;
  const auto add = [&] {
    auto artifact = std::make_shared<core::CloakedArtifact>();
    artifact->context = std::to_string(minted++);
    live.push_back(artifact);
    EXPECT_FALSE(cache.Encode(live.back()).hit);
  };
  for (std::size_t i = 0; i < EncodeCache::kPruneFloor; ++i) add();
  EXPECT_EQ(cache.size(), EncodeCache::kPruneFloor);

  // At the floor the next miss sweeps; everything is alive, so the
  // trigger moves to 4096 + 1024.
  add();
  EXPECT_EQ(cache.size(), 4097u);
  live.erase(live.begin(), live.begin() + 2000);  // 2000 entries go stale
  while (cache.size() < 5120u) add();
  EXPECT_EQ(cache.size(), 5120u);  // nothing swept below the trigger

  // At the trigger the stale entries go: 3120 kept + the new one.
  add();
  EXPECT_EQ(live.size(), 3121u);
  EXPECT_EQ(cache.size(), 3121u);
  // 3120 kept is under the floor, so the next sweep waits for 4096.
  while (cache.size() < EncodeCache::kPruneFloor) add();
  EXPECT_EQ(cache.size(), EncodeCache::kPruneFloor);
}

// ------------------------------------------------------------ loopback

struct LoopbackRig {
  std::shared_ptr<const core::MapContext> ctx;
  std::unique_ptr<AnonymizationServer> server;
  std::unique_ptr<ContinuousSessionPool> pool;
  std::unique_ptr<net::NetServer> front;
};

LoopbackRig StartLoopback(const RoadNetwork& net, int workers,
                          const Bytes& auth_secret = {}, int loops = 1) {
  LoopbackRig rig;
  rig.ctx = core::MapContext::Create(net);
  core::Anonymizer engine(rig.ctx, OnePerSegment(net));
  server::ServerOptions server_options;
  server_options.num_workers = workers;
  server_options.max_queue = 4096;
  rig.server = std::make_unique<AnonymizationServer>(std::move(engine),
                                                     server_options);
  rig.pool = std::make_unique<ContinuousSessionPool>(*rig.server);
  net::NetServerOptions options;
  options.auth_secret = auth_secret;
  options.loop_threads = loops;
  rig.front = std::make_unique<net::NetServer>(*rig.pool, options);
  EXPECT_TRUE(rig.front->Start().ok());
  return rig;
}

TEST(NetServerTest, HelloHandshakeAndFingerprintMismatch) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  auto rig = StartLoopback(net, /*workers=*/1);

  auto client = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  EXPECT_EQ(client->server_fingerprint(), rig.front->map_fingerprint());

  // A client expecting a different map is refused at the door.
  auto wrong = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(wrong.ok());
  const auto refused = wrong->Hello(rig.front->map_fingerprint() + 1);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ErrorCode::kFailedPrecondition);
}

TEST(NetServerTest, OutOfRangeSegmentGetsErrorReply) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  auto rig = StartLoopback(net, /*workers=*/1);
  auto client = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());

  client->QueuePositionUpdate(1, "eve", 0.0,
                              SegmentId{static_cast<std::uint32_t>(
                                  net.segment_count() + 5)});
  ASSERT_TRUE(client->Flush().ok());
  const auto reply = client->ReadArtifactReply();
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kOutOfRange);

  // The connection survives the rejected update: a valid one still works.
  client->QueuePositionUpdate(2, "eve", 1.0, SegmentId{3});
  ASSERT_TRUE(client->Flush().ok());
  const auto ok_reply = client->ReadArtifactReply();
  ASSERT_TRUE(ok_reply.ok()) << ok_reply.status().ToString();
  EXPECT_EQ(ok_reply->seq, 2u);
  EXPECT_FALSE(ok_reply->artifact_wire.empty());
}

// Start() builds the configured backend's tables before the loop threads,
// which run REDUCE inline, can need them; an RGE front door builds none.
TEST(NetServerTest, StartBuildsOnlyTheConfiguredBackendTables) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  for (const core::Algorithm algorithm :
       {core::Algorithm::kRge, core::Algorithm::kRple,
        core::Algorithm::kGrid}) {
    const auto ctx = core::MapContext::Create(net);
    AnonymizationServer server(core::Anonymizer(ctx, OnePerSegment(net)),
                               server::ServerOptions{});
    ContinuousSessionPool pool(server);
    net::NetServerOptions options;
    options.algorithm = algorithm;
    net::NetServer front(pool, options);
    ASSERT_TRUE(front.Start().ok());
    EXPECT_EQ(ctx->table_builds(),
              algorithm == core::Algorithm::kRple ? 1u : 0u);
    EXPECT_EQ(ctx->grid_builds(),
              algorithm == core::Algorithm::kGrid ? 1u : 0u);
    front.Stop();
  }
}

// The headline pin: per-user artifact byte sequences served over the wire
// equal driving the pool directly with the same deterministic key
// schedule — transport changes nothing.
TEST(NetServerTest, WireArtifactsByteIdenticalToDirectPool) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  constexpr int kConns = 4;
  constexpr int kUsersPerConn = 3;
  constexpr int kTicks = 10;
  constexpr std::uint32_t kUsers = kConns * kUsersPerConn;
  const auto position = [&net](std::uint32_t user, int tick) {
    return SegmentId{static_cast<std::uint32_t>(
        (user * 7 + static_cast<std::uint32_t>(tick) * 13) %
        net.segment_count())};
  };
  const auto name = [](std::uint32_t user) {
    return "u" + std::to_string(user);
  };

  for (const int workers : {1, 2}) {
    auto rig = StartLoopback(net, workers);
    const net::NetServerOptions defaults;  // profile/keys the server used
    std::vector<net::Client> clients;
    for (int c = 0; c < kConns; ++c) {
      auto client = net::Client::Connect("127.0.0.1", rig.front->port());
      ASSERT_TRUE(client.ok());
      ASSERT_TRUE(client->Hello(rig.front->map_fingerprint()).ok());
      clients.push_back(std::move(client).value());
    }

    std::map<std::string, std::vector<std::string>> wire_seqs;
    for (int t = 0; t < kTicks; ++t) {
      for (int c = 0; c < kConns; ++c) {
        for (int k = 0; k < kUsersPerConn; ++k) {
          const std::uint32_t user =
              static_cast<std::uint32_t>(c * kUsersPerConn + k);
          clients[static_cast<std::size_t>(c)].QueuePositionUpdate(
              static_cast<std::uint32_t>(t * 100 + static_cast<int>(user)),
              name(user), static_cast<double>(t), position(user, t));
        }
        ASSERT_TRUE(clients[static_cast<std::size_t>(c)].Flush().ok());
      }
      for (int c = 0; c < kConns; ++c) {
        for (int k = 0; k < kUsersPerConn; ++k) {
          const auto reply =
              clients[static_cast<std::size_t>(c)].ReadArtifactReply();
          ASSERT_TRUE(reply.ok()) << reply.status().ToString();
          const std::uint32_t user =
              static_cast<std::uint32_t>(c * kUsersPerConn + k);
          ASSERT_EQ(reply->seq,
                    static_cast<std::uint32_t>(t * 100 +
                                               static_cast<int>(user)));
          wire_seqs[name(user)].push_back(Sha(reply->artifact_wire));
        }
      }
    }
    clients.clear();
    rig.front->Stop();

    // Direct pool, same schedule, no wire.
    core::Anonymizer engine(rig.ctx, OnePerSegment(net));
    AnonymizationServer direct_server(std::move(engine), {});
    ContinuousSessionPool direct(direct_server);
    std::vector<util::UserId> ids(kUsers);
    for (std::uint32_t u = 0; u < kUsers; ++u) {
      auto tracked = direct.Track(
          name(u), defaults.profile, defaults.algorithm,
          net::DeterministicKeyProvider(defaults.key_seed_base, name(u),
                                        defaults.profile.num_levels()),
          defaults.continuous);
      ASSERT_TRUE(tracked.ok());
      ids[u] = *tracked;
    }
    std::map<std::string, std::vector<std::string>> direct_seqs;
    for (int t = 0; t < kTicks; ++t) {
      std::vector<ContinuousSessionPool::IdPositionUpdate> batch;
      for (std::uint32_t u = 0; u < kUsers; ++u) {
        batch.push_back({ids[u], static_cast<double>(t), position(u, t)});
      }
      auto results = direct.UpdateBatch(batch);
      for (std::uint32_t u = 0; u < kUsers; ++u) {
        ASSERT_TRUE(results[u].ok());
        direct_seqs[name(u)].push_back(
            Sha(core::EncodeArtifact(**results[u])));
      }
    }
    EXPECT_EQ(wire_seqs, direct_seqs) << "workers=" << workers;
  }
}

// The reply encode cache past its 4096-entry prune floor: one loop serves
// 6000 live artifacts (one per user), then two churn ticks move every user
// far away so most re-cloak and their old artifacts die. Every reply must
// equal the in-process pool's bytes, every distinct artifact must be
// encoded exactly once, and the table must stay within live + live/4 +
// 4096 entries throughout. The churn frees artifact blocks whose stale
// entries the amortized prune leaves in the table for a while, so new
// artifacts land at addresses the table still holds: a hit that trusted
// the address without the weak_ptr identity check would serve old bytes.
TEST(NetServerTest, EncodeCachePastPruneFloorByteIdenticalAndBounded) {
  const RoadNetwork net = roadnet::MakeGrid({20, 20, 100.0});
  constexpr std::uint32_t kUsers = 6000;
  constexpr int kTicks = 3;
  // Updates in flight per round trip: keeps the reply queue under the
  // connection's soft write budget and the batch under max_queue.
  constexpr std::uint32_t kWindow = 500;
  const std::uint32_t segments =
      static_cast<std::uint32_t>(net.segment_count());
  const auto position = [segments](std::uint32_t user, int tick) {
    return SegmentId{(user * 7919u + static_cast<std::uint32_t>(tick) *
                                         (segments / 3 + 11)) %
                     segments};
  };
  const auto name = [](std::uint32_t user) {
    return "c" + std::to_string(user);
  };

  auto rig = StartLoopback(net, /*workers=*/2);
  auto client = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello(rig.front->map_fingerprint()).ok());

  std::vector<std::vector<std::string>> wire_seqs(kUsers);
  std::set<std::string> distinct;
  for (int t = 0; t < kTicks; ++t) {
    for (std::uint32_t begin = 0; begin < kUsers; begin += kWindow) {
      const std::uint32_t end = std::min(kUsers, begin + kWindow);
      for (std::uint32_t u = begin; u < end; ++u) {
        client->QueuePositionUpdate(u, name(u), static_cast<double>(t),
                                    position(u, t));
      }
      ASSERT_TRUE(client->Flush().ok());
      for (std::uint32_t u = begin; u < end; ++u) {
        const auto reply = client->ReadArtifactReply();
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        ASSERT_EQ(reply->seq, u);
        const std::string sha = Sha(reply->artifact_wire);
        wire_seqs[u].push_back(sha);
        distinct.insert(sha);
      }
      // Every user served so far holds exactly one live artifact.
      const std::uint64_t live = t == 0 ? end : kUsers;
      EXPECT_LE(rig.front->stats().artifact_cache_entries,
                live + live / 4 + 4096)
          << "tick " << t << " after user " << end;
    }
  }
  rig.front->Stop();
  const auto stats = rig.front->stats();
  EXPECT_EQ(stats.artifact_cache_misses, distinct.size());
  EXPECT_EQ(stats.artifact_cache_hits + stats.artifact_cache_misses,
            std::uint64_t{kUsers} * kTicks);
  // The churn really did outgrow the bound: without pruning, the table
  // would hold every artifact ever served.
  EXPECT_GT(distinct.size(), kUsers + kUsers / 4 + 4096);

  const net::NetServerOptions defaults;
  core::Anonymizer engine(rig.ctx, OnePerSegment(net));
  server::ServerOptions direct_options;
  direct_options.max_queue = kUsers;
  AnonymizationServer direct_server(std::move(engine), direct_options);
  ContinuousSessionPool direct(direct_server);
  std::vector<util::UserId> ids(kUsers);
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    auto tracked = direct.Track(
        name(u), defaults.profile, defaults.algorithm,
        net::DeterministicKeyProvider(defaults.key_seed_base, name(u),
                                      defaults.profile.num_levels()),
        defaults.continuous);
    ASSERT_TRUE(tracked.ok());
    ids[u] = *tracked;
  }
  std::vector<std::vector<std::string>> direct_seqs(kUsers);
  for (int t = 0; t < kTicks; ++t) {
    std::vector<ContinuousSessionPool::IdPositionUpdate> batch;
    for (std::uint32_t u = 0; u < kUsers; ++u) {
      batch.push_back({ids[u], static_cast<double>(t), position(u, t)});
    }
    const auto results = direct.UpdateBatch(batch);
    for (std::uint32_t u = 0; u < kUsers; ++u) {
      ASSERT_TRUE(results[u].ok());
      direct_seqs[u].push_back(Sha(core::EncodeArtifact(**results[u])));
    }
  }
  EXPECT_EQ(wire_seqs, direct_seqs);
}

// The traffic counters are bumped where bytes and frames move, not summed
// over the live connections: they must still equal, byte for byte and
// frame for frame, what the clients wrote and read — across two loops, a
// connection that closes mid-run, an error reply and a reduce round trip.
TEST(NetServerTest, TrafficCountersEqualClientBytes) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  auto rig = StartLoopback(net, /*workers=*/1, /*auth_secret=*/{},
                           /*loops=*/2);
  std::uint64_t sent = 0, received = 0, frames_sent = 0, frames_received = 0;
  std::uint32_t seq = 0;
  const auto drive = [&](net::Client& client, const std::string& user,
                         int updates) {
    for (int i = 0; i < updates; ++i) {
      client.QueuePositionUpdate(
          ++seq, user, static_cast<double>(i),
          SegmentId{static_cast<std::uint32_t>(i * 5) % 40});
    }
    ASSERT_TRUE(client.Flush().ok());
    for (int i = 0; i < updates; ++i) {
      ASSERT_TRUE(client.ReadArtifactReply().ok());
    }
    frames_sent += static_cast<std::uint64_t>(updates);
    frames_received += static_cast<std::uint64_t>(updates);
  };

  {
    // Closes before the others finish: its traffic must survive the close.
    auto early = net::Client::Connect("127.0.0.1", rig.front->port());
    ASSERT_TRUE(early.ok());
    ASSERT_TRUE(early->Hello().ok());
    frames_sent += 1;
    frames_received += 1;
    drive(*early, "early", 7);
    sent += early->bytes_sent();
    received += early->bytes_received();
  }
  std::vector<net::Client> clients;
  for (int c = 0; c < 3; ++c) {
    auto client = net::Client::Connect("127.0.0.1", rig.front->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Hello().ok());
    frames_sent += 1;
    frames_received += 1;
    clients.push_back(std::move(client).value());
  }
  for (int c = 0; c < 3; ++c) {
    drive(clients[static_cast<std::size_t>(c)], "t" + std::to_string(c),
          10 + c);
  }
  // An error reply and a reduce round trip count like any other frame.
  clients[0].QueuePositionUpdate(
      ++seq, "t0", 20.0,
      SegmentId{static_cast<std::uint32_t>(net.segment_count()) + 1});
  ASSERT_TRUE(clients[0].Flush().ok());
  EXPECT_FALSE(clients[0].ReadArtifactReply().ok());
  net::ReduceRequestFrame request;
  request.seq = ++seq;
  request.artifact_wire = {1, 2, 3};
  ASSERT_TRUE(clients[1].SendReduceRequest(request).ok());
  const auto reduced = clients[1].ReadReduceReply();
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  EXPECT_FALSE(reduced->status.ok());
  frames_sent += 2;
  frames_received += 2;

  rig.front->Stop();
  for (const net::Client& client : clients) {
    sent += client.bytes_sent();
    received += client.bytes_received();
  }
  const auto stats = rig.front->stats();
  EXPECT_EQ(stats.bytes_in, sent);
  EXPECT_EQ(stats.bytes_out, received);
  EXPECT_EQ(stats.frames_in, frames_sent);
  EXPECT_EQ(stats.frames_out, frames_received);
  // The aggregate is the sum of the per-loop blocks.
  std::uint64_t loop_bytes_in = 0;
  for (const auto& loop : rig.front->per_loop_stats()) {
    loop_bytes_in += loop.bytes_in;
  }
  EXPECT_EQ(loop_bytes_in, stats.bytes_in);
}

TEST(NetServerTest, ReduceRequestOverTheWireRecoversExactSegment) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  auto rig = StartLoopback(net, /*workers=*/1);
  auto client = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());

  const SegmentId where{17};
  client->QueuePositionUpdate(1, "rita", 0.0, where);
  ASSERT_TRUE(client->Flush().ok());
  const auto reply = client->ReadArtifactReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  const net::NetServerOptions defaults;
  const auto epoch = rig.pool->UserEpoch("rita");
  ASSERT_TRUE(epoch.ok());
  const auto chain = net::DeterministicKeyProvider(
      defaults.key_seed_base, "rita", defaults.profile.num_levels())(*epoch);
  net::ReduceRequestFrame request;
  request.seq = 2;
  request.target_level = 0;
  for (int level = 1; level <= defaults.profile.num_levels(); ++level) {
    request.granted_keys.emplace(level, chain.LevelKey(level));
  }
  request.artifact_wire = reply->artifact_wire;
  ASSERT_TRUE(client->SendReduceRequest(request).ok());
  const auto reduced = client->ReadReduceReply();
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  EXPECT_TRUE(reduced->status.ok()) << reduced->status.ToString();
  ASSERT_EQ(reduced->segments.size(), 1u);
  EXPECT_EQ(reduced->segments[0], where);

  // Without the inner key the wire reduce refuses, like the local one.
  net::ReduceRequestFrame denied = request;
  denied.seq = 3;
  denied.granted_keys.erase(1);
  ASSERT_TRUE(client->SendReduceRequest(denied).ok());
  const auto refused = client->ReadReduceReply();
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE(refused->status.ok());
}

TEST(NetServerTest, MissingHelloDropsConnectionOthersUnaffected) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  auto rig = StartLoopback(net, /*workers=*/1);
  auto polite = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(polite.ok());
  ASSERT_TRUE(polite->Hello().ok());

  // A connection whose first frame is not HELLO gets an ERROR and a close.
  auto rude = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(rude.ok());
  rude->QueuePositionUpdate(1, "rude", 0.0, SegmentId{0});
  ASSERT_TRUE(rude->Flush().ok());
  const auto rejected = rude->ReadArtifactReply();
  EXPECT_FALSE(rejected.ok());

  // The handshaken connection keeps working through the drop.
  polite->QueuePositionUpdate(2, "mallory", 0.0, SegmentId{2});
  ASSERT_TRUE(polite->Flush().ok());
  const auto reply = polite->ReadArtifactReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->seq, 2u);

  rig.front->Stop();
  const auto stats = rig.front->stats();
  EXPECT_GE(stats.hello_rejected, 1u);
  EXPECT_EQ(stats.updates_decoded, 1u);
}

// A spilled user reconnecting through the front door is adopted, not
// re-tracked fresh: the first update of the new connection restores the
// session on miss and the artifact stream continues byte-for-byte where a
// never-spilled twin's does.
TEST(NetServerTest, SpilledUserAdoptedOnReconnect) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  const std::string spill_path = "net_test_adopt.rcsf";
  std::remove(spill_path.c_str());
  const net::NetServerOptions defaults;
  const auto position = [&net](int t) {
    return SegmentId{static_cast<std::uint32_t>(
        (7u + static_cast<std::uint32_t>(t) * 13u) % net.segment_count())};
  };

  // Cold-tier rig: the pool gets a spill file and a key factory matching
  // the server's deterministic schedule, so restore-on-miss can rebuild
  // key providers for users whose connection is long gone.
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  server::ServerOptions server_options;
  server_options.num_workers = 1;
  AnonymizationServer server(std::move(engine), server_options);
  server::SessionPoolOptions pool_options;
  pool_options.key_provider_factory = [&defaults](std::string_view user) {
    return net::DeterministicKeyProvider(defaults.key_seed_base,
                                         std::string(user),
                                         defaults.profile.num_levels());
  };
  ContinuousSessionPool pool(server, pool_options);
  ASSERT_TRUE(pool.AttachSpillFile(spill_path).ok());
  net::NetServerOptions net_options;
  net::NetServer front(pool, net_options);
  ASSERT_TRUE(front.Start().ok());

  const auto drive = [&position](net::Client& client, int from, int to) {
    std::vector<std::string> hashes;
    for (int t = from; t < to; ++t) {
      client.QueuePositionUpdate(static_cast<std::uint32_t>(t + 1), "roam",
                                 static_cast<double>(t), position(t));
      EXPECT_TRUE(client.Flush().ok());
      const auto reply = client.ReadArtifactReply();
      EXPECT_TRUE(reply.ok()) << reply.status().ToString();
      if (reply.ok()) hashes.push_back(Sha(reply->artifact_wire));
    }
    return hashes;
  };

  std::vector<std::string> served;
  {
    auto first = net::Client::Connect("127.0.0.1", front.port());
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->Hello().ok());
    served = drive(*first, 0, 5);
  }
  // The connection is gone; the session goes fully cold.
  ASSERT_EQ(pool.session_count(), 1u);
  const auto written = pool.SpillAllToFile();
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_EQ(*written, 1u);
  ASSERT_EQ(pool.session_count(), 0u);

  {
    auto second = net::Client::Connect("127.0.0.1", front.port());
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(second->Hello().ok());
    const auto rest = drive(*second, 5, 10);
    served.insert(served.end(), rest.begin(), rest.end());
  }
  front.Stop();
  EXPECT_EQ(pool.stats().restored_on_miss, 1u);
  EXPECT_EQ(pool.stats().restore_failures, 0u);

  // The never-spilled twin: one connection, same schedule, default rig.
  auto twin = StartLoopback(net, /*workers=*/1);
  auto client = net::Client::Connect("127.0.0.1", twin.front->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  const auto expected = drive(*client, 0, 10);
  EXPECT_EQ(served, expected);
  std::remove(spill_path.c_str());
}

// ------------------------------------------------------------ multi-loop

// The multi-loop pin: the front door sharded across 1, 2 and 4 event
// loops — open mode and auth mode — serves per-user artifact SHA
// sequences identical to driving the pool directly. Sharding moves
// connections between threads, never bytes.
TEST(NetServerTest, MultiLoopWireByteIdenticalAtOneTwoFourLoops) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  constexpr int kConns = 6;
  constexpr int kUsersPerConn = 2;
  constexpr int kTicks = 6;
  constexpr std::uint32_t kUsers = kConns * kUsersPerConn;
  const Bytes secret{'m', 'l', 'o', 'o', 'p'};
  const auto position = [&net](std::uint32_t user, int tick) {
    return SegmentId{(user * 19 + static_cast<std::uint32_t>(tick) * 7) %
                     static_cast<std::uint32_t>(net.segment_count())};
  };
  const auto name = [](std::uint32_t user) {
    return "m" + std::to_string(user);
  };

  // The oracle: direct pool, same schedule, no wire.
  const net::NetServerOptions defaults;
  const auto ctx = core::MapContext::Create(net);
  std::map<std::string, std::vector<std::string>> direct_seqs;
  {
    core::Anonymizer engine(ctx, OnePerSegment(net));
    AnonymizationServer direct_server(std::move(engine), {});
    ContinuousSessionPool direct(direct_server);
    std::vector<util::UserId> ids(kUsers);
    for (std::uint32_t u = 0; u < kUsers; ++u) {
      auto tracked = direct.Track(
          name(u), defaults.profile, defaults.algorithm,
          net::DeterministicKeyProvider(defaults.key_seed_base, name(u),
                                        defaults.profile.num_levels()),
          defaults.continuous);
      ASSERT_TRUE(tracked.ok());
      ids[u] = *tracked;
    }
    for (int t = 0; t < kTicks; ++t) {
      std::vector<ContinuousSessionPool::IdPositionUpdate> batch;
      for (std::uint32_t u = 0; u < kUsers; ++u) {
        batch.push_back({ids[u], static_cast<double>(t), position(u, t)});
      }
      auto results = direct.UpdateBatch(batch);
      for (std::uint32_t u = 0; u < kUsers; ++u) {
        ASSERT_TRUE(results[u].ok());
        direct_seqs[name(u)].push_back(
            Sha(core::EncodeArtifact(**results[u])));
      }
    }
  }

  for (const bool auth : {false, true}) {
    for (const int loops : {1, 2, 4}) {
      auto rig =
          StartLoopback(net, /*workers=*/2, auth ? secret : Bytes{}, loops);
      ASSERT_EQ(rig.front->loop_count(), loops);
      std::vector<net::Client> clients;
      for (int c = 0; c < kConns; ++c) {
        auto client = net::Client::Connect("127.0.0.1", rig.front->port());
        ASSERT_TRUE(client.ok());
        // Auth mode: one principal per connection; each user is driven by
        // exactly one connection, so ownership never rejects.
        const auto hello =
            auth ? client->Hello(rig.front->map_fingerprint(),
                                 "conn" + std::to_string(c), secret)
                 : client->Hello(rig.front->map_fingerprint());
        ASSERT_TRUE(hello.ok()) << hello.ToString();
        clients.push_back(std::move(client).value());
      }

      std::map<std::string, std::vector<std::string>> wire_seqs;
      for (int t = 0; t < kTicks; ++t) {
        for (int c = 0; c < kConns; ++c) {
          for (int k = 0; k < kUsersPerConn; ++k) {
            const std::uint32_t user =
                static_cast<std::uint32_t>(c * kUsersPerConn + k);
            clients[static_cast<std::size_t>(c)].QueuePositionUpdate(
                static_cast<std::uint32_t>(t * 100 +
                                           static_cast<int>(user)),
                name(user), static_cast<double>(t), position(user, t));
          }
          ASSERT_TRUE(clients[static_cast<std::size_t>(c)].Flush().ok());
        }
        for (int c = 0; c < kConns; ++c) {
          for (int k = 0; k < kUsersPerConn; ++k) {
            const auto reply =
                clients[static_cast<std::size_t>(c)].ReadArtifactReply();
            ASSERT_TRUE(reply.ok()) << reply.status().ToString();
            const std::uint32_t user =
                static_cast<std::uint32_t>(c * kUsersPerConn + k);
            ASSERT_EQ(reply->seq,
                      static_cast<std::uint32_t>(t * 100 +
                                                 static_cast<int>(user)));
            wire_seqs[name(user)].push_back(Sha(reply->artifact_wire));
          }
        }
      }
      clients.clear();
      rig.front->Stop();
      EXPECT_EQ(wire_seqs, direct_seqs)
          << "loops=" << loops << " auth=" << auth;

      // The per-loop blocks must agree with the aggregate.
      const auto total = rig.front->stats();
      EXPECT_EQ(total.updates_decoded,
                static_cast<std::uint64_t>(kUsers) * kTicks);
      std::uint64_t summed = 0;
      for (const auto& per : rig.front->per_loop_stats()) {
        summed += per.updates_decoded;
      }
      EXPECT_EQ(summed, total.updates_decoded);
    }
  }
}

// Per-user ordering under sharding: one user pipelining a long burst over
// its single (loop-pinned) connection gets replies strictly in send order
// and byte-identical to the direct pool fed the same sequence one update
// at a time.
TEST(NetServerTest, MultiLoopSingleConnectionPreservesUserOrder) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  constexpr int kUpdates = 60;
  const auto position = [&net](int i) {
    return SegmentId{(3u + static_cast<std::uint32_t>(i) * 29u) %
                     static_cast<std::uint32_t>(net.segment_count())};
  };

  auto rig = StartLoopback(net, /*workers=*/2, {}, /*loops=*/4);
  auto client = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  // One flush for the whole burst: the updates arrive as one byte stream
  // and may be split across many decode rounds and tick batches, but
  // never across loops.
  for (int i = 0; i < kUpdates; ++i) {
    client->QueuePositionUpdate(static_cast<std::uint32_t>(i + 1), "solo",
                                static_cast<double>(i), position(i));
  }
  ASSERT_TRUE(client->Flush().ok());
  std::vector<std::string> wire_hashes;
  for (int i = 0; i < kUpdates; ++i) {
    const auto reply = client->ReadArtifactReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->seq, static_cast<std::uint32_t>(i + 1));  // in order
    wire_hashes.push_back(Sha(reply->artifact_wire));
  }
  rig.front->Stop();

  const net::NetServerOptions defaults;
  core::Anonymizer engine(rig.ctx, OnePerSegment(net));
  AnonymizationServer direct_server(std::move(engine), {});
  ContinuousSessionPool direct(direct_server);
  auto tracked = direct.Track(
      "solo", defaults.profile, defaults.algorithm,
      net::DeterministicKeyProvider(defaults.key_seed_base, "solo",
                                    defaults.profile.num_levels()),
      defaults.continuous);
  ASSERT_TRUE(tracked.ok());
  std::vector<std::string> direct_hashes;
  for (int i = 0; i < kUpdates; ++i) {
    std::vector<ContinuousSessionPool::IdPositionUpdate> batch;
    batch.push_back({*tracked, static_cast<double>(i), position(i)});
    auto results = direct.UpdateBatch(batch);
    ASSERT_TRUE(results[0].ok());
    direct_hashes.push_back(Sha(core::EncodeArtifact(**results[0])));
  }
  EXPECT_EQ(wire_hashes, direct_hashes);
}

// Connect/disconnect churn across loops, under TSAN: driver threads
// hammer the sharded accept path, half the connections vanish abruptly
// with replies still unread (RST teardown), and the bookkeeping must
// balance — every accepted connection is closed exactly once, none
// survives Stop().
TEST(NetServerTest, MultiLoopConnectDisconnectChurn) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  auto rig = StartLoopback(net, /*workers=*/2, {}, /*loops=*/4);
  const std::uint16_t port = rig.front->port();

  constexpr int kThreads = 4;
  constexpr int kIterations = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kThreads);
  for (int d = 0; d < kThreads; ++d) {
    drivers.emplace_back([d, port, &failures, &net] {
      for (int i = 0; i < kIterations; ++i) {
        auto client = net::Client::Connect("127.0.0.1", port);
        if (!client.ok()) {
          ++failures;
          continue;
        }
        if (!client->Hello().ok()) {
          ++failures;
          continue;
        }
        const std::string user =
            "churn" + std::to_string(d) + "_" + std::to_string(i);
        client->QueuePositionUpdate(1, user, 0.0, SegmentId{3});
        client->QueuePositionUpdate(
            2, user, 1.0,
            SegmentId{static_cast<std::uint32_t>(i) %
                      static_cast<std::uint32_t>(net.segment_count())});
        if (!client->Flush().ok()) {
          ++failures;
          continue;
        }
        // Even iterations read their replies and part politely; odd ones
        // slam the connection with both replies unread — an RST teardown
        // the server must book as a close, not an I/O error.
        if (i % 2 == 0) {
          if (!client->ReadArtifactReply().ok() ||
              !client->ReadArtifactReply().ok()) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The door still works after the churn.
  auto survivor = net::Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(survivor->Hello().ok());
  survivor->QueuePositionUpdate(9, "survivor", 0.0, SegmentId{5});
  ASSERT_TRUE(survivor->Flush().ok());
  EXPECT_TRUE(survivor->ReadArtifactReply().ok());

  // Let the server observe the closes, then stop and balance the books.
  rig.front->Stop();
  const auto stats = rig.front->stats();
  EXPECT_GE(stats.connections_accepted,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(stats.connections_active, 0u);
  EXPECT_EQ(stats.connections_accepted,
            stats.connections_closed_peer + stats.connections_dropped_error +
                stats.connections_dropped_backpressure);
}

// Stop() with non-empty write queues on every loop: connections flood
// pipelined updates and never read a reply, so reply bytes pile up in the
// per-connection write queues (past the soft budget — reads pause) and
// shutdown has to walk away from queued data on every loop without
// hanging or leaking.
TEST(NetServerTest, MultiLoopStopCleanWithQueuedWritesAndPausedReads) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  server::ServerOptions server_options;
  server_options.num_workers = 2;
  AnonymizationServer server(std::move(engine), server_options);
  ContinuousSessionPool pool(server);
  net::NetServerOptions options;
  options.loop_threads = 4;
  // A tiny soft budget so the first blocked flush pauses reading; a hard
  // cap high enough that nothing is dropped — the queues must still be
  // there when Stop() runs. The pinned SO_SNDBUF turns off kernel sndbuf
  // autotuning, so the flood actually backs up into the server's write
  // queues instead of megabytes of kernel buffer.
  options.limits.write_soft_budget = 1024;
  options.limits.write_hard_cap = 64u << 20;
  options.limits.send_buffer_bytes = 16 << 10;
  net::NetServer front(pool, options);
  ASSERT_TRUE(front.Start().ok());

  constexpr int kConns = 3;
  constexpr int kUpdatesPerConn = 3000;
  std::vector<net::Client> clients;
  for (int c = 0; c < kConns; ++c) {
    auto client = net::Client::Connect("127.0.0.1", front.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Hello().ok());
    clients.push_back(std::move(client).value());
  }
  // One flush per connection, nobody ever reads a reply: the server's
  // reply stream overruns the peer's receive window and the write queues
  // grow past the soft budget.
  for (int c = 0; c < kConns; ++c) {
    for (int i = 0; i < kUpdatesPerConn; ++i) {
      clients[static_cast<std::size_t>(c)].QueuePositionUpdate(
          static_cast<std::uint32_t>(i + 1),
          "flood" + std::to_string(c) + "_" + std::to_string(i % 4),
          static_cast<double>(i),
          SegmentId{static_cast<std::uint32_t>(i) %
                    static_cast<std::uint32_t>(net.segment_count())});
    }
    ASSERT_TRUE(clients[static_cast<std::size_t>(c)].Flush().ok());
  }
  // Wait until every update is decoded and at least one read has paused —
  // proof the queues really are non-empty and backpressure engaged.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto stats = front.stats();
    if (stats.updates_decoded >=
            static_cast<std::uint64_t>(kConns) * kUpdatesPerConn &&
        stats.reads_paused >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto before = front.stats();
  EXPECT_GE(before.reads_paused, 1u);
  EXPECT_EQ(before.connections_dropped_backpressure, 0u);

  // The actual pin: Stop() returns promptly with all that data queued.
  const auto stop_started = std::chrono::steady_clock::now();
  front.Stop();
  const auto stop_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - stop_started)
                           .count();
  EXPECT_LT(stop_ms, 5000.0);
  EXPECT_EQ(front.stats().connections_active, 0u);
}

// ------------------------------------------------------------ auth (v2)

TEST(FrameCodecTest, AuthFramesRoundTripAndValidate) {
  // HELLO carrying a challenge nonce round-trips through fragmentation.
  const net::HelloFrame challenge{net::kProtocolVersion, 0x1234ull,
                                  Bytes(net::kAuthNonceBytes, 0xab)};
  Bytes wire;
  net::AppendHello(wire, challenge);
  auto frames = ReassembleBy(wire, 3);
  ASSERT_EQ(frames.size(), 1u);
  const auto hello = net::DecodeHello(frames[0].payload);
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->nonce, challenge.nonce);

  // A v1-shaped payload (version + fingerprint, no nonce field) decodes
  // as open mode.
  Bytes legacy;
  PutU32le(legacy, net::kProtocolVersion);
  PutU64le(legacy, 0x1234ull);
  const auto v1 = net::DecodeHello(legacy);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->nonce.empty());

  // AUTH round-trips and the tag is keyed on all three inputs.
  const Bytes secret{0x01, 0x02, 0x03};
  const Bytes nonce(net::kAuthNonceBytes, 0x5c);
  const net::AuthFrame auth{"alice",
                            net::AuthTag(secret, nonce, "alice")};
  EXPECT_EQ(auth.tag.size(), net::kAuthTagBytes);
  EXPECT_EQ(auth.tag, net::AuthTag(secret, nonce, "alice"));
  EXPECT_NE(auth.tag, net::AuthTag(secret, nonce, "bob"));
  EXPECT_NE(auth.tag, net::AuthTag({0x09}, nonce, "alice"));
  EXPECT_NE(auth.tag,
            net::AuthTag(secret, Bytes(net::kAuthNonceBytes, 0x5d), "alice"));
  Bytes auth_wire;
  net::AppendAuth(auth_wire, auth);
  frames = ReassembleBy(auth_wire, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kAuth);
  const auto decoded = net::DecodeAuth(frames[0].payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->principal, "alice");
  EXPECT_EQ(decoded->tag, auth.tag);

  // A truncated tag and an empty principal are both refused eagerly.
  Bytes short_tag = frames[0].payload;
  short_tag.pop_back();
  EXPECT_FALSE(net::DecodeAuth(short_tag).ok());
  Bytes anonymous;
  PutVarint(anonymous, 0);
  anonymous.insert(anonymous.end(), auth.tag.begin(), auth.tag.end());
  EXPECT_FALSE(net::DecodeAuth(anonymous).ok());

  // AUTH_OK round-trips.
  Bytes ok_wire;
  net::AppendAuthOk(ok_wire, net::AuthOkFrame{"alice"});
  frames = ReassembleBy(ok_wire, 2);
  ASSERT_EQ(frames.size(), 1u);
  const auto ok = net::DecodeAuthOk(frames[0].payload);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->principal, "alice");

  // Principal tokens: deterministic, non-zero, distinct; 0 is reserved
  // for "unowned" and error frames default to the connection sentinel.
  EXPECT_EQ(net::PrincipalToken("alice"), net::PrincipalToken("alice"));
  EXPECT_NE(net::PrincipalToken("alice"), net::PrincipalToken("bob"));
  EXPECT_NE(net::PrincipalToken("alice"), 0u);
  EXPECT_EQ(net::PrincipalToken(""), 0u);
  EXPECT_EQ(net::ErrorFrame{}.seq, net::kConnectionSeq);
}

TEST(NetServerTest, AuthAcceptsRightTagRejectsWrongAndMissing) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  const Bytes secret{'s', '3', 'c', 'r', '3', 't'};
  auto rig = StartLoopback(net, /*workers=*/1, secret);

  // The right tag completes the handshake and updates flow.
  auto alice = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(alice->Hello(0, "alice", secret).ok());
  alice->QueuePositionUpdate(1, "car", 0.0, SegmentId{3});
  ASSERT_TRUE(alice->Flush().ok());
  EXPECT_TRUE(alice->ReadArtifactReply().ok());

  // A wrong tag (different secret) is refused at the door.
  auto mallory = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(mallory.ok());
  const Bytes wrong{'w', 'r', 'o', 'n', 'g'};
  const auto refused = mallory->Hello(0, "mallory", wrong);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ErrorCode::kPermissionDenied);

  // No tag at all: the client fails locally on the challenge...
  auto lost = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(lost.ok());
  const auto local = lost->Hello();
  EXPECT_FALSE(local.ok());
  EXPECT_EQ(local.code(), ErrorCode::kPermissionDenied);
  // ...and pushing an update anyway (HELLO leg done, challenge pending)
  // is refused server-side and the connection dropped.
  lost->QueuePositionUpdate(1, "car", 0.0, SegmentId{1});
  ASSERT_TRUE(lost->Flush().ok());
  const auto denied = lost->ReadArtifactReply();
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), ErrorCode::kPermissionDenied);

  rig.front->Stop();
  const auto stats = rig.front->stats();
  EXPECT_EQ(stats.auth_ok, 1u);
  EXPECT_GE(stats.auth_rejected, 2u);
  EXPECT_EQ(stats.updates_decoded, 1u);
}

TEST(NetServerTest, DuplicateHelloAfterHandshakeDropsConnection) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  auto rig = StartLoopback(net, /*workers=*/1);
  auto client = net::Client::Connect("127.0.0.1", rig.front->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());

  // A second HELLO on the handshaken connection is a protocol violation:
  // ERROR(kFailedPrecondition) and a close, not a silent re-handshake.
  const auto again = client->Hello();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), ErrorCode::kFailedPrecondition);

  rig.front->Stop();
  EXPECT_GE(rig.front->stats().hello_rejected, 1u);
}

// The hijack the PR closes, end to end: with auth on, a second principal
// can neither update a resident user nor adopt it out of the spill file —
// while the owner reconnecting continues byte-identically to an open-mode
// twin that never authenticated or spilled.
TEST(NetServerTest, ForeignPrincipalCannotUpdateOrAdoptOwnedUser) {
  const RoadNetwork net = roadnet::MakeGrid({8, 8, 100.0});
  const std::string spill_path = "net_test_owned.rcsf";
  std::remove(spill_path.c_str());
  const Bytes secret{'f', 'l', 'e', 'e', 't'};
  const net::NetServerOptions defaults;
  const auto position = [&net](int t) {
    return SegmentId{static_cast<std::uint32_t>(
        (7u + static_cast<std::uint32_t>(t) * 13u) % net.segment_count())};
  };

  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  server::ServerOptions server_options;
  server_options.num_workers = 1;
  AnonymizationServer server(std::move(engine), server_options);
  server::SessionPoolOptions pool_options;
  pool_options.key_provider_factory = [&defaults](std::string_view user) {
    return net::DeterministicKeyProvider(defaults.key_seed_base,
                                         std::string(user),
                                         defaults.profile.num_levels());
  };
  ContinuousSessionPool pool(server, pool_options);
  ASSERT_TRUE(pool.AttachSpillFile(spill_path).ok());
  net::NetServerOptions net_options;
  net_options.auth_secret = secret;
  net::NetServer front(pool, net_options);
  ASSERT_TRUE(front.Start().ok());

  const auto drive = [&position](net::Client& client, int from, int to) {
    std::vector<std::string> hashes;
    for (int t = from; t < to; ++t) {
      client.QueuePositionUpdate(static_cast<std::uint32_t>(t + 1), "victim",
                                 static_cast<double>(t), position(t));
      EXPECT_TRUE(client.Flush().ok());
      const auto reply = client.ReadArtifactReply();
      EXPECT_TRUE(reply.ok()) << reply.status().ToString();
      if (reply.ok()) hashes.push_back(Sha(reply->artifact_wire));
    }
    return hashes;
  };

  std::vector<std::string> served;
  {
    auto owner = net::Client::Connect("127.0.0.1", front.port());
    ASSERT_TRUE(owner.ok());
    ASSERT_TRUE(owner->Hello(0, "alice", secret).ok());
    served = drive(*owner, 0, 5);
  }

  // Bob authenticates fine — the secret is shared — but cannot move the
  // resident session alice's connection tracked.
  auto thief = net::Client::Connect("127.0.0.1", front.port());
  ASSERT_TRUE(thief.ok());
  ASSERT_TRUE(thief->Hello(0, "bob", secret).ok());
  thief->QueuePositionUpdate(90, "victim", 50.0, position(5));
  ASSERT_TRUE(thief->Flush().ok());
  const auto resident_denied = thief->ReadArtifactReply();
  EXPECT_FALSE(resident_denied.ok());
  EXPECT_EQ(resident_denied.status().code(), ErrorCode::kPermissionDenied);
  // The denial is per-user, not per-connection: bob's own user works.
  thief->QueuePositionUpdate(91, "bobcar", 50.0, SegmentId{2});
  ASSERT_TRUE(thief->Flush().ok());
  EXPECT_TRUE(thief->ReadArtifactReply().ok());

  // Cold case: the victim goes to the spill file; bob still cannot adopt
  // it, and the denial does not restore the record as a side effect.
  const auto written = pool.SpillAllToFile();
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_EQ(pool.session_count(), 0u);
  thief->QueuePositionUpdate(92, "victim", 51.0, position(5));
  ASSERT_TRUE(thief->Flush().ok());
  const auto spilled_denied = thief->ReadArtifactReply();
  EXPECT_FALSE(spilled_denied.ok());
  EXPECT_EQ(spilled_denied.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(pool.stats().restored_on_miss, 0u);

  // The owner reconnecting under the same principal adopts the spilled
  // session and the artifact stream continues where it left off.
  {
    auto owner = net::Client::Connect("127.0.0.1", front.port());
    ASSERT_TRUE(owner.ok());
    ASSERT_TRUE(owner->Hello(0, "alice", secret).ok());
    const auto rest = drive(*owner, 5, 10);
    served.insert(served.end(), rest.begin(), rest.end());
  }
  front.Stop();
  EXPECT_EQ(pool.stats().restored_on_miss, 1u);
  EXPECT_GE(front.stats().ownership_rejected, 2u);

  // Byte-identity: an open-mode twin that never authenticated (or
  // spilled) serves the exact same artifact sequence — auth changes who
  // may drive a session, never what it serves.
  auto twin = StartLoopback(net, /*workers=*/1);
  auto client = net::Client::Connect("127.0.0.1", twin.front->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello().ok());
  const auto expected = drive(*client, 0, 10);
  EXPECT_EQ(served, expected);
  std::remove(spill_path.c_str());
}

// The pool-level gate, below the front door: ownership is enforced on the
// id update path for resident sessions and for records on disk.
TEST(NetServerTest, PoolOwnershipGateCoversResidentAndFile) {
  const RoadNetwork net = roadnet::MakeGrid({10, 10, 100.0});
  const auto ctx = core::MapContext::Create(net);
  core::Anonymizer engine(ctx, OnePerSegment(net));
  AnonymizationServer server(std::move(engine), {});
  const net::NetServerOptions defaults;
  const auto keys = [&defaults](std::string_view user) {
    return net::DeterministicKeyProvider(defaults.key_seed_base,
                                         std::string(user),
                                         defaults.profile.num_levels());
  };
  server::SessionPoolOptions pool_options;
  pool_options.key_provider_factory = keys;
  ContinuousSessionPool pool(server, pool_options);
  const std::string spill_path = "net_test_owned_file.rcsf";
  std::remove(spill_path.c_str());
  ASSERT_TRUE(pool.AttachSpillFile(spill_path).ok());

  const std::uint64_t alice = net::PrincipalToken("alice");
  const std::uint64_t bob = net::PrincipalToken("bob");
  ASSERT_NE(alice, bob);
  using State = ContinuousSessionPool::UserState;
  const auto update_one = [&pool](util::UserId user, double now_s,
                                  SegmentId segment, std::uint64_t principal) {
    std::vector<ContinuousSessionPool::IdPositionUpdate> batch;
    batch.push_back({user, now_s, segment, principal});
    return std::move(pool.UpdateBatch(batch).front());
  };

  const auto victim =
      pool.Track("victim", defaults.profile, core::Algorithm::kRge,
                 keys("victim"), defaults.continuous, 0.0, alice);
  ASSERT_TRUE(victim.ok());
  const auto driver =
      pool.Track("driver", defaults.profile, core::Algorithm::kRge,
                 keys("driver"), defaults.continuous, 0.0, alice);
  ASSERT_TRUE(driver.ok());
  ASSERT_TRUE(update_one(*victim, 1.0, SegmentId{3}, alice).ok());
  ASSERT_TRUE(update_one(*driver, 1.0, SegmentId{5}, alice).ok());

  // Resident: bob's update is refused before the session is touched.
  auto denied = update_one(*victim, 2.0, SegmentId{4}, bob);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_GE(pool.stats().ownership_rejected, 1u);
  EXPECT_EQ(pool.StateOf(*victim), State::kResident);

  // Sweep the victim into the file (updates to the other session keep the
  // clock turning until the victim goes cold), then spill the rest too.
  pool.set_memory_budget_bytes(1);
  for (int i = 0; i < 20 && pool.StateOf(*victim) != State::kSpilled; ++i) {
    ASSERT_TRUE(
        update_one(*driver, 3.0 + i, SegmentId{6}, alice).ok());
  }
  ASSERT_EQ(pool.StateOf(*victim), State::kSpilled);
  EXPECT_GE(pool.spill_files()->stats().live_records, 1u);
  pool.set_memory_budget_bytes(0);  // let the restore stick
  ASSERT_TRUE(pool.SpillAllToFile().ok());

  // On disk: bob cannot adopt the record, and the denial does not consume
  // it — the owner's next update restores it.
  const auto before_file = pool.stats().restored_on_miss;
  denied = update_one(*victim, 40.0, SegmentId{8}, bob);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(pool.stats().restored_on_miss, before_file);
  EXPECT_EQ(pool.StateOf(*victim), State::kSpilled);
  const auto restored = update_one(*victim, 41.0, SegmentId{8}, alice);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(pool.stats().restored_on_miss, before_file + 1);

  // The file now carries owner-bound records ("driver" is still
  // spilled) — exactly what tooling refuses to serve in open mode.
  const auto owned = pool.OwnedSpillRecords();
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_GE(*owned, 1u);
  std::remove(spill_path.c_str());
}

}  // namespace
}  // namespace rcloak
