// E23 — The networked front door, end to end: N loopback TCP connections
// each carrying U users stream framed position updates at the NetServer,
// whose event loop batches every tick's decoded frames into one
// ContinuousSessionPool::UpdateBatch and streams the artifact replies back
// as the pool hands them over, each the bytes its session keeps with the
// artifact (one EncodeArtifact per artifact, on the server worker that cut
// it; zero body copies per connection).
//
// Measured per worker count:
//   * end-to-end updates/s over the wire (framing + epoll + batch + reply)
//     next to the same fleet driven in-process (the framing tax, made
//     visible);
//   * p50/p95/p99 reply latency, measured from the moment a connection's
//     tick burst is flushed to the moment each of its replies is read back
//     (pipelined: one driver thread, U updates in flight per connection);
//   * server-side counters: re-cloaks, per-tick batch sizes, wire bytes,
//     auth outcomes.
//
// --verify pins the wire against the in-process twin: every reply's
// artifact bytes must equal EncodeArtifact of the twin pool's artifact for
// that (user, tick) — same profile, same deterministic per-user key
// schedule (net::DeterministicKeyProvider), same static occupancy — so a
// framing bug, a reply misrouting or a batch reorder fails CI loudly
// (exit 2) instead of shipping wrong artifacts. Updates flow conn-major
// within a tick on both sides; artifacts are pure functions of per-user
// state, so the orders need not match across users.
//
// Usage: bench_e23 [workers...] [flags]     (default worker sweep: 1 2 4)
//   --connections N      loopback client connections     (default 64)
//   --users-per-conn U   users multiplexed per connection (default 25)
//   --ticks T            fleet ticks                      (default 64)
//   --loops N            front-door event-loop threads; repeatable — each
//                        value adds one A/B row per worker count, so
//                        `--loops 1 --loops 4` measures the multi-loop
//                        sharding win (and its overhead at 1 vCPU) under
//                        identical traffic    (default sweep: 1)
//   --verify             byte-compare every reply against the twin pool
//   --auth               protocol-v2 challenge-response on every
//                        connection (per-connection principal); the
//                        wire_upd_per_s delta vs an open-mode run is the
//                        auth tax (handshake + per-update ownership gate)
// Defaults: 64 x 25 x 64 = 102,400 updates per (workers, loops) config.
// Emits BENCH_e23.json (schema: docs/PERFORMANCE.md).
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "bench/common.h"
#include "bench/json_report.h"
#include "net/client.h"
#include "net/net_server.h"
#include "server/continuous_session_pool.h"

using namespace rcloak;
using namespace rcloak::bench;

namespace {

// positions[tick][user]: deterministic drift + periodic teleport cohorts
// (every 8th tick a rotating quarter of the fleet jumps), replayed
// identically for the wire run and the in-process twin of every worker
// count.
std::vector<std::vector<roadnet::SegmentId>> MakePositions(
    std::uint32_t segments, std::uint32_t users, int ticks) {
  Xoshiro256 rng(4242);
  std::vector<std::uint32_t> current(users);
  for (std::uint32_t u = 0; u < users; ++u) {
    current[u] = static_cast<std::uint32_t>(rng.NextBounded(segments));
  }
  std::vector<std::vector<roadnet::SegmentId>> out;
  out.reserve(static_cast<std::size_t>(ticks));
  for (int t = 0; t < ticks; ++t) {
    const bool burst = t > 0 && t % 8 == 0;
    const std::uint32_t cohort = static_cast<std::uint32_t>((t / 8) % 4);
    std::vector<roadnet::SegmentId> tick(users);
    for (std::uint32_t u = 0; u < users; ++u) {
      if (burst && u % 4 == cohort) {
        current[u] = static_cast<std::uint32_t>(rng.NextBounded(segments));
      } else if (rng.NextBool(0.05)) {
        current[u] = (current[u] + 1 +
                      static_cast<std::uint32_t>(rng.NextBounded(3))) %
                     segments;
      }
      tick[u] = roadnet::SegmentId{current[u]};
    }
    out.push_back(std::move(tick));
  }
  return out;
}

std::string UserName(std::uint32_t global) {
  return "u" + std::to_string(global);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  int connections = 64;
  int users_per_conn = 25;
  int ticks = 64;
  bool verify = false;
  bool auth = false;
  std::vector<int> worker_counts;
  std::vector<int> loop_counts;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--connections") == 0 && a + 1 < argc) {
      connections = std::max(1, std::atoi(argv[++a]));
    } else if (std::strcmp(argv[a], "--users-per-conn") == 0 && a + 1 < argc) {
      users_per_conn = std::max(1, std::atoi(argv[++a]));
    } else if (std::strcmp(argv[a], "--ticks") == 0 && a + 1 < argc) {
      ticks = std::max(1, std::atoi(argv[++a]));
    } else if (std::strcmp(argv[a], "--loops") == 0 && a + 1 < argc) {
      loop_counts.push_back(std::max(1, std::atoi(argv[++a])));
    } else if (std::strcmp(argv[a], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[a], "--auth") == 0) {
      auth = true;
    } else {
      const int workers = std::atoi(argv[a]);
      if (workers > 0) worker_counts.push_back(workers);
    }
  }
  if (worker_counts.empty()) worker_counts = {1, 2, 4};
  if (loop_counts.empty()) loop_counts = {1};
  const std::uint32_t total_users =
      static_cast<std::uint32_t>(connections) *
      static_cast<std::uint32_t>(users_per_conn);
  const std::uint64_t total_updates =
      static_cast<std::uint64_t>(total_users) *
      static_cast<std::uint64_t>(ticks);

  PrintHeader(
      "E23: networked front door (epoll + binary framing)",
      std::to_string(connections) + " loopback connections x " +
          std::to_string(users_per_conn) + " users x " +
          std::to_string(ticks) + " ticks = " +
          std::to_string(total_updates) +
          " updates per worker count; end-to-end wire updates/s vs the "
          "same fleet in-process, pipelined reply latency, batch "
          "counters" +
          (verify ? "; every reply byte-compared against the twin pool"
                  : "") +
          (auth ? "; challenge-response auth on every connection" : "") +
          ".");

  const auto net = [] {
    roadnet::PerturbedGridOptions options;
    options.rows = 30;
    options.cols = 30;
    options.seed = 5;
    return roadnet::MakePerturbedGrid(options);
  }();
  const auto ctx = core::MapContext::Create(net);
  const auto positions = MakePositions(net.segment_count(), total_users,
                                       ticks);
  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    occupancy.Add(roadnet::SegmentId{i});
  }
  const core::PrivacyProfile profile({{8, 3, 1e9}, {25, 8, 1e9}});
  core::ContinuousOptions continuous;
  continuous.validity_level = 1;
  continuous.min_recloak_interval_s = 0.0;
  constexpr std::uint64_t kSeedBase = 50000;

  std::uint64_t verify_mismatches = 0;
  TableWriter table({"workers", "loops", "conns", "updates",
                     "wire_upd_per_s", "inproc_upd_per_s", "wire_tax",
                     "p50_ms", "p95_ms", "p99_ms", "recloaks",
                     "max_batch"});
  JsonReport report("e23");
  report.MetaInt("connections", connections);
  report.MetaInt("users_per_conn", users_per_conn);
  report.MetaInt("ticks", ticks);
  report.MetaInt("updates_per_config",
                 static_cast<long long>(total_updates));
  report.MetaBool("verify", verify);
  report.MetaBool("auth", auth);
  // One shared secret for the whole fleet; each connection authenticates
  // as its own principal, so every user binds to the connection that
  // first drives it — the steady-state updates then pay the ownership
  // check on every tick, which is exactly the tax being measured.
  const Bytes auth_secret = {'e', '2', '3', '-', 'b', 'e', 'n', 'c', 'h'};

  for (const int workers : worker_counts) {
    // ---- in-process twin: same fleet, no wire -----------------------------
    // Always timed (the comparison column); artifact bytes are only
    // retained when --verify needs them.
    std::vector<std::vector<Bytes>> expected;  // [tick][user]
    double inproc_upd_per_s = 0.0;
    std::uint64_t twin_failed = 0;
    {
      core::Anonymizer engine(ctx, occupancy);
      server::ServerOptions server_options;
      server_options.num_workers = workers;
      server_options.max_queue = 1 << 18;
      server::AnonymizationServer server(std::move(engine), server_options);
      server::ContinuousSessionPool pool(server);
      std::vector<util::UserId> ids(total_users);
      for (std::uint32_t u = 0; u < total_users; ++u) {
        const std::string name = UserName(u);
        auto tracked = pool.Track(
            name, profile, core::Algorithm::kRge,
            net::DeterministicKeyProvider(kSeedBase, name,
                                          profile.num_levels()),
            continuous);
        if (!tracked.ok()) {
          std::fprintf(stderr, "twin track failed: %s\n",
                       tracked.status().ToString().c_str());
          return 1;
        }
        ids[u] = *tracked;
      }
      if (verify) expected.resize(static_cast<std::size_t>(ticks));
      Stopwatch wall;
      std::vector<server::ContinuousSessionPool::IdPositionUpdate> batch(
          total_users);
      for (int t = 0; t < ticks; ++t) {
        const double now_s = static_cast<double>(t);
        for (std::uint32_t u = 0; u < total_users; ++u) {
          batch[u] = {ids[u], now_s, positions[t][u]};
        }
        auto results = pool.UpdateBatch(batch);
        if (verify) {
          expected[static_cast<std::size_t>(t)].resize(total_users);
        }
        for (std::uint32_t u = 0; u < total_users; ++u) {
          if (!results[u].ok()) {
            ++twin_failed;
            continue;
          }
          if (verify) {
            expected[static_cast<std::size_t>(t)][u] =
                core::EncodeArtifact(**results[u]);
          }
        }
      }
      const double wall_s = wall.ElapsedMillis() / 1000.0;
      inproc_upd_per_s =
          wall_s > 0 ? static_cast<double>(total_updates) / wall_s : 0.0;
    }
    if (twin_failed != 0) {
      std::fprintf(stderr, "twin pool reported %llu failed updates\n",
                   static_cast<unsigned long long>(twin_failed));
      return 1;
    }

    // ---- the wire runs: one per --loops value, same twin --------------------
    // The twin is the byte oracle for every loop count — the multi-loop
    // front door must be invisible in the artifact bytes.
    for (const int loops : loop_counts) {
      core::Anonymizer engine(ctx, occupancy);
      server::ServerOptions server_options;
      server_options.num_workers = workers;
      server_options.max_queue = 1 << 18;
      server::AnonymizationServer server(std::move(engine), server_options);
      server::ContinuousSessionPool pool(server);
      net::NetServerOptions net_options;
      net_options.profile = profile;
      net_options.continuous = continuous;
      net_options.key_seed_base = kSeedBase;
      net_options.loop_threads = loops;
      if (auth) net_options.auth_secret = auth_secret;
      net::NetServer front(pool, net_options);
      if (const auto started = front.Start(); !started.ok()) {
        std::fprintf(stderr, "net server start failed: %s\n",
                     started.ToString().c_str());
        return 1;
      }

      std::vector<net::Client> clients;
      clients.reserve(static_cast<std::size_t>(connections));
      for (int c = 0; c < connections; ++c) {
        auto client = net::Client::Connect("127.0.0.1", front.port());
        if (!client.ok()) {
          std::fprintf(stderr, "connect failed: %s\n",
                       client.status().ToString().c_str());
          return 1;
        }
        const auto hello =
            auth ? client->Hello(front.map_fingerprint(),
                                 "conn" + std::to_string(c), auth_secret)
                 : client->Hello(front.map_fingerprint());
        if (!hello.ok()) {
          std::fprintf(stderr, "hello failed: %s\n",
                       hello.ToString().c_str());
          return 1;
        }
        clients.push_back(std::move(client).value());
      }

      Samples latency_ms;
      std::uint64_t wire_failed = 0;
      Stopwatch wall;
      std::vector<double> sent_at_ms(static_cast<std::size_t>(connections));
      for (int t = 0; t < ticks; ++t) {
        const double now_s = static_cast<double>(t);
        // Send burst: every connection's users, pipelined, one flush each.
        for (int c = 0; c < connections; ++c) {
          for (int u = 0; u < users_per_conn; ++u) {
            const std::uint32_t global =
                static_cast<std::uint32_t>(c * users_per_conn + u);
            const std::uint32_t seq = static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(t) * total_users + global);
            clients[static_cast<std::size_t>(c)].QueuePositionUpdate(
                seq, UserName(global), now_s, positions[t][global]);
          }
          if (const auto flushed =
                  clients[static_cast<std::size_t>(c)].Flush();
              !flushed.ok()) {
            std::fprintf(stderr, "flush failed: %s\n",
                         flushed.ToString().c_str());
            return 1;
          }
          sent_at_ms[static_cast<std::size_t>(c)] = NowMs();
        }
        // Read back every reply (per connection, replies arrive in the
        // order the updates were sent).
        for (int c = 0; c < connections; ++c) {
          for (int u = 0; u < users_per_conn; ++u) {
            auto reply =
                clients[static_cast<std::size_t>(c)].ReadArtifactReply();
            if (!reply.ok()) {
              std::fprintf(stderr, "reply failed (conn %d): %s\n", c,
                           reply.status().ToString().c_str());
              return 1;
            }
            latency_ms.Add(NowMs() -
                           sent_at_ms[static_cast<std::size_t>(c)]);
            const std::uint32_t global =
                static_cast<std::uint32_t>(c * users_per_conn + u);
            const std::uint32_t seq = static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(t) * total_users + global);
            if (reply->seq != seq) {
              std::fprintf(
                  stderr,
                  "reply misrouted: conn %d expected seq %u got %u\n", c,
                  seq, reply->seq);
              return 2;
            }
            if (!reply->status.ok()) {
              ++wire_failed;
              continue;
            }
            if (verify &&
                reply->artifact_wire !=
                    expected[static_cast<std::size_t>(t)][global]) {
              ++verify_mismatches;
            }
          }
        }
      }
      const double wall_s = wall.ElapsedMillis() / 1000.0;
      const double wire_upd_per_s =
          wall_s > 0 ? static_cast<double>(total_updates) / wall_s : 0.0;
      clients.clear();  // disconnect before the counters are read
      const auto pool_stats = pool.stats();
      const auto net_stats = front.stats();
      const auto loop_stats = front.per_loop_stats();
      front.Stop();
      if (wire_failed != 0) {
        std::fprintf(stderr, "wire run reported %llu failed updates\n",
                     static_cast<unsigned long long>(wire_failed));
        return 1;
      }
      table.AddRow(
          {TableWriter::Int(workers), TableWriter::Int(loops),
           TableWriter::Int(connections),
           TableWriter::Int(static_cast<long long>(total_updates)),
           TableWriter::Fixed(wire_upd_per_s, 0),
           TableWriter::Fixed(inproc_upd_per_s, 0),
           TableWriter::Fixed(
               wire_upd_per_s > 0 ? inproc_upd_per_s / wire_upd_per_s : 0.0,
               2),
           TableWriter::Fixed(latency_ms.Percentile(50), 3),
           TableWriter::Fixed(latency_ms.Percentile(95), 3),
           TableWriter::Fixed(latency_ms.Percentile(99), 3),
           TableWriter::Int(static_cast<long long>(pool_stats.recloaks)),
           TableWriter::Int(static_cast<long long>(net_stats.largest_batch))});
      auto& row = report.AddRow();
      row.Int("workers", workers)
          .Int("loops", loops)
          .Int("updates", static_cast<long long>(total_updates))
          .Num("wire_updates_per_s", wire_upd_per_s)
          .Num("inproc_updates_per_s", inproc_upd_per_s)
          .Num("p50_ms", latency_ms.Percentile(50))
          .Num("p95_ms", latency_ms.Percentile(95))
          .Num("p99_ms", latency_ms.Percentile(99))
          .Int("recloaks", static_cast<long long>(pool_stats.recloaks))
          .Int("batches", static_cast<long long>(net_stats.batches))
          .Int("largest_batch",
               static_cast<long long>(net_stats.largest_batch))
          .Int("bytes_in", static_cast<long long>(net_stats.bytes_in))
          .Int("bytes_out", static_cast<long long>(net_stats.bytes_out))
          .Int("auth_ok", static_cast<long long>(net_stats.auth_ok))
          .Int("auth_rejected",
               static_cast<long long>(net_stats.auth_rejected))
          .Int("ownership_rejected",
               static_cast<long long>(net_stats.ownership_rejected))
          .Int("verify_mismatches",
               static_cast<long long>(verify_mismatches));
      // Per-loop update share: how evenly the kernel spread the fleet
      // across loops. loopK_updates sums to the row's decoded updates.
      for (std::size_t k = 0; k < loop_stats.size(); ++k) {
        row.Int("loop" + std::to_string(k) + "_updates",
                static_cast<long long>(loop_stats[k].updates_decoded));
      }
    }
  }
  table.PrintMarkdown(std::cout);
  if (!report.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_e23.json\n");
    return 1;
  }
  if (verify) {
    std::cout << "\nwire verification: "
              << (verify_mismatches == 0
                      ? "every reply byte-identical to the in-process twin"
                      : std::to_string(verify_mismatches) + " MISMATCHES")
              << "\n";
  }
  return verify_mismatches == 0 ? 0 : 2;
}
