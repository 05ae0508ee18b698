// rcloak_tool — the batch CLI for the whole system. Subcommands:
//
//   gen-map   --kind grid|perturbed|atlanta|radial [--rows R --cols C]
//             [--seed S] --out map.rcmap [--geojson map.json]
//   map-stats --map map.rcmap
//   gen-trace --map map.rcmap --cars N [--seed S] [--duration SECS]
//             --out trace.txt
//   keygen    --levels N --out keys.rcks --passphrase PW [--print]
//   anonymize --map map.rcmap --trace trace.txt --origin SEG
//             --keys keys.rcks --passphrase PW --algo rge|rple|grid
//             --k K1,K2,... --out artifact.bin [--svg region.svg]
//   reduce    --map map.rcmap --artifact artifact.bin --keys keys.rcks
//             --passphrase PW --level L
//   serve     --map map.rcmap [--port P] [--workers N] [--loops N]
//             [--duration SECS] [--trace trace.txt] [--spill spill.rcsf]
//             [--budget BYTES]
//             [--secret S]         (no duration = run until SIGINT/SIGTERM)
//   sendto    --host H --port P --user NAME --segments "3,17,42"
//             [--interval SECS] [--secret S] [--principal NAME]
//   spill     --map map.rcmap --trace trace.txt --out spill.rcsf
//             [--workers N]
//   restore   --map map.rcmap --spill spill.rcsf [--workers N]
//
// Everything the Anonymizer / De-anonymizer GUIs do, scriptable — plus the
// networked front door (`serve` binds the epoll server on a map, `sendto`
// streams framed position updates at one and prints each artifact reply).
//
// The cold tier is scriptable end to end: `spill` drives a trace through a
// session pool under the SAME profile/key schedule `serve` auto-tracks
// with and writes every session to a batched spill file (a file that
// already holds one of the trace's cars is refused: tracking the car
// afresh would restart its epoch chain); `serve --spill`
// attaches that file (a reconnecting user's updates then restore on miss,
// and `--budget` caps the resident set) and, when it stops (at the end of
// --duration, or on SIGINT or SIGTERM), writes every resident session to
// it; `restore` warm-boots a pool from the file and reports what came back.
//
// `--workers N` (serve, spill, restore) sets the anonymization server's
// worker threads; the default is one per hardware thread.
//
// `serve --loops N` shards the front door across N event-loop threads
// (SO_REUSEPORT kernel accept sharding; connections stay pinned to their
// loop, so per-user streams and artifact bytes are unchanged). Composes
// with --spill/--secret — the pool underneath is shared and
// thread-safe.
//
// `serve --secret S` turns on challenge–response authentication: every
// client must answer the HELLO nonce with an HMAC tag under the same
// secret, and sessions bind to the authenticated principal. `sendto`
// passes the matching `--secret` (and optionally `--principal`, defaulting
// to --user). A spill file holding owner-bound sessions refuses to serve
// in open mode — without the secret their owners cannot be verified.
#include <pthread.h>
#include <signal.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "core/artifact_debug.h"
#include "core/reversecloak.h"
#include "crypto/keystore.h"
#include "mobility/simulator.h"
#include "mobility/trace_io.h"
#include "net/client.h"
#include "net/net_server.h"
#include "roadnet/generators.h"
#include "roadnet/geojson.h"
#include "roadnet/graph_stats.h"
#include "roadnet/io.h"
#include "roadnet/spatial_index.h"
#include "viz/svg_renderer.h"

using namespace rcloak;

namespace {

class Args {
 public:
  Args(int argc, char** argv) {
    // Valueless flags must not swallow the next --key as their "value".
    const auto is_bool_flag = [](const char* arg) {
      return std::strcmp(arg, "--print") == 0;
    };
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      if (is_bool_flag(argv[i])) {
        values_[argv[i] + 2] = "1";
        continue;
      }
      if (i + 1 < argc) {
        values_[argv[i] + 2] = argv[i + 1];
        ++i;
      }
    }
  }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  long Int(const std::string& key, long fallback) const {
    return Has(key) ? std::atol(Get(key).c_str()) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

int GenMap(const Args& args) {
  const std::string kind = args.Get("kind", "perturbed");
  roadnet::RoadNetwork net = [&] {
    if (kind == "grid") {
      return roadnet::MakeGrid({static_cast<int>(args.Int("rows", 30)),
                                static_cast<int>(args.Int("cols", 30)),
                                150.0});
    }
    if (kind == "atlanta") {
      return roadnet::MakePerturbedGrid(roadnet::AtlantaNwProfile(
          static_cast<std::uint64_t>(args.Int("seed", 42))));
    }
    if (kind == "radial") {
      return roadnet::MakeRadial(
          {static_cast<int>(args.Int("rows", 8)),
           static_cast<int>(args.Int("cols", 16)), 200.0,
           static_cast<std::uint64_t>(args.Int("seed", 7))});
    }
    roadnet::PerturbedGridOptions options;
    options.rows = static_cast<int>(args.Int("rows", 40));
    options.cols = static_cast<int>(args.Int("cols", 40));
    options.seed = static_cast<std::uint64_t>(args.Int("seed", 42));
    return roadnet::MakePerturbedGrid(options);
  }();

  const std::string out = args.Get("out");
  if (out.empty()) return Fail("gen-map: --out required");
  if (const auto status = roadnet::SaveNetworkFile(out, net); !status.ok()) {
    return Fail(status.ToString());
  }
  std::cout << "wrote " << out << " (" << net.junction_count()
            << " junctions, " << net.segment_count() << " segments)\n";
  if (args.Has("geojson")) {
    std::ofstream os(args.Get("geojson"));
    roadnet::WriteNetworkGeoJson(os, net);
    std::cout << "wrote " << args.Get("geojson") << "\n";
  }
  return 0;
}

int MapStats(const Args& args) {
  const auto net = roadnet::LoadNetworkFile(args.Get("map"));
  if (!net.ok()) return Fail(net.status().ToString());
  const auto stats = roadnet::ComputeStats(*net);
  roadnet::PrintStats(std::cout, stats, args.Get("map").c_str());
  std::cout << "degree histogram:";
  for (std::size_t d = 0; d < stats.degree_histogram.size(); ++d) {
    std::cout << " " << d << ":" << stats.degree_histogram[d];
  }
  std::cout << "\navg segment length: " << stats.avg_segment_length
            << " m, bbox " << stats.bbox_area_km2 << " km^2\n";
  return 0;
}

int GenTrace(const Args& args) {
  const auto net = roadnet::LoadNetworkFile(args.Get("map"));
  if (!net.ok()) return Fail(net.status().ToString());
  const roadnet::SpatialIndex index(*net);
  mobility::SpawnOptions spawn;
  spawn.num_cars = static_cast<std::uint32_t>(args.Int("cars", 10000));
  spawn.seed = static_cast<std::uint64_t>(args.Int("seed", 1));
  auto cars = mobility::SpawnCars(*net, index, spawn);
  mobility::SimulationOptions sim;
  sim.tick_s = 1.0;
  sim.duration_s = static_cast<double>(args.Int("duration", 30));
  sim.record_every = 1;
  mobility::TraceSimulator simulator(*net, std::move(cars), sim);
  simulator.Run();
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("gen-trace: --out required");
  if (const auto status = mobility::SaveTraceFile(out, simulator.trace());
      !status.ok()) {
    return Fail(status.ToString());
  }
  std::cout << "wrote " << out << " (" << simulator.trace().size()
            << " records over " << simulator.now_s() << " s)\n";
  return 0;
}

int KeyGen(const Args& args) {
  const int levels = static_cast<int>(args.Int("levels", 3));
  const auto chain = crypto::KeyChain::RandomKeys(levels);
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("keygen: --out required");
  const std::string passphrase = args.Get("passphrase");
  if (passphrase.empty()) return Fail("keygen: --passphrase required");
  if (const auto status = crypto::SaveKeyChainFile(out, chain, passphrase);
      !status.ok()) {
    return Fail(status.ToString());
  }
  std::cout << "wrote " << out << " (" << levels << " level keys)\n";
  if (args.Has("print")) {
    for (int level = 1; level <= levels; ++level) {
      std::cout << "  Key" << level << " = " << chain.LevelKey(level).ToHex()
                << "\n";
    }
  }
  return 0;
}

StatusOr<mobility::OccupancySnapshot> OccupancyFromTrace(
    const std::string& path, std::size_t segment_count) {
  RCLOAK_ASSIGN_OR_RETURN(const auto records,
                          mobility::LoadTraceFile(path));
  // Last position per car.
  std::map<std::uint32_t, roadnet::SegmentId> last;
  for (const auto& rec : records) last[rec.car_id] = rec.segment;
  mobility::OccupancySnapshot snapshot(segment_count);
  for (const auto& [car, segment] : last) snapshot.Add(segment);
  return snapshot;
}

int Anonymize(const Args& args) {
  const auto net = roadnet::LoadNetworkFile(args.Get("map"));
  if (!net.ok()) return Fail(net.status().ToString());
  auto occupancy = OccupancyFromTrace(args.Get("trace"),
                                      net->segment_count());
  if (!occupancy.ok()) return Fail(occupancy.status().ToString());
  const auto keys =
      crypto::LoadKeyChainFile(args.Get("keys"), args.Get("passphrase"));
  if (!keys.ok()) return Fail(keys.status().ToString());

  // Profile: --k "10,30,80" with derived l and sigma defaults, or
  // explicit --l / --sigma lists of the same arity.
  std::vector<core::LevelRequirement> levels;
  std::istringstream k_list(args.Get("k", "10,30"));
  std::string item;
  while (std::getline(k_list, item, ',')) {
    core::LevelRequirement req;
    req.delta_k = static_cast<std::uint32_t>(std::atol(item.c_str()));
    req.delta_l = std::max<std::uint32_t>(2, req.delta_k / 4);
    req.sigma_s = static_cast<double>(args.Int("sigma", 100000));
    levels.push_back(req);
  }

  core::Anonymizer anonymizer(*net, std::move(*occupancy));
  core::AnonymizeRequest request;
  request.origin = roadnet::SegmentId{
      static_cast<std::uint32_t>(args.Int("origin", 0))};
  request.profile = core::PrivacyProfile(levels);
  const std::string algo = args.Get("algo", "rge");
  if (algo == "rple") {
    request.algorithm = core::Algorithm::kRple;
  } else if (algo == "grid") {
    request.algorithm = core::Algorithm::kGrid;
  } else if (algo == "rge") {
    request.algorithm = core::Algorithm::kRge;
  } else {
    return Fail("anonymize: unknown --algo '" + algo +
                "' (expected rge, rple or grid)");
  }
  request.context = args.Get("context", "rcloak-tool/req");
  const auto result = anonymizer.Anonymize(request, *keys);
  if (!result.ok()) return Fail(result.status().ToString());

  const Bytes wire = core::EncodeArtifact(result->artifact);
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("anonymize: --out required");
  std::ofstream os(out, std::ios::binary);
  os.write(reinterpret_cast<const char*>(wire.data()),
           static_cast<std::streamsize>(wire.size()));
  if (!os.good()) return Fail("cannot write " + out);
  std::cout << "wrote " << out << " ("
            << result->artifact.region_segments.size() << "-segment "
            << core::AlgorithmName(result->artifact.algorithm)
            << " region, " << wire.size() << " bytes)\n";

  if (args.Has("svg")) {
    viz::SvgRenderer renderer(*net);
    renderer.DrawNetwork();
    renderer.DrawRegion(core::CloakRegion::FromSegments(
                            *net, result->artifact.region_segments),
                        viz::SvgRenderer::LevelStyle(1));
    renderer.MarkSegment(request.origin, "#000000");
    (void)renderer.WriteFile(args.Get("svg"));
    std::cout << "wrote " << args.Get("svg") << "\n";
  }
  return 0;
}

int Inspect(const Args& args) {
  std::ifstream is(args.Get("artifact"), std::ios::binary);
  if (!is) return Fail("cannot open artifact " + args.Get("artifact"));
  Bytes wire((std::istreambuf_iterator<char>(is)),
             std::istreambuf_iterator<char>());
  const auto artifact = core::DecodeArtifact(wire);
  if (!artifact.ok()) return Fail(artifact.status().ToString());
  core::PrintArtifact(std::cout, *artifact);
  std::cout << "wire size: " << wire.size() << " bytes\n";
  return 0;
}

int Reduce(const Args& args) {
  const auto net = roadnet::LoadNetworkFile(args.Get("map"));
  if (!net.ok()) return Fail(net.status().ToString());
  std::ifstream is(args.Get("artifact"), std::ios::binary);
  if (!is) return Fail("cannot open artifact " + args.Get("artifact"));
  Bytes wire((std::istreambuf_iterator<char>(is)),
             std::istreambuf_iterator<char>());
  const auto artifact = core::DecodeArtifact(wire);
  if (!artifact.ok()) return Fail(artifact.status().ToString());
  const auto keys =
      crypto::LoadKeyChainFile(args.Get("keys"), args.Get("passphrase"));
  if (!keys.ok()) return Fail(keys.status().ToString());

  std::map<int, crypto::AccessKey> granted;
  for (int level = 1; level <= keys->num_levels(); ++level) {
    granted.emplace(level, keys->LevelKey(level));
  }
  core::Deanonymizer deanonymizer(*net);
  const int target = static_cast<int>(args.Int("level", 0));
  const auto region = deanonymizer.Reduce(*artifact, granted, target);
  if (!region.ok()) return Fail(region.status().ToString());
  std::cout << "L" << target << " region: " << region->size()
            << " segment(s):";
  for (const auto sid : region->segments_by_id()) {
    std::cout << " s" << roadnet::Index(sid);
  }
  std::cout << "\n";
  return 0;
}

// The session parameters `serve` auto-tracks users under (NetServerOptions
// defaults). `spill` and `restore` must build pools under the same ones so
// spill files round-trip against a running server.
core::PrivacyProfile ServeProfile() {
  return core::PrivacyProfile({{8, 3, 1e9}, {25, 8, 1e9}});
}

// `--workers N`, else the library default (one per hardware thread).
server::ServerOptions ServeServerOptions(const Args& args) {
  server::ServerOptions options;
  options.num_workers =
      static_cast<int>(args.Int("workers", options.num_workers));
  return options;
}

server::SessionPoolOptions ServePoolOptions() {
  server::SessionPoolOptions options;
  const int levels = ServeProfile().num_levels();
  options.key_provider_factory = [levels](std::string_view user) {
    return rcloak::net::DeterministicKeyProvider(50000, user, levels);
  };
  return options;
}

void PrintColdTierStats(const server::ContinuousSessionPool& pool) {
  const auto stats = pool.stats();
  std::cout << "  resident sessions: " << stats.active_sessions << "\n"
            << "  memory accounting: " << stats.memory_bytes << " B ("
            << stats.interner_bytes << " B interner)\n";
  if (const auto* spill = pool.spill_files()) {
    const auto file = spill->stats();
    std::cout << "  spill file: " << file.live_records << " live records, "
              << file.file_bytes << " B (" << file.dead_bytes << " B dead), "
              << file.compactions << " compactions\n";
  }
}

int Spill(const Args& args) {
  const auto net = roadnet::LoadNetworkFile(args.Get("map"));
  if (!net.ok()) return Fail(net.status().ToString());
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("spill: --out required");
  if (!args.Has("trace")) return Fail("spill: --trace required");
  const auto records = mobility::LoadTraceFile(args.Get("trace"));
  if (!records.ok()) return Fail(records.status().ToString());
  // All-ones occupancy — the same default a trace-less `serve` cloaks
  // under, so the spilled artifacts match what that server would cut (and
  // small traces don't starve the k levels).
  mobility::OccupancySnapshot occupancy(net->segment_count());
  for (std::uint32_t i = 0; i < net->segment_count(); ++i) {
    occupancy.Add(roadnet::SegmentId{i});
  }

  core::Anonymizer engine(*net, std::move(occupancy));
  server::AnonymizationServer anon_server(std::move(engine),
                                          ServeServerOptions(args));
  server::SessionPoolOptions pool_options = ServePoolOptions();
  server::ContinuousSessionPool pool(anon_server, pool_options);
  if (const auto attached = pool.AttachSpillFile(out); !attached.ok()) {
    return Fail(attached.ToString());
  }

  // Drive the trace tick by tick so every session carries a real artifact
  // and validity region into the file — the same shape a live `serve`
  // session has when the sweep evicts it.
  std::map<double, std::vector<mobility::TraceRecord>> by_time;
  for (const auto& rec : *records) by_time[rec.time_s].push_back(rec);
  std::map<std::uint32_t, util::UserId> ids;
  core::ContinuousOptions continuous{1, 0.0};
  std::uint64_t failed = 0;
  for (const auto& [now_s, tick] : by_time) {
    std::vector<server::ContinuousSessionPool::IdPositionUpdate> batch;
    for (const auto& rec : tick) {
      auto it = ids.find(rec.car_id);
      if (it == ids.end()) {
        const std::string name = "car" + std::to_string(rec.car_id);
        const auto tracked = pool.Track(
            name, ServeProfile(), core::Algorithm::kRge,
            rcloak::net::DeterministicKeyProvider(
                50000, name, ServeProfile().num_levels()),
            continuous, now_s);
        if (!tracked.ok()) return Fail(tracked.status().ToString());
        it = ids.emplace(rec.car_id, *tracked).first;
      }
      batch.push_back({it->second, now_s, rec.segment});
    }
    for (const auto& result : pool.UpdateBatch(batch)) {
      if (!result.ok()) ++failed;
    }
  }
  if (failed > 0) {
    std::cerr << "warning: " << failed << " updates failed\n";
  }
  const auto written = pool.SpillAllToFile();
  if (!written.ok()) return Fail(written.status().ToString());
  std::cout << "wrote " << out << ": " << *written << " sessions spilled ("
            << ids.size() << " cars, " << records->size()
            << " trace records)\n";
  PrintColdTierStats(pool);
  return 0;
}

int RestoreCmd(const Args& args) {
  const auto net = roadnet::LoadNetworkFile(args.Get("map"));
  if (!net.ok()) return Fail(net.status().ToString());
  const std::string path = args.Get("spill");
  if (path.empty()) return Fail("restore: --spill required");
  mobility::OccupancySnapshot occupancy(net->segment_count());
  for (std::uint32_t i = 0; i < net->segment_count(); ++i) {
    occupancy.Add(roadnet::SegmentId{i});
  }
  core::Anonymizer engine(*net, std::move(occupancy));
  server::AnonymizationServer anon_server(std::move(engine),
                                          ServeServerOptions(args));
  server::SessionPoolOptions pool_options = ServePoolOptions();
  server::ContinuousSessionPool pool(anon_server, pool_options);
  if (const auto attached = pool.AttachSpillFile(path); !attached.ok()) {
    return Fail(attached.ToString());
  }
  const auto restored = pool.RestoreAllFromFile();
  if (!restored.ok()) return Fail(restored.status().ToString());
  const auto stats = pool.stats();
  std::cout << "restored " << *restored << " sessions from " << path;
  if (stats.restore_failures > 0) {
    std::cout << " (" << stats.restore_failures << " failed)";
  }
  std::cout << "\n";
  PrintColdTierStats(pool);
  return stats.restore_failures == 0 ? 0 : 1;
}

int Serve(const Args& args) {
  // SIGINT and SIGTERM end the serve wait below. They are blocked before
  // any thread starts, so every worker and loop thread inherits the mask
  // and the signal stays pending for sigtimedwait instead of killing the
  // process.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  const auto net = roadnet::LoadNetworkFile(args.Get("map"));
  if (!net.ok()) return Fail(net.status().ToString());
  mobility::OccupancySnapshot occupancy(net->segment_count());
  if (args.Has("trace")) {
    auto from_trace =
        OccupancyFromTrace(args.Get("trace"), net->segment_count());
    if (!from_trace.ok()) return Fail(from_trace.status().ToString());
    occupancy = std::move(*from_trace);
  } else {
    for (std::uint32_t i = 0; i < net->segment_count(); ++i) {
      occupancy.Add(roadnet::SegmentId{i});
    }
  }
  core::Anonymizer engine(*net, std::move(occupancy));
  server::AnonymizationServer anon_server(std::move(engine),
                                          ServeServerOptions(args));
  server::SessionPoolOptions pool_options;
  if (args.Has("spill")) {
    // The cold tier: budget sweeps spill to the file, reconnecting users
    // restore on miss under the same deterministic schedule the front
    // door auto-tracks with.
    pool_options = ServePoolOptions();
  }
  pool_options.memory_budget_bytes =
      static_cast<std::size_t>(args.Int("budget", 0));
  server::ContinuousSessionPool pool(anon_server, pool_options);
  const std::string secret = args.Get("secret");
  if (args.Has("spill")) {
    if (const auto attached = pool.AttachSpillFile(args.Get("spill"));
        !attached.ok()) {
      return Fail(attached.ToString());
    }
    if (secret.empty()) {
      // Owner-bound records cannot be verified without the secret; serving
      // them open would let any connection adopt any of them.
      const auto owned = pool.OwnedSpillRecords();
      if (!owned.ok()) return Fail(owned.status().ToString());
      if (*owned > 0) {
        return Fail("serve: spill file holds " + std::to_string(*owned) +
                    " owner-bound session(s); refusing to serve them in "
                    "open mode (pass --secret)");
      }
    }
    std::cout << "cold tier: spill file " << args.Get("spill") << " ("
              << pool.spill_files()->stats().live_records
              << " spilled sessions)";
    if (pool.memory_budget_bytes() > 0) {
      std::cout << ", budget " << pool.memory_budget_bytes() << " B";
    }
    std::cout << "\n";
  }
  rcloak::net::NetServerOptions options;
  options.port = static_cast<std::uint16_t>(args.Int("port", 0));
  options.auth_secret = rcloak::Bytes(secret.begin(), secret.end());
  options.loop_threads = static_cast<int>(args.Int("loops", 1));
  rcloak::net::NetServer front(pool, options);
  if (const auto started = front.Start(); !started.ok()) {
    return Fail(started.ToString());
  }
  std::cout << "serving on 127.0.0.1:" << front.port()
            << " (map fingerprint " << std::hex << front.map_fingerprint()
            << std::dec << ", " << anon_server.num_workers() << " workers, "
            << front.loop_count() << " loop(s)"
            << (secret.empty() ? "" : ", auth required") << ")"
            << std::endl;
  // --duration and a stop signal end the same wait; without --duration
  // only a signal does.
  const long duration = args.Int("duration", 0);
  timespec timeout{static_cast<std::time_t>(duration), 0};
  while (sigtimedwait(&stop_signals, nullptr,
                      duration > 0 ? &timeout : nullptr) < 0 &&
         errno == EINTR) {
  }
  front.Stop();
  const auto stats = front.stats();
  std::cout << "served " << stats.updates_decoded << " updates over "
            << stats.connections_accepted << " connections ("
            << stats.bytes_in << " B in, " << stats.bytes_out
            << " B out)\n";
  if (args.Has("spill")) {
    // Resident sessions would otherwise be lost with the process, and the
    // next serve would track their users from epoch 0 again.
    const auto spilled = pool.SpillAllToFile();
    if (!spilled.ok()) return Fail(spilled.status().ToString());
    std::cout << "spilled " << *spilled << " resident sessions to "
              << args.Get("spill") << "\n";
  }
  return 0;
}

int SendTo(const Args& args) {
  const std::string user = args.Get("user");
  if (user.empty()) return Fail("sendto: --user required");
  if (!args.Has("port")) return Fail("sendto: --port required");
  auto client = rcloak::net::Client::Connect(
      args.Get("host", "127.0.0.1"),
      static_cast<std::uint16_t>(args.Int("port", 0)));
  if (!client.ok()) return Fail(client.status().ToString());
  const std::string secret = args.Get("secret");
  const std::string principal = args.Get("principal", user);
  const rcloak::Bytes secret_bytes(secret.begin(), secret.end());
  if (const auto hello = client->Hello(0, principal, secret_bytes);
      !hello.ok()) {
    return Fail(hello.ToString());
  }
  std::cout << "connected (server map fingerprint " << std::hex
            << client->server_fingerprint() << std::dec
            << (secret.empty() ? "" : ", authenticated as " + principal)
            << ")\n";

  const double interval_s = static_cast<double>(args.Int("interval", 0));
  std::uint32_t seq = 0;
  double now_s = 0.0;
  std::istringstream segment_list(args.Get("segments", "0"));
  std::string item;
  while (std::getline(segment_list, item, ',')) {
    const auto segment = roadnet::SegmentId{
        static_cast<std::uint32_t>(std::atol(item.c_str()))};
    client->QueuePositionUpdate(++seq, user, now_s, segment);
    if (const auto flushed = client->Flush(); !flushed.ok()) {
      return Fail(flushed.ToString());
    }
    const auto reply = client->ReadArtifactReply();
    if (!reply.ok()) return Fail(reply.status().ToString());
    const auto artifact = core::DecodeArtifact(reply->artifact_wire);
    if (!artifact.ok()) return Fail(artifact.status().ToString());
    std::cout << "seq " << reply->seq << ": s" << roadnet::Index(segment)
              << " -> " << artifact->region_segments.size() << "-segment "
              << core::AlgorithmName(artifact->algorithm) << " region ("
              << reply->artifact_wire.size() << " wire bytes)\n";
    now_s += interval_s > 0 ? interval_s : 1.0;
    if (interval_s > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(interval_s));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: rcloak_tool "
                 "<gen-map|map-stats|gen-trace|keygen|anonymize|inspect|"
                 "reduce|serve|sendto|spill|restore> [--flag value ...]\n";
    return 2;
  }
  const Args args(argc, argv);
  const std::string command = argv[1];
  if (command == "gen-map") return GenMap(args);
  if (command == "map-stats") return MapStats(args);
  if (command == "gen-trace") return GenTrace(args);
  if (command == "keygen") return KeyGen(args);
  if (command == "anonymize") return Anonymize(args);
  if (command == "inspect") return Inspect(args);
  if (command == "reduce") return Reduce(args);
  if (command == "serve") return Serve(args);
  if (command == "sendto") return SendTo(args);
  if (command == "spill") return Spill(args);
  if (command == "restore") return RestoreCmd(args);
  std::cerr << "unknown subcommand: " << command << "\n";
  return 2;
}
