// rcbench — the repository benchmark: seeded fleet traffic driven through
// the whole stack over the authenticated wire, then verified against an
// in-process twin.
//
//   rcbench --workload <steady_fleet|recloak_storm|cold_churn> --seed <n>
//           --seconds <s> --trace <0|1> [--scratch <dir>]
//
// One process hosts the server — NetServer (net) over the session pool and
// the anonymization server (server) over the engine (core), with the spill
// file (store) for cold_churn — all with library defaults; only deployment
// inputs are set: map, fleet, profile, auth secret, spill path and memory
// budget. One generator thread drives it over loopback TCP.
//
// A run: set-up (kSetupReps times in all; setup_s is the median), an
// open-loop phase at the workload's fixed rate for seconds/2, a closed-loop
// saturation phase for seconds/2, then the twin comparison. --trace 0
// prints the end-to-end metrics; --trace 1 runs the same traffic and then
// the traced layer replay, and prints the per-layer metrics. The last line
// of stdout is one JSON object; the exit code is 0 only when every
// operation succeeded and verified.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/map_context.h"
#include "generator.h"
#include "net/net_server.h"
#include "replay.h"
#include "server/anonymization_server.h"
#include "server/continuous_session_pool.h"
#include "store/spill_file_set.h"
#include "workload.h"

using namespace rcloak;
using namespace perfbench;

namespace {

constexpr int kSetupReps = 3;
// A run whose generator sent its open-loop updates later than this (p99)
// measured the generator, not the server: it is flagged invalid.
constexpr double kMaxLatenessP99Ms = 100.0;
constexpr double kDrainTimeoutS = 30.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/run";
};

bool Parse(int argc, char** argv, Args* args) {
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const std::string value = argv[a + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

double ReadRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

double ReadLoadAverage() {
  std::ifstream loadavg("/proc/loadavg");
  double one_minute = 0.0;
  loadavg >> one_minute;
  return one_minute;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double Percentile(const Samples& samples, double q) {
  return samples.empty() ? 0.0 : samples.Percentile(q);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return std::string(buf, end);
}

void RemoveSpill(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::filesystem::remove(path + ".tmp", ignored);
}

// The server under test plus the generator driving it. Members are torn
// down in reverse: the generator's sockets close first, then the front
// door stops, then the pool and server go.
struct WireStack {
  std::shared_ptr<const core::MapContext> ctx;
  std::unique_ptr<server::AnonymizationServer> server;
  std::unique_ptr<server::ContinuousSessionPool> pool;
  std::unique_ptr<net::NetServer> front;
  std::unique_ptr<Generator> gen;
};

struct SetupTimes {
  double map_context_s = 0.0;
  double server_start_s = 0.0;
  double first_sighting_s = 0.0;
  double total_s = 0.0;
};

StatusOr<SetupTimes> Setup(const Workload& workload,
                           const std::string& spill_path, WireStack* stack) {
  const WorkloadSpec& spec = workload.spec();
  RemoveSpill(spill_path);
  const std::int64_t t0 = NowNs();
  stack->ctx = core::MapContext::Create(workload.net());
  const std::int64_t t1 = NowNs();
  stack->server = std::make_unique<server::AnonymizationServer>(
      core::Anonymizer(stack->ctx, workload.occupancy()),
      server::ServerOptions{});
  server::SessionPoolOptions pool_options;
  pool_options.memory_budget_bytes = spec.memory_budget_bytes;
  stack->pool = std::make_unique<server::ContinuousSessionPool>(*stack->server,
                                                                pool_options);
  if (spec.memory_budget_bytes > 0) {
    RCLOAK_RETURN_IF_ERROR(stack->pool->AttachSpillFile(spill_path));
  }
  net::NetServerOptions front_options;
  front_options.profile = Workload::Profile();
  front_options.auth_secret = Workload::AuthSecret();
  stack->front = std::make_unique<net::NetServer>(*stack->pool, front_options);
  RCLOAK_RETURN_IF_ERROR(stack->front->Start());
  const std::int64_t t2 = NowNs();
  stack->gen = std::make_unique<Generator>(workload);
  RCLOAK_RETURN_IF_ERROR(stack->gen->Connect(stack->front->port(),
                                             stack->front->map_fingerprint()));
  RCLOAK_RETURN_IF_ERROR(stack->gen->FirstSighting());
  const std::int64_t t3 = NowNs();
  return SetupTimes{static_cast<double>(t1 - t0) / 1e9,
                    static_cast<double>(t2 - t1) / 1e9,
                    static_cast<double>(t3 - t2) / 1e9,
                    static_cast<double>(t3 - t0) / 1e9};
}

// Layer counters read from the live stack at the end of the timed phases.
std::vector<Metric> CounterMetrics(const WireStack& stack) {
  const net::NetServerStats net = stack.front->stats();
  const server::SessionPoolStats pool = stack.pool->stats();
  const server::ServerStats server = stack.server->stats();
  store::SpillFileStats spill;
  if (stack.pool->spill_files() != nullptr) {
    spill = stack.pool->spill_files()->stats();
  }
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const double updates = u(net.updates_decoded);
  return {
      {"net.cache_hit_ratio",
       Ratio(u(net.artifact_cache_hits),
             u(net.artifact_cache_hits + net.artifact_cache_misses)),
       "ratio"},
      {"net.batch_mean", Ratio(updates, u(net.batches)), "updates"},
      {"net.bytes_in_per_update", Ratio(u(net.bytes_in), updates), "B"},
      {"net.bytes_out_per_update", Ratio(u(net.bytes_out), updates), "B"},
      {"net.reads_paused", u(net.reads_paused), "count"},
      {"net.reduce_in_tick", u(net.reduce_in_tick), "count"},
      {"pool.in_region_ratio", Ratio(u(pool.served_in_region), u(pool.updates)),
       "ratio"},
      {"pool.recloak_ratio", Ratio(u(pool.recloaks), u(pool.updates)), "ratio"},
      {"pool.latency_samples", u(pool.update_latency_ms.count()), "count"},
      {"pool.restored_on_miss", u(pool.restored_on_miss), "count"},
      {"pool.budget_spilled", u(pool.budget_spilled), "count"},
      {"pool.sweeps", u(pool.sweeps), "count"},
      {"pool.restore_failures", u(pool.restore_failures), "count"},
      {"pool.restore_p99_us", Percentile(pool.restore_latency_ms, 99) * 1e3,
       "us"},
      {"pool.memory_mb", u(pool.memory_bytes) / 1e6, "MB"},
      {"pool.write_stalls", u(pool.write_stalls), "count"},
      {"pool.reduce_fanouts", u(pool.reduce_fanouts), "count"},
      {"server.steals", u(server.steals), "count"},
      {"server.fanout_tasks", u(server.fanout_tasks), "count"},
      {"server.rejected_queue_full", u(server.rejected_queue_full), "count"},
      {"store.appends", u(spill.appended_records), "count"},
      {"store.append_mb", u(spill.appended_bytes) / 1e6, "MB"},
      {"store.compactions", u(spill.compactions), "count"},
      {"store.dead_ratio", Ratio(u(spill.dead_bytes), u(spill.file_bytes)),
       "ratio"},
      {"store.file_mb", u(spill.file_bytes) / 1e6, "MB"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rcbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scratch <dir>]\n");
    return 2;
  }
  auto made = Workload::Make(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& workload = **made;
  const WorkloadSpec& spec = workload.spec();
  const int nproc = CpuCount();
  // Run validity: one generator thread plus its connections must fit the
  // machine, or the generator competes with the server it measures.
  if (spec.total_connections() > nproc) {
    std::fprintf(stderr,
                 "run invalid: %d connections need at least %d cpus, have "
                 "%d\n",
                 spec.total_connections(), spec.total_connections(), nproc);
    return 3;
  }
  std::filesystem::create_directories(args.scratch);
  const std::string spill_path = args.scratch + "/wire.spill";

  // ---- set-up: the first stack serves the timed phases; the repetitions
  // that time set-up again run after them, so their garbage never reaches
  // the memory figure ---------------------------------------------------
  std::vector<SetupTimes> setups;
  const auto set_up = [&](WireStack* stack) {
    auto times = Setup(workload, spill_path, stack);
    if (!times.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   times.status().ToString().c_str());
      return false;
    }
    setups.push_back(*times);
    return true;
  };
  auto stack = std::make_unique<WireStack>();
  if (!set_up(stack.get())) return 1;

  // ---- timed phases ------------------------------------------------------
  Generator& gen = *stack->gen;
  gen.OpenLoop(args.seconds / 2);
  gen.Drain(kDrainTimeoutS);
  // Memory is read after the open loop, whose work is fixed by the seed
  // (rate x duration), not after saturation, whose work varies with speed.
  // Freed heap (earlier set-up repetitions) goes back to the kernel first,
  // so the figure is the live footprint rather than allocator slack.
  malloc_trim(0);
  const double rss_mb = ReadRssMb();
  gen.Saturate(args.seconds / 2);
  gen.Drain(kDrainTimeoutS);
  // Wire cost per update over the whole life of the stack (handshakes,
  // first sighting and both timed phases), REDUCE traffic included.
  const net::NetServerStats wire = stack->front->stats();
  const double wire_bytes_per_upd =
      Ratio(static_cast<double>(wire.bytes_in + wire.bytes_out),
            static_cast<double>(wire.updates_decoded));
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = CounterMetrics(*stack);
    std::printf("pool: %zu sessions resident at the end of the timed phases\n",
                stack->pool->session_count());
  }
  const SentLog sent{gen.timed_sent(), gen.open_loop_items()};
  const WireSaturation saturation{gen.saturation_seconds(),
                                  gen.saturation_completed()};
  std::unique_ptr<Generator> generator = std::move(stack->gen);
  generator->Close();
  stack.reset();
  for (int rep = 1; rep < kSetupReps; ++rep) {
    WireStack again;
    if (!set_up(&again)) return 1;
  }
  RemoveSpill(spill_path);

  // ---- run validity --------------------------------------------------------
  const double lateness_p99 = Percentile(generator->lateness_ms(), 99);
  const bool behind = lateness_p99 > kMaxLatenessP99Ms;
  std::printf(
      "run: workload=%s seed=%llu nproc=%d loadavg_1m=%.2f generator_threads=1 "
      "connections=%d lateness_p99_ms=%.4f valid=%s\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed), nproc,
      ReadLoadAverage(), spec.total_connections(), lateness_p99,
      behind ? "no" : "yes");
  if (behind) {
    std::fprintf(stderr, "run invalid: the generator fell behind schedule\n");
    return 3;
  }

  // ---- correctness gate ---------------------------------------------------
  const TwinResult twin = RunTwin(workload, sent, generator->tracks(),
                                  generator->reduce_checks());
  std::uint64_t failed = generator->failed() + twin.twin_failures +
                         twin.mismatched_users + twin.reduce_mismatches;
  if (!generator->fatal().ok()) {
    ++failed;
    std::fprintf(stderr, "wire error: %s\n",
                 generator->fatal().ToString().c_str());
  }
  if (!generator->first_failure().empty()) {
    std::fprintf(stderr, "first failure: %s\n",
                 generator->first_failure().c_str());
  }
  std::printf(
      "open loop: %llu updates offered at %.0f/s, %zu timed replies, %zu "
      "reduce replies\n",
      static_cast<unsigned long long>(sent.open_loop_items),
      spec.open_loop_rate, generator->update_latency_ms().count(),
      generator->reduce_latency_ms().count());
  std::printf("saturation: %llu updates in %.3f s\n",
              static_cast<unsigned long long>(saturation.completed),
              saturation.seconds);
  std::printf(
      "twin: %llu updates replayed, %llu users mismatched, %llu/%llu level-1 "
      "reduces mismatched, %llu twin failures\n",
      static_cast<unsigned long long>(twin.replayed),
      static_cast<unsigned long long>(twin.mismatched_users),
      static_cast<unsigned long long>(twin.reduce_mismatches),
      static_cast<unsigned long long>(twin.reduce_checked),
      static_cast<unsigned long long>(twin.twin_failures));

  // ---- metrics -------------------------------------------------------------
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& times : setups) values.push_back(times.*field);
    return Median(values);
  };
  // Saturation throughput, and client-side latency of the open-loop phase
  // (each the median over 0.5 s windows of the window's percentile). On a
  // shared 4-vCPU host these timings spread too far from run to run to
  // carry a regression bound (see README.md), so they are printed here and
  // reported by the traced run, not gated.
  const std::vector<Metric> timings = {
      {"gen.peak_upd_per_s", generator->saturation_rate(), "upd/s"},
      {"gen.upd_p50_ms", generator->update_latency_ms().MedianOfPercentile(50),
       "ms"},
      {"gen.upd_p99_ms", generator->update_latency_ms().MedianOfPercentile(99),
       "ms"},
      {"gen.reduce_p50_ms",
       generator->reduce_latency_ms().MedianOfPercentile(50), "ms"},
      {"gen.reduce_p99_ms",
       generator->reduce_latency_ms().MedianOfPercentile(99), "ms"},
  };
  if (args.trace) {
    const std::string spans_path =
        args.scratch + "/spans-" + spec.name + ".tsv";
    failed += TraceLayers(workload, sent, saturation, args.scratch, spans_path,
                          &metrics);
    metrics.push_back({"setup.map_context_s",
                       median_of(&SetupTimes::map_context_s), "s"});
    metrics.push_back({"setup.server_start_s",
                       median_of(&SetupTimes::server_start_s), "s"});
    metrics.push_back({"setup.first_sighting_s",
                       median_of(&SetupTimes::first_sighting_s), "s"});
    metrics.push_back({"gen.lateness_p99_ms", lateness_p99, "ms"});
    metrics.insert(metrics.end(), timings.begin(), timings.end());
    std::printf("spans: %s\n", spans_path.c_str());
  } else {
    metrics = {
        {"setup_s", median_of(&SetupTimes::total_s), "s"},
        {"rss_mb", rss_mb, "MB"},
        {"wire_bytes_per_upd", wire_bytes_per_upd, "B"},
    };
  }
  if (!args.trace) {
    for (const Metric& metric : timings) {
      std::printf("%-28s %14.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (const Metric& metric : metrics) {
    std::printf("%-28s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(generator->attempted());
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}
