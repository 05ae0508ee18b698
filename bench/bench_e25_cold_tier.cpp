// E25 — Cold tier under memory pressure: a zipfian million-user churn
// driven through a ContinuousSessionPool whose resident set is capped by
// memory_budget_bytes at a fraction of the fleet. The clock/second-chance
// sweep batch-spills cold sessions to the append-only spill file from the
// update path; an update for a spilled user restores transparently inside
// the same UpdateBatch (restore-on-miss). Reported: resident-set bytes vs
// budget, restore-on-miss p50/p95/p99, spill + compaction throughput, and
// the interner/index/file accounting.
//
// The budget is calibrated, not guessed: the hottest `--budget-sessions`
// users are tracked and cloaked first, the pool's own accounting is read
// back, and the budget is set just above it (plus a per-user allowance for
// the cold-side structures — interner names, spill index — that grow with
// every user ever seen). Ticks then draw `--updates-per-tick` users from a
// Zipf(s=1) popularity ranking: the hot head stays resident via its
// referenced bits, the tail churns through the spill file and back.
//
// --verify runs an unbudgeted twin pool through the identical track/update
// sequence and byte-compares every served artifact (EncodeArtifact) against
// it. Any mismatch — or any NotFound from the budgeted pool, i.e. a
// restore-on-miss that failed to be transparent — exits 2 (CI smoke relies
// on the hard exit). A tick whose post-sweep accounting stays above budget
// is a budget violation and also fails the run.
//
// Update-path latency is timed bench-side around each UpdateBatch call
// (the pool's own update_latency_ms covers only the classify/re-cloak
// round, NOT the sweep where spill writes and compactions happen), one
// tick-amortized per-update sample per tick.
//
// Usage: bench_e25 [fleet_size] [workers] [flags]
//   --budget-sessions N   resident calibration set (default fleet/10)
//   --ticks N             churn ticks after calibration (default 40)
//   --updates-per-tick N  zipfian draws per tick (default fleet/5)
//   --spill PATH          spill file (default bench_e25.spill, recreated)
//   --verify              twin-pool byte verification (hard exit on loss)
//
// Headline configuration (docs/PERFORMANCE.md):
//   bench_e25 1000000 2 --budget-sessions 100000 --updates-per-tick 150000
//             --ticks 30 --verify
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/common.h"
#include "bench/json_report.h"
#include "core/artifact.h"
#include "server/continuous_session_pool.h"

using namespace rcloak;
using namespace rcloak::bench;

namespace {

core::ContinuousCloak::KeyProvider KeysForUser(std::string_view user) {
  // Names are "u<index>"; the schedule must be a pure function of the name
  // so the budgeted pool (restoring via this factory) and the oracle twin
  // (tracking once) derive identical keys.
  const std::uint64_t index =
      static_cast<std::uint64_t>(std::atoll(std::string(user.substr(1)).c_str()));
  return [index](std::uint64_t epoch) {
    return crypto::KeyChain::FromSeed(50000 + index * 1000 + epoch, 2);
  };
}

struct ZipfSampler {
  std::vector<double> cumulative;
  double total = 0.0;

  explicit ZipfSampler(std::uint32_t n) {
    cumulative.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cumulative[i] = total;
    }
  }
  std::uint32_t Draw(Xoshiro256& rng) const {
    const double u = rng.NextDouble() * total;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), u);
    return static_cast<std::uint32_t>(it - cumulative.begin());
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t fleet_size = 20000;
  int workers = 2;
  std::uint32_t budget_sessions = 0;
  std::uint32_t updates_per_tick = 0;
  int ticks = 40;
  bool verify = false;
  std::string spill_path = "bench_e25.spill";
  int positional = 0;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[a], "--budget-sessions") == 0 &&
               a + 1 < argc) {
      budget_sessions = static_cast<std::uint32_t>(
          std::max(1, std::atoi(argv[++a])));
    } else if (std::strcmp(argv[a], "--updates-per-tick") == 0 &&
               a + 1 < argc) {
      updates_per_tick = static_cast<std::uint32_t>(
          std::max(1, std::atoi(argv[++a])));
    } else if (std::strcmp(argv[a], "--ticks") == 0 && a + 1 < argc) {
      ticks = std::max(1, std::atoi(argv[++a]));
    } else if (std::strcmp(argv[a], "--spill") == 0 && a + 1 < argc) {
      spill_path = argv[++a];
    } else if (positional == 0) {
      const int fleet = std::atoi(argv[a]);
      if (fleet > 0) fleet_size = static_cast<std::uint32_t>(fleet);
      ++positional;
    } else {
      const int w = std::atoi(argv[a]);
      if (w > 0) workers = w;
      ++positional;
    }
  }
  if (budget_sessions == 0) budget_sessions = std::max(1u, fleet_size / 10);
  if (budget_sessions > fleet_size) budget_sessions = fleet_size;
  if (updates_per_tick == 0) updates_per_tick = std::max(1u, fleet_size / 5);

  PrintHeader(
      "E25: cold tier under memory pressure",
      std::to_string(fleet_size) + " users, zipfian churn, ~" +
          std::to_string(budget_sessions) +
          " resident under the calibrated budget; clock sweep spills to " +
          spill_path + ", updates for spilled users restore on miss" +
          (verify ? "; every artifact byte-compared to an unbudgeted twin"
                  : "") +
          ".");

  const auto net = [] {
    roadnet::PerturbedGridOptions options;
    options.rows = 30;
    options.cols = 30;
    options.seed = 5;
    return roadnet::MakePerturbedGrid(options);
  }();
  const auto ctx = core::MapContext::Create(net);
  mobility::OccupancySnapshot occupancy(net.segment_count());
  for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
    occupancy.Add(roadnet::SegmentId{i});
  }

  server::ServerOptions server_options;
  server_options.num_workers = workers;
  server_options.max_queue = 1 << 18;

  // The budgeted pool: spill file + key factory (so budget spills park
  // nothing and restores re-derive the schedule, the cross-run shape).
  core::Anonymizer cold_engine(ctx, occupancy);
  server::AnonymizationServer cold_server(std::move(cold_engine),
                                          server_options);
  server::SessionPoolOptions cold_options;
  cold_options.key_provider_factory = KeysForUser;
  // Restored-then-respilled records go dead fast under zipfian churn but
  // hover just under the default 50% threshold; compact a little earlier
  // so the run exercises the compaction + generation-retirement path.
  cold_options.spill_compact_dead_fraction = 0.35;
  server::ContinuousSessionPool pool(cold_server, cold_options);
  const auto remove_spill_files = [&] {
    std::remove(spill_path.c_str());
    std::remove((spill_path + ".tmp").c_str());
  };
  remove_spill_files();
  if (const auto attached = pool.AttachSpillFile(spill_path);
      !attached.ok()) {
    std::fprintf(stderr, "attach failed: %s\n",
                 attached.ToString().c_str());
    return 1;
  }

  // The oracle twin: no budget, no spill file, same everything else.
  core::Anonymizer oracle_engine(ctx, occupancy);
  server::AnonymizationServer oracle_server(std::move(oracle_engine),
                                            server_options);
  std::unique_ptr<server::ContinuousSessionPool> oracle;
  if (verify) {
    oracle = std::make_unique<server::ContinuousSessionPool>(oracle_server);
  }

  core::ContinuousOptions continuous;
  continuous.validity_level = 1;
  continuous.min_recloak_interval_s = 0.0;
  const core::PrivacyProfile profile({{8, 3, 1e9}, {25, 8, 1e9}});

  // Zipfian home segments over a shuffled ranking (like E20) and a
  // popularity ranking over users where index == rank (user 0 hottest, so
  // the calibration set IS the hot head).
  Xoshiro256 rng(777);
  const std::uint32_t segments = net.segment_count();
  std::vector<std::uint32_t> segment_rank(segments);
  for (std::uint32_t i = 0; i < segments; ++i) segment_rank[i] = i;
  for (std::uint32_t i = segments - 1; i > 0; --i) {
    std::swap(segment_rank[i], segment_rank[rng.NextBounded(i + 1)]);
  }
  const ZipfSampler segment_zipf(segments);
  const ZipfSampler user_zipf(fleet_size);
  std::vector<std::uint32_t> home(fleet_size);
  for (std::uint32_t u = 0; u < fleet_size; ++u) {
    home[u] = segment_rank[segment_zipf.Draw(rng)];
  }

  std::vector<util::UserId> cold_ids(fleet_size);
  std::vector<util::UserId> oracle_ids(fleet_size);
  std::vector<bool> tracked(fleet_size, false);
  std::uint64_t mismatches = 0;
  std::uint64_t not_found = 0;
  std::uint64_t budget_violations = 0;

  const auto track_user = [&](std::uint32_t u, double now_s) -> bool {
    const std::string name = "u" + std::to_string(u);
    const auto a = pool.Track(name, profile, core::Algorithm::kRge,
                              KeysForUser(name), continuous, now_s);
    if (!a.ok()) {
      std::fprintf(stderr, "track %s failed: %s\n", name.c_str(),
                   a.status().ToString().c_str());
      return false;
    }
    cold_ids[u] = *a;
    if (oracle) {
      const auto b = oracle->Track(name, profile, core::Algorithm::kRge,
                                   KeysForUser(name), continuous, now_s);
      if (!b.ok()) return false;
      oracle_ids[u] = *b;
    }
    tracked[u] = true;
    return true;
  };

  // ---- calibration: hot head resident, budget from the pool's own
  // accounting plus a per-user allowance for the cold-side structures ----
  std::vector<server::ContinuousSessionPool::IdPositionUpdate> batch;
  std::vector<server::ContinuousSessionPool::IdPositionUpdate> oracle_batch;
  std::vector<std::uint32_t> batch_user;
  for (std::uint32_t u = 0; u < budget_sessions; ++u) {
    if (!track_user(u, 0.0)) return 1;
    batch.push_back({cold_ids[u], 0.0, roadnet::SegmentId{home[u]}});
    if (oracle) {
      oracle_batch.push_back({oracle_ids[u], 0.0,
                              roadnet::SegmentId{home[u]}});
    }
  }
  (void)pool.UpdateBatch(batch);
  if (oracle) (void)oracle->UpdateBatch(oracle_batch);
  const std::size_t calibrated = pool.memory_bytes();
  const std::size_t budget =
      calibrated + calibrated / 10 +
      static_cast<std::size_t>(fleet_size) * 150;
  pool.set_memory_budget_bytes(budget);

  // ---- churn ----
  Stopwatch wall;
  std::uint64_t updates_sent = 0;
  // Tick-amortized update-path latency, timed around the whole UpdateBatch
  // call, sweep + spill writes + compaction included.
  Samples update_us;
  for (int t = 1; t <= ticks; ++t) {
    const double now_s = static_cast<double>(t);
    batch.clear();
    oracle_batch.clear();
    batch_user.clear();
    for (std::uint32_t d = 0; d < updates_per_tick; ++d) {
      const std::uint32_t u = user_zipf.Draw(rng);
      std::uint32_t segment = home[u];
      if (rng.NextBool(0.05)) {
        segment = (segment + 1 +
                   static_cast<std::uint32_t>(rng.NextBounded(3))) %
                  segments;
      }
      if (!tracked[u] && !track_user(u, now_s)) return 1;
      batch.push_back({cold_ids[u], now_s, roadnet::SegmentId{segment}});
      batch_user.push_back(u);
      if (oracle) {
        oracle_batch.push_back({oracle_ids[u], now_s,
                                roadnet::SegmentId{segment}});
      }
    }
    Stopwatch tick_timer;
    const auto results = pool.UpdateBatch(batch);
    if (!batch.empty()) {
      update_us.Add(tick_timer.ElapsedMicros() /
                    static_cast<double>(batch.size()));
    }
    updates_sent += batch.size();
    if (oracle) {
      const auto expected = oracle->UpdateBatch(oracle_batch);
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) {
          ++not_found;
          continue;
        }
        if (!expected[i].ok() ||
            core::EncodeArtifact(**results[i]) !=
                core::EncodeArtifact(**expected[i])) {
          ++mismatches;
        }
      }
    } else {
      for (const auto& result : results) {
        if (!result.ok()) ++not_found;
      }
    }
    if (pool.memory_bytes() > budget) ++budget_violations;
  }
  const double wall_s = wall.ElapsedMillis() / 1000.0;

  const auto stats = pool.stats();
  const auto spill_stats = pool.spill_files()->stats();
  const double spilled_per_s =
      wall_s > 0 ? static_cast<double>(stats.budget_spilled) / wall_s : 0.0;
  const double spill_mb_per_s =
      wall_s > 0
          ? static_cast<double>(spill_stats.appended_bytes) / (1e6 * wall_s)
          : 0.0;

  TableWriter table(
      {"fleet", "budget_mb", "resident", "mem_mb", "spilled", "restored",
       "update_p50_us", "update_p99_us", "restore_p50_us", "restore_p99_us",
       "updates_per_s", "spill_rec_per_s", "stalls", "compactions", "file_mb",
       "under_budget"});
  table.AddRow(
      {TableWriter::Int(static_cast<long long>(fleet_size)),
       TableWriter::Fixed(static_cast<double>(budget) / 1e6, 1),
       TableWriter::Int(static_cast<long long>(stats.active_sessions)),
       TableWriter::Fixed(static_cast<double>(stats.memory_bytes) / 1e6, 1),
       TableWriter::Int(static_cast<long long>(stats.budget_spilled)),
       TableWriter::Int(static_cast<long long>(stats.restored_on_miss)),
       TableWriter::Fixed(update_us.Percentile(50), 1),
       TableWriter::Fixed(update_us.Percentile(99), 1),
       TableWriter::Fixed(stats.restore_latency_ms.Percentile(50) * 1000.0,
                          1),
       TableWriter::Fixed(stats.restore_latency_ms.Percentile(99) * 1000.0,
                          1),
       TableWriter::Fixed(wall_s > 0 ? static_cast<double>(updates_sent) /
                                           wall_s
                                     : 0.0,
                          0),
       TableWriter::Fixed(spilled_per_s, 0),
       TableWriter::Int(static_cast<long long>(stats.write_stalls)),
       TableWriter::Int(static_cast<long long>(stats.spill_compactions)),
       TableWriter::Fixed(static_cast<double>(spill_stats.file_bytes) / 1e6,
                          1),
       budget_violations == 0 ? "yes" : "NO"});
  table.PrintMarkdown(std::cout);

  JsonReport report("e25");
  report.MetaInt("fleet", static_cast<long long>(fleet_size));
  report.MetaInt("workers", workers);
  report.MetaInt("budget_sessions", static_cast<long long>(budget_sessions));
  report.MetaInt("updates_per_tick",
                 static_cast<long long>(updates_per_tick));
  report.MetaInt("ticks", ticks);
  report.MetaBool("verify", verify);
  report.MetaInt("budget_bytes", static_cast<long long>(budget));
  report.AddRow()
      .Int("resident", static_cast<long long>(stats.active_sessions))
      .Int("memory_bytes", static_cast<long long>(stats.memory_bytes))
      .Int("interner_bytes", static_cast<long long>(stats.interner_bytes))
      .Int("budget_spilled", static_cast<long long>(stats.budget_spilled))
      .Int("restored_on_miss",
           static_cast<long long>(stats.restored_on_miss))
      .Int("restore_failures",
           static_cast<long long>(stats.restore_failures))
      .Int("sweeps", static_cast<long long>(stats.sweeps))
      .Int("compactions", static_cast<long long>(stats.spill_compactions))
      .Int("spill_file_bytes",
           static_cast<long long>(stats.spill_file_bytes))
      .Int("spill_dead_bytes",
           static_cast<long long>(stats.spill_dead_bytes))
      .Int("spill_live_records",
           static_cast<long long>(stats.spill_live_records))
      .Num("restore_p50_us", stats.restore_latency_ms.Percentile(50) * 1e3)
      .Num("restore_p95_us", stats.restore_latency_ms.Percentile(95) * 1e3)
      .Num("restore_p99_us", stats.restore_latency_ms.Percentile(99) * 1e3)
      .Num("update_p50_us", update_us.Percentile(50))
      .Num("update_p95_us", update_us.Percentile(95))
      .Num("update_p99_us", update_us.Percentile(99))
      .Num("updates_per_s",
           wall_s > 0 ? static_cast<double>(updates_sent) / wall_s : 0.0)
      .Num("spill_records_per_s", spilled_per_s)
      .Num("spill_mb_per_s", spill_mb_per_s)
      .Int("write_stalls", static_cast<long long>(stats.write_stalls))
      .Int("budget_violations", static_cast<long long>(budget_violations))
      .Int("mismatches", static_cast<long long>(mismatches))
      .Int("not_found", static_cast<long long>(not_found))
      .Bool("under_budget", budget_violations == 0);
  if (!report.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_e25.json\n");
    return 1;
  }
  remove_spill_files();

  std::cout << "\ncold tier: " << stats.budget_spilled << " spilled, "
            << stats.restored_on_miss << " restored on miss, "
            << stats.restore_failures << " restore failures, "
            << budget_violations << " budget violations";
  if (verify) {
    std::cout << ", " << mismatches << " artifact mismatches vs the twin";
  }
  std::cout << "\n";
  if (mismatches > 0 || not_found > 0 || budget_violations > 0 ||
      stats.restore_failures > 0) {
    std::fprintf(stderr, "E25 FAILED: transparency or budget broken\n");
    return 2;
  }
  return 0;
}
