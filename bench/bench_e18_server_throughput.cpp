// E18 — Anonymization-server throughput vs. worker count (one shared job
// queue, per-worker sessions over one shared MapContext). Expectation:
// scaling with worker count up to core count for the CPU-bound RGE
// workload. Three submission paths are swept: per-request Submit,
// SubmitBatch (futures) and RunBatch (one blocking call that streams
// finished prefixes, the session pool's path).
//
// Each worker count first times one 400-job RunBatch and scales the job
// count so one run lasts about 0.5 s; each mode then runs that many jobs
// kRepetitions times on a fresh server, and the table reports the median
// run (with the fastest and slowest wall times beside it). For RunBatch it
// also reports how often the caller woke for a finished prefix per round.
//
// Usage: bench_e18 [workers...]   (default sweep: 1 2 4 8)
#include <algorithm>
#include <cstdlib>
#include <span>
#include <string_view>

#include "bench/common.h"
#include "bench/json_report.h"
#include "server/anonymization_server.h"

using namespace rcloak;
using namespace rcloak::bench;

namespace {

core::AnonymizeRequest MakeRequest(const Workload& workload, int workers,
                                   int i, const char* mode) {
  core::AnonymizeRequest request;
  request.origin = workload.origins[static_cast<std::size_t>(i) %
                                    workload.origins.size()];
  request.profile = core::PrivacyProfile::SingleLevel({40, 3, 1e9});
  request.algorithm = core::Algorithm::kRge;
  request.context = std::string("e18/") + mode + "/" +
                    std::to_string(workers) + "/" + std::to_string(i);
  return request;
}

crypto::KeyChain MakeKeys(int i) {
  return crypto::KeyChain::FromSeed(13000 + static_cast<std::uint64_t>(i), 1);
}

// One timed run of `jobs` jobs through `mode` on a fresh server.
struct Run {
  double wall_ms = 0.0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  int ok = 0;
  int wakes = 0;  // RunBatch: prefixes reported after the first
};

Run TimeMode(const std::shared_ptr<const core::MapContext>& ctx,
             const Workload& workload, int workers, int jobs,
             std::string_view mode) {
  core::Anonymizer engine(ctx, workload.occupancy);
  server::ServerOptions options;
  options.num_workers = workers;
  // Submit and SubmitBatch fail fast past the queue's room.
  options.max_queue = static_cast<std::size_t>(jobs);
  server::AnonymizationServer server(std::move(engine), options);
  const std::string name(mode);

  Run run;
  std::vector<server::AnonymizationServer::ResultFuture> futures;
  futures.reserve(static_cast<std::size_t>(jobs));
  Stopwatch wall;
  if (mode == "submit") {
    for (int i = 0; i < jobs; ++i) {
      auto submitted = server.Submit(
          MakeRequest(workload, workers, i, name.c_str()), MakeKeys(i));
      if (submitted.ok()) futures.push_back(std::move(*submitted));
    }
  } else {
    std::vector<server::AnonymizationServer::BatchJob> batch;
    batch.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) {
      batch.push_back(
          {MakeRequest(workload, workers, i, name.c_str()), MakeKeys(i)});
    }
    if (mode == "batch") {
      for (auto& submitted : server.SubmitBatch(std::move(batch))) {
        if (submitted.ok()) futures.push_back(std::move(*submitted));
      }
    } else {
      int prefixes = 0;
      const auto results = server.RunBatch(
          std::move(batch),
          [&prefixes](std::size_t,
                      std::span<StatusOr<core::AnonymizeResult>>) {
            ++prefixes;
          });
      run.wakes = prefixes - 1;
      for (const auto& result : results) {
        if (result.ok()) ++run.ok;
      }
    }
  }
  server.Drain();
  run.wall_ms = wall.ElapsedMillis();
  for (auto& f : futures) {
    if (f.get().ok()) ++run.ok;
  }
  const auto stats = server.stats();
  run.mean_latency_ms = stats.mean_latency_ms;
  run.p95_latency_ms = stats.p95_latency_ms;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kCalibrationJobs = 400;
  constexpr double kTargetMs = 500.0;
  constexpr int kRepetitions = 5;
  PrintHeader("E18: server throughput vs workers",
              "RGE requests (delta_k=40) through the worker-pool server on "
              "the atlanta workload, about 0.5 s of jobs per run; median of "
              "5 runs per mode of wall time and requests/s for per-request "
              "Submit, SubmitBatch and RunBatch, and RunBatch's wakes per "
              "round.");

  std::vector<int> worker_counts;
  for (int a = 1; a < argc; ++a) {
    const int workers = std::atoi(argv[a]);
    if (workers > 0) worker_counts.push_back(workers);
  }
  if (worker_counts.empty()) worker_counts = {1, 2, 4, 8};

  Workload workload = MakeAtlantaWorkload(/*num_origins=*/40);
  // One immutable context shared by every server below (and its workers).
  const auto ctx = core::MapContext::Create(workload.net);

  TableWriter table({"workers", "mode", "jobs", "wall_ms", "wall_ms_min",
                     "wall_ms_max", "req_per_s", "mean_latency_ms",
                     "p95_latency_ms", "wakes_per_round", "ok"});
  JsonReport report("e18");
  report.MetaInt("repetitions", kRepetitions);
  report.Meta("workload", "atlanta");
  for (const int workers : worker_counts) {
    // The faster of two timings: the first also warms the process up.
    double calibration_ms = 0.0;
    for (int r = 0; r < 2; ++r) {
      const double ms =
          TimeMode(ctx, workload, workers, kCalibrationJobs, "run_batch")
              .wall_ms;
      calibration_ms = r == 0 ? ms : std::min(calibration_ms, ms);
    }
    const int jobs = std::max(
        kCalibrationJobs,
        static_cast<int>(kCalibrationJobs * kTargetMs /
                         std::max(calibration_ms, 1e-3)));
    for (const std::string_view mode : {"submit", "batch", "run_batch"}) {
      std::vector<Run> runs;
      for (int r = 0; r < kRepetitions; ++r) {
        runs.push_back(TimeMode(ctx, workload, workers, jobs, mode));
      }
      std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
        return a.wall_ms < b.wall_ms;
      });
      const Run& median = runs[runs.size() / 2];
      const double req_per_s = jobs / (median.wall_ms / 1000.0);
      const bool streams = mode == "run_batch";
      table.AddRow({TableWriter::Int(workers), std::string(mode),
                    TableWriter::Int(jobs),
                    TableWriter::Fixed(median.wall_ms, 1),
                    TableWriter::Fixed(runs.front().wall_ms, 1),
                    TableWriter::Fixed(runs.back().wall_ms, 1),
                    TableWriter::Fixed(req_per_s, 0),
                    TableWriter::Fixed(median.mean_latency_ms, 3),
                    TableWriter::Fixed(median.p95_latency_ms, 3),
                    streams ? TableWriter::Int(median.wakes) : "-",
                    TableWriter::Int(median.ok) + "/" +
                        TableWriter::Int(jobs)});
      report.AddRow()
          .Int("workers", workers)
          .Str("mode", std::string(mode))
          .Int("jobs", jobs)
          .Num("wall_ms", median.wall_ms)
          .Num("wall_ms_min", runs.front().wall_ms)
          .Num("wall_ms_max", runs.back().wall_ms)
          .Num("req_per_s", req_per_s)
          .Num("mean_latency_ms", median.mean_latency_ms)
          .Num("p95_latency_ms", median.p95_latency_ms)
          .Int("wakes_per_round", streams ? median.wakes : 0)
          .Int("ok", median.ok);
    }
  }
  table.PrintMarkdown(std::cout);
  if (!report.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_e18.json\n");
    return 1;
  }
  return 0;
}
