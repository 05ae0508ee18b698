// E18 — Anonymization-server throughput vs. worker count (one shared job
// queue, per-worker sessions over one shared MapContext). Expectation:
// scaling with worker count up to core count for the CPU-bound RGE
// workload. Three submission paths are swept: per-request Submit,
// SubmitBatch (futures) and RunBatch (one blocking call, the session
// pool's path).
//
// Usage: bench_e18 [workers...]   (default sweep: 1 2 4 8)
#include <cstdlib>
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

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("E18: server throughput vs workers",
              "400 requests (delta_k=40, RGE) through the worker-pool "
              "server on the atlanta workload; wall time and "
              "requests/s for per-request Submit, SubmitBatch and "
              "RunBatch.");

  std::vector<int> worker_counts;
  for (int a = 1; a < argc; ++a) {
    const int workers = std::atoi(argv[a]);
    if (workers > 0) worker_counts.push_back(workers);
  }
  if (worker_counts.empty()) worker_counts = {1, 2, 4, 8};

  Workload workload = MakeAtlantaWorkload(/*num_origins=*/40);
  // One immutable context shared by every server below (and its workers).
  const auto ctx = core::MapContext::Create(workload.net);

  constexpr int kJobs = 400;
  TableWriter table({"workers", "mode", "wall_ms", "req_per_s",
                     "mean_latency_ms", "p95_latency_ms", "ok"});
  JsonReport report("e18");
  report.MetaInt("jobs", kJobs);
  report.Meta("workload", "atlanta");
  for (const int workers : worker_counts) {
    for (const char* mode : {"submit", "batch", "run_batch"}) {
      core::Anonymizer engine(ctx, workload.occupancy);
      server::ServerOptions options;
      options.num_workers = workers;
      options.max_queue = 4096;
      server::AnonymizationServer server(std::move(engine), options);
      const std::string_view path = mode;

      std::vector<server::AnonymizationServer::ResultFuture> futures;
      futures.reserve(kJobs);
      int ok = 0;
      Stopwatch wall;
      if (path == "submit") {
        for (int i = 0; i < kJobs; ++i) {
          auto submitted = server.Submit(
              MakeRequest(workload, workers, i, mode), MakeKeys(i));
          if (submitted.ok()) futures.push_back(std::move(*submitted));
        }
      } else {
        std::vector<server::AnonymizationServer::BatchJob> jobs;
        jobs.reserve(kJobs);
        for (int i = 0; i < kJobs; ++i) {
          jobs.push_back(
              {MakeRequest(workload, workers, i, mode), MakeKeys(i)});
        }
        if (path == "batch") {
          for (auto& submitted : server.SubmitBatch(std::move(jobs))) {
            if (submitted.ok()) futures.push_back(std::move(*submitted));
          }
        } else {
          for (const auto& result : server.RunBatch(std::move(jobs))) {
            if (result.ok()) ++ok;
          }
        }
      }
      server.Drain();
      const double wall_ms = wall.ElapsedMillis();
      for (auto& f : futures) {
        if (f.get().ok()) ++ok;
      }
      const auto stats = server.stats();
      table.AddRow({TableWriter::Int(workers), mode,
                    TableWriter::Fixed(wall_ms, 1),
                    TableWriter::Fixed(kJobs / (wall_ms / 1000.0), 0),
                    TableWriter::Fixed(stats.mean_latency_ms, 3),
                    TableWriter::Fixed(stats.p95_latency_ms, 3),
                    TableWriter::Int(ok) + "/" + TableWriter::Int(kJobs)});
      report.AddRow()
          .Int("workers", workers)
          .Str("mode", mode)
          .Num("wall_ms", wall_ms)
          .Num("req_per_s", kJobs / (wall_ms / 1000.0))
          .Num("mean_latency_ms", stats.mean_latency_ms)
          .Num("p95_latency_ms", stats.p95_latency_ms)
          .Int("ok", ok);
    }
  }
  table.PrintMarkdown(std::cout);
  if (!report.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_e18.json\n");
    return 1;
  }
  return 0;
}
