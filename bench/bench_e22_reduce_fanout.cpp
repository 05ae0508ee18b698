// E22 — Reduce fan-out: serial Deanonymizer::ReduceBatch on the calling
// thread vs AnonymizationServer::ReduceOnWorkers (per-worker ReduceSession
// reuse, stealable fan-out lanes, the caller as an extra lane), swept over
// batch size and worker count: a data requester reducing many granted
// artifacts to one level at once. (The session pool does not reduce: it
// takes its validity regions from the anonymizer.)
//
// Every fanned region is byte-compared against its serial twin; any
// mismatch exits nonzero (CI smoke relies on the hard exit code).
//
// Usage: bench_e22 [workers...] [--batches a,b,c] [--artifacts N]
//   (defaults: workers 1 2 4; batches 16,64,256,1024; 64 distinct
//    artifacts cycled to fill a batch)
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "bench/common.h"
#include "bench/json_report.h"
#include "server/anonymization_server.h"

using namespace rcloak;
using namespace rcloak::bench;

int main(int argc, char** argv) {
  std::vector<int> worker_counts;
  std::vector<std::size_t> batch_sizes{16, 64, 256, 1024};
  std::size_t num_artifacts = 64;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--batches") == 0 && a + 1 < argc) {
      batch_sizes.clear();
      std::stringstream list(argv[++a]);
      std::string item;
      while (std::getline(list, item, ',')) {
        const int size = std::atoi(item.c_str());
        if (size > 0) batch_sizes.push_back(static_cast<std::size_t>(size));
      }
    } else if (std::strcmp(argv[a], "--artifacts") == 0 && a + 1 < argc) {
      const int n = std::atoi(argv[++a]);
      if (n > 0) num_artifacts = static_cast<std::size_t>(n);
    } else {
      const int workers = std::atoi(argv[a]);
      if (workers > 0) worker_counts.push_back(workers);
    }
  }
  if (worker_counts.empty()) worker_counts = {1, 2, 4};

  PrintHeader("E22: validity-region reduce fan-out",
              "Serial ReduceBatch on the caller vs ReduceOnWorkers (worker "
              "lanes + caller lane), RGE artifacts reduced to the validity "
              "level, swept over batch size and worker count. Fanned "
              "regions byte-checked against serial.");

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

  std::uint64_t mismatches = 0;
  TableWriter table({"workers", "batch", "serial_ms", "fanned_ms",
                     "speedup", "regions_equal"});
  JsonReport report("e22");
  report.MetaInt("artifacts", static_cast<long long>(num_artifacts));
  for (const int workers : worker_counts) {
    core::Anonymizer engine(ctx, occupancy);
    server::ServerOptions server_options;
    server_options.num_workers = workers;
    server_options.max_queue = 1 << 16;
    server::AnonymizationServer server(std::move(engine), server_options);

    // Distinct artifacts (one per origin/context), cut once through the
    // server, then cycled to fill each reduce batch.
    std::vector<server::AnonymizationServer::BatchJob> cloak_jobs;
    std::vector<crypto::KeyChain> chains;
    for (std::size_t i = 0; i < num_artifacts; ++i) {
      core::AnonymizeRequest request;
      request.origin = roadnet::SegmentId{static_cast<std::uint32_t>(
          (i * 97) % net.segment_count())};
      request.profile = core::PrivacyProfile({{8, 3, 1e9}, {25, 8, 1e9}});
      request.algorithm = core::Algorithm::kRge;
      request.context = "e22/" + std::to_string(i);
      chains.push_back(
          crypto::KeyChain::FromSeed(90000 + static_cast<std::uint64_t>(i),
                                     2));
      cloak_jobs.push_back({std::move(request), chains.back()});
    }
    auto futures = server.SubmitBatch(std::move(cloak_jobs));
    std::vector<core::CloakedArtifact> artifacts;
    for (auto& submitted : futures) {
      if (!submitted.ok()) return 1;
      auto result = submitted->get();
      if (!result.ok()) {
        std::fprintf(stderr, "cloak failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      artifacts.push_back(std::move(result->artifact));
    }
    // Grant the outer level only: reduce to level 1.
    std::vector<std::map<int, crypto::AccessKey>> granted(num_artifacts);
    for (std::size_t i = 0; i < num_artifacts; ++i) {
      granted[i].emplace(2, chains[i].LevelKey(2));
    }
    const core::Deanonymizer deanonymizer(ctx);

    for (const std::size_t batch : batch_sizes) {
      std::vector<core::Deanonymizer::ReduceJob> jobs;
      jobs.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        const std::size_t k = i % num_artifacts;
        jobs.push_back({&artifacts[k], &granted[k], /*target_level=*/1});
      }
      Stopwatch serial_timer;
      const auto serial = deanonymizer.ReduceBatch(jobs);
      const double serial_ms = serial_timer.ElapsedMillis();
      Stopwatch fanned_timer;
      const auto fanned = server.ReduceOnWorkers(deanonymizer, jobs);
      const double fanned_ms = fanned_timer.ElapsedMillis();

      bool equal = serial.size() == fanned.size();
      for (std::size_t i = 0; equal && i < serial.size(); ++i) {
        equal = serial[i].ok() && fanned[i].ok() &&
                serial[i]->segments_by_id() == fanned[i]->segments_by_id();
      }
      if (!equal) ++mismatches;
      table.AddRow({TableWriter::Int(workers),
                    TableWriter::Int(static_cast<long long>(batch)),
                    TableWriter::Fixed(serial_ms, 3),
                    TableWriter::Fixed(fanned_ms, 3),
                    TableWriter::Fixed(
                        fanned_ms > 0 ? serial_ms / fanned_ms : 0.0, 2),
                    equal ? "yes" : "NO"});
      report.AddRow()
          .Int("workers", workers)
          .Int("batch", static_cast<long long>(batch))
          .Num("serial_ms", serial_ms)
          .Num("fanned_ms", fanned_ms)
          .Num("speedup", fanned_ms > 0 ? serial_ms / fanned_ms : 0.0)
          .Bool("regions_equal", equal);
    }
  }
  table.PrintMarkdown(std::cout);
  if (!report.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_e22.json\n");
    return 1;
  }
  if (mismatches > 0) {
    std::cout << "\n" << mismatches << " batches MISMATCHED serial reduce\n";
    return 2;
  }
  return 0;
}
