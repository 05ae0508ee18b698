// E21 — Grid/Hilbert-cell backend vs RGE: anonymize / de-anonymize latency
// and region size across δk on the NW-Atlanta-scale workload.
//
// The grid backend trades per-step frontier work (RGE rebuilds a transition
// table per added segment) for whole-cell pulls along a torus cell walk, so
// its anonymize cost scales with cells added, not segments added. Region
// sizes are larger (cell granularity) — the cost of serving free-space
// users a road-constrained algorithm cannot.
#include "bench/common.h"

using namespace rcloak;
using namespace rcloak::bench;

int main(int argc, char** argv) {
  // Optional arg: origins per point (default 20; CI smoke passes fewer).
  const std::size_t num_origins =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 20;
  PrintHeader("E21: grid backend vs RGE",
              "Mean anonymize / full-reduce time (us) and region size "
              "(segments) per delta_k; " +
                  std::to_string(num_origins) + " origins per point.");

  Workload workload = MakeAtlantaWorkload(num_origins);
  const auto ctx = core::MapContext::Create(workload.net);
  core::Anonymizer anonymizer(ctx, workload.occupancy);
  core::Deanonymizer deanonymizer(ctx);
  if (const auto status = anonymizer.EnsureGridReady(); !status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  {
    const auto grid = ctx->GridFor();
    std::cout << "grid side " << (*grid)->side() << " ("
              << (*grid)->occupied_cells() << " of " << (*grid)->num_cells()
              << " cells occupied)\n";
  }

  TableWriter table({"delta_k", "RGE_anon_us", "Grid_anon_us",
                     "RGE_deanon_us", "Grid_deanon_us", "RGE_region",
                     "Grid_region", "Grid_cells", "verified"});
  int total_verified = 0, total_expected = 0;
  for (const std::uint32_t k : {5u, 10u, 20u, 40u, 80u}) {
    Samples rge_anon_us, grid_anon_us, rge_deanon_us, grid_deanon_us;
    Samples rge_region, grid_region, grid_cells;
    int verified = 0, attempts = 0;
    int request_id = 0;
    for (const auto origin : workload.origins) {
      const auto keys = crypto::KeyChain::FromSeed(2100 + request_id, 1);
      core::AnonymizeRequest request;
      request.origin = origin;
      request.profile = core::PrivacyProfile::SingleLevel({k, 3, 1e9});
      request.context =
          "e21/" + std::to_string(k) + "/" + std::to_string(request_id++);
      for (const auto algorithm :
           {core::Algorithm::kRge, core::Algorithm::kGrid}) {
        request.algorithm = algorithm;
        Stopwatch anon_timer;
        const auto result = anonymizer.Anonymize(request, keys);
        const double anon_elapsed = anon_timer.ElapsedMicros();
        if (!result.ok()) continue;
        ++attempts;
        Stopwatch deanon_timer;
        const auto reduced =
            deanonymizer.Reduce(result->artifact, AllKeys(keys), 0);
        const double deanon_elapsed = deanon_timer.ElapsedMicros();
        if (!reduced.ok()) continue;
        const bool is_grid = algorithm == core::Algorithm::kGrid;
        (is_grid ? grid_anon_us : rge_anon_us).Add(anon_elapsed);
        (is_grid ? grid_deanon_us : rge_deanon_us).Add(deanon_elapsed);
        (is_grid ? grid_region : rge_region)
            .Add(static_cast<double>(
                result->artifact.region_segments.size()));
        if (is_grid) {
          grid_cells.Add(
              static_cast<double>(result->grid_stats.cells_added + 1));
        }
        if (reduced->size() == 1 &&
            reduced->segments_by_id().front() == origin) {
          ++verified;
        }
      }
    }
    table.AddRow({TableWriter::Int(k),
                  TableWriter::Fixed(rge_anon_us.Mean(), 1),
                  TableWriter::Fixed(grid_anon_us.Mean(), 1),
                  TableWriter::Fixed(rge_deanon_us.Mean(), 1),
                  TableWriter::Fixed(grid_deanon_us.Mean(), 1),
                  TableWriter::Fixed(rge_region.Mean(), 1),
                  TableWriter::Fixed(grid_region.Mean(), 1),
                  TableWriter::Fixed(grid_cells.Mean(), 1),
                  TableWriter::Int(verified) + "/" +
                      TableWriter::Int(attempts)});
    total_verified += verified;
    // Every origin must anonymize AND reduce back for both algorithms on
    // this workload; the smoke in CI relies on the exit code.
    total_expected += static_cast<int>(workload.origins.size()) * 2;
  }
  table.PrintMarkdown(std::cout);
  if (total_verified != total_expected) {
    std::cerr << "E21 FAILED: " << total_verified << "/" << total_expected
              << " round trips verified\n";
    return 1;
  }
  return 0;
}
