// E1 — Anonymization time vs. δk (RGE vs RPLE vs non-reversible baseline).
// Paper expectation: RPLE cloaking is faster than RGE (no per-step table
// rebuild); both reversible schemes cost more than the keyless baseline.
#include "bench/common.h"

using namespace rcloak;
using namespace rcloak::bench;

int main() {
  PrintHeader("E1: anonymization time vs delta_k",
              "Mean per-request anonymization time (us) on the "
              "NW-Atlanta-scale map, 10k cars, 20 origins per point.");

  Workload workload = MakeAtlantaWorkload();
  core::Anonymizer anonymizer(workload.net, workload.occupancy);
  // Pre-assign once, outside the timed region (E6 measures it).
  if (const auto status = anonymizer.EnsurePreassigned(); !status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }

  TableWriter table({"delta_k", "RGE_us", "RPLE_us", "RandomExpand_us",
                     "GridCloak_us", "RGE_fail", "RPLE_fail"});
  for (const std::uint32_t k : {5u, 10u, 20u, 40u, 80u}) {
    Samples rge_us, rple_us, base_us, grid_us;
    int rge_fail = 0, rple_fail = 0;
    const core::LevelRequirement requirement{k, 3, 1e9};
    int request_id = 0;
    for (const auto origin : workload.origins) {
      const auto keys = crypto::KeyChain::FromSeed(900 + request_id, 1);
      core::AnonymizeRequest request;
      request.origin = origin;
      request.profile = core::PrivacyProfile::SingleLevel(requirement);
      request.context = "e1/" + std::to_string(k) + "/" +
                        std::to_string(request_id++);

      request.algorithm = core::Algorithm::kRge;
      {
        Stopwatch timer;
        const auto result = anonymizer.Anonymize(request, keys);
        if (result.ok()) {
          rge_us.Add(timer.ElapsedMicros());
        } else {
          ++rge_fail;
        }
      }
      request.algorithm = core::Algorithm::kRple;
      {
        Stopwatch timer;
        const auto result = anonymizer.Anonymize(request, keys);
        if (result.ok()) {
          rple_us.Add(timer.ElapsedMicros());
        } else {
          ++rple_fail;
        }
      }
      {
        Stopwatch timer;
        const auto region = baseline::RandomExpandCloak(
            workload.net, workload.occupancy, origin, requirement,
            static_cast<std::uint64_t>(request_id));
        if (region.ok()) base_us.Add(timer.ElapsedMicros());
      }
      {
        Stopwatch timer;
        const auto region = baseline::GridCloak(
            workload.net, workload.occupancy, origin, requirement);
        if (region.ok()) grid_us.Add(timer.ElapsedMicros());
      }
    }
    table.AddRow({TableWriter::Int(k), TableWriter::Fixed(rge_us.Mean(), 1),
                  TableWriter::Fixed(rple_us.Mean(), 1),
                  TableWriter::Fixed(base_us.Mean(), 1),
                  TableWriter::Fixed(grid_us.Mean(), 1),
                  TableWriter::Int(rge_fail), TableWriter::Int(rple_fail)});
  }
  table.PrintMarkdown(std::cout);
  return 0;
}
