// E2 — De-anonymization time vs. δk (full reversal L^1 -> L0).
// Paper expectation: de-anonymization is of the same order as
// anonymization; RPLE reversal is cheaper than RGE's (table replay vs
// frontier rebuild per step).
#include "bench/common.h"

using namespace rcloak;
using namespace rcloak::bench;

int main() {
  PrintHeader("E2: de-anonymization time vs delta_k",
              "Mean time (us) to reduce the cloaked region back to the "
              "exact segment (all keys granted); 20 origins per point.");

  Workload workload = MakeAtlantaWorkload();
  // Both sides share one MapContext: the index and the RPLE tables are
  // built exactly once (the old per-side lazy rebuild belongs to E6, not
  // to per-request latency).
  const auto ctx = core::MapContext::Create(workload.net);
  core::Anonymizer anonymizer(ctx, workload.occupancy);
  core::Deanonymizer deanonymizer(ctx);
  if (const auto status = anonymizer.EnsurePreassigned(); !status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }

  TableWriter table(
      {"delta_k", "RGE_deanon_us", "RPLE_deanon_us", "verified"});
  int total_verified = 0, total_expected = 0;
  for (const std::uint32_t k : {5u, 10u, 20u, 40u, 80u}) {
    Samples rge_us, rple_us;
    int verified = 0, attempts = 0;
    int request_id = 0;
    for (const auto origin : workload.origins) {
      const auto keys = crypto::KeyChain::FromSeed(1700 + request_id, 1);
      core::AnonymizeRequest request;
      request.origin = origin;
      request.profile =
          core::PrivacyProfile::SingleLevel({k, 3, 1e9});
      request.context = "e2/" + std::to_string(k) + "/" +
                        std::to_string(request_id++);
      for (const auto algorithm :
           {core::Algorithm::kRge, core::Algorithm::kRple}) {
        request.algorithm = algorithm;
        const auto result = anonymizer.Anonymize(request, keys);
        if (!result.ok()) {
          std::cerr << request.context << ": anonymize failed: "
                    << result.status().ToString() << "\n";
          continue;
        }
        ++attempts;
        Stopwatch timer;
        const auto reduced =
            deanonymizer.Reduce(result->artifact, AllKeys(keys), 0);
        const double elapsed = timer.ElapsedMicros();
        if (!reduced.ok()) {
          std::cerr << request.context << ": reduce failed: "
                    << reduced.status().ToString() << "\n";
          continue;
        }
        (algorithm == core::Algorithm::kRge ? rge_us : rple_us).Add(elapsed);
        if (reduced->size() == 1 &&
            reduced->segments_by_id().front() == origin) {
          ++verified;
        }
      }
    }
    table.AddRow({TableWriter::Int(k), TableWriter::Fixed(rge_us.Mean(), 1),
                  TableWriter::Fixed(rple_us.Mean(), 1),
                  TableWriter::Int(verified) + "/" +
                      TableWriter::Int(attempts)});
    total_verified += verified;
    // Every origin must anonymize AND reduce back to itself for both
    // algorithms; the smoke in CI relies on the exit code.
    total_expected += static_cast<int>(workload.origins.size()) * 2;
  }
  table.PrintMarkdown(std::cout);
  if (total_verified != total_expected) {
    std::cerr << "E2 FAILED: " << total_verified << "/" << total_expected
              << " round trips verified\n";
    return 1;
  }
  return 0;
}
