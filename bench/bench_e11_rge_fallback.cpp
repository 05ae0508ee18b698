// E11 — Ablation: how often RGE's collision-avoidance rebuild (candidate
// ring expansion, DESIGN.md §3) actually fires, vs. δk, and what one
// transition costs.
// Expectation: on a road network the ring-1 frontier usually outgrows the
// region, so fallbacks are rare and concentrated at small frontiers /
// large k.
//
// Every level built here is reversed back to its origin with
// RgeDeanonymizeLevel; the binary prints each failure and exits 1 on any
// failed level or mismatched reversal, so it doubles as a round-trip gate.
#include <algorithm>

#include "bench/common.h"

using namespace rcloak;
using namespace rcloak::bench;

namespace {

int failures = 0;

void Fail(const std::string& what, const Status& status) {
  std::cerr << "FAIL " << what << ": " << status.ToString() << "\n";
  ++failures;
}

void Fail(const std::string& what, const std::string& why) {
  std::cerr << "FAIL " << what << ": " << why << "\n";
  ++failures;
}

// Peels one RGE level off `region` and checks that exactly `lower` (the
// segments the level grew from) remains.
void ExpectReverses(core::CloakRegion region, const crypto::AccessKey& key,
                    const std::string& context, int level,
                    const core::LevelRecord& record,
                    const std::vector<roadnet::SegmentId>& lower) {
  const Status status = core::RgeDeanonymizeLevel(
      region, key, context, level, record,
      static_cast<std::uint32_t>(lower.size()));
  if (!status.ok()) {
    Fail(context + " L" + std::to_string(level) + " reverse", status);
  } else if (region.segments_by_id() != lower) {
    Fail(context + " L" + std::to_string(level) + " reverse",
         "recovered region differs from the level it grew from");
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int main() {
  PrintHeader("E11: RGE ring-fallback ablation",
              "ring_fallbacks / transitions, max rings used and us per "
              "transition, vs delta_k; 20 origins per point (atlanta "
              "workload).");

  Workload workload = MakeAtlantaWorkload();

  TableWriter table({"delta_k", "transitions", "fallbacks", "fallback_rate",
                     "max_rings", "us_per_transition"});
  for (const std::uint32_t k : {5u, 10u, 20u, 40u, 80u, 160u}) {
    core::RgeStats stats;
    double wall_us = 0.0;
    int request_id = 0;
    for (const auto origin : workload.origins) {
      const auto key = crypto::AccessKey::FromSeed(8200 + request_id);
      const std::string context =
          "e11/" + std::to_string(k) + "/" + std::to_string(request_id++);
      core::CloakRegion region(workload.net);
      region.Insert(origin);
      roadnet::SegmentId chain = origin;
      Stopwatch wall;
      const auto record = core::RgeAnonymizeLevel(
          workload.occupancy, region, chain, key, context, 1, {k, 3, 1e9},
          &stats);
      wall_us += wall.ElapsedMicros();
      if (!record.ok()) {
        Fail(context, record.status());
        continue;
      }
      ExpectReverses(region, key, context, 1, *record, {origin});
    }
    table.AddRow(
        {TableWriter::Int(k),
         TableWriter::Int(static_cast<long long>(stats.transitions)),
         TableWriter::Int(static_cast<long long>(stats.ring_fallbacks)),
         TableWriter::Fixed(
             Ratio(static_cast<double>(stats.ring_fallbacks),
                   static_cast<double>(stats.transitions)),
             4),
         TableWriter::Int(stats.max_rings),
         TableWriter::Fixed(
             Ratio(wall_us, static_cast<double>(stats.transitions)), 3)});
  }
  table.PrintMarkdown(std::cout);

  // Adversarial topologies: on a path (and a cycle) the ring-1 frontier
  // never exceeds 2 segments, so the multi-ring fallback fires on nearly
  // every transition — the worst case for candidate-set construction. This
  // sweep times one RGE level to the target size; the carried ring
  // frontier keeps per-step cost at the ring delta instead of re-walking
  // the whole candidate ball.
  PrintHeader("E11b: ring fallback on path-like topologies",
              "wall ms for one RGE level reaching delta_l segments on a "
              "3000-segment line / cycle (1 user per segment).");
  TableWriter path_table({"topology", "delta_l", "wall_ms", "transitions",
                          "fallback_rate", "max_rings",
                          "us_per_transition"});
  for (const bool cycle : {false, true}) {
    const auto net = cycle ? roadnet::MakeCycle(3000)
                           : roadnet::MakeLine(3001);
    mobility::OccupancySnapshot occupancy(net.segment_count());
    for (std::uint32_t i = 0; i < net.segment_count(); ++i) {
      occupancy.Add(roadnet::SegmentId{i});
    }
    for (const std::uint32_t target : {100u, 200u, 400u, 800u}) {
      core::RgeStats stats;
      const auto key = crypto::AccessKey::FromSeed(8300 + target);
      const std::string context =
          (cycle ? "e11b/cycle/" : "e11b/line/") + std::to_string(target);
      core::CloakRegion region(net);
      const roadnet::SegmentId origin{1500};
      region.Insert(origin);
      roadnet::SegmentId chain = origin;
      Stopwatch wall;
      const auto record = core::RgeAnonymizeLevel(
          occupancy, region, chain, key, context, 1, {target, target, 1e9},
          &stats);
      const double wall_ms = wall.ElapsedMillis();
      if (!record.ok()) {
        Fail(context, record.status());
        continue;
      }
      ExpectReverses(region, key, context, 1, *record, {origin});
      path_table.AddRow(
          {cycle ? "cycle" : "line", TableWriter::Int(target),
           TableWriter::Fixed(wall_ms, 2),
           TableWriter::Int(static_cast<long long>(stats.transitions)),
           TableWriter::Fixed(
               Ratio(static_cast<double>(stats.ring_fallbacks),
                     static_cast<double>(stats.transitions)),
               4),
           TableWriter::Int(stats.max_rings),
           TableWriter::Fixed(
               Ratio(wall_ms * 1e3, static_cast<double>(stats.transitions)),
               3)});
    }
  }
  path_table.PrintMarkdown(std::cout);

  // Sparse occupancy: the regime of perfbench's recloak_storm workload.
  // With 2,000 cars on the Atlanta-scale map a (25, 8) level needs ~100
  // segments, so most transitions outgrow ring 1. Each request runs the
  // two-level profile through one reused engine session, sealing level 1
  // as the session pool does; both levels are then reversed and the
  // recovered level-1 region must equal the sealed one.
  PrintHeader("E11c: sparse occupancy (2,000 cars, profile {8,3},{25,8})",
              "us per request and per transition, transitions and ring "
              "fallbacks per request, over 400 requests with sealed_level "
              "1; reduce_us is the keyed reversal of both levels.");
  const Workload sparse = MakeAtlantaWorkload(400, 2000);
  const auto ctx = core::MapContext::Create(sparse.net);
  const core::Anonymizer anonymizer(ctx, sparse.occupancy);
  core::EngineSession session(*ctx);
  const core::PrivacyProfile profile({{8, 3, 1e9}, {25, 8, 1e9}});
  std::uint64_t transitions = 0;
  std::uint64_t fallbacks = 0;
  double anonymize_us = 0.0;
  double reduce_us = 0.0;
  std::size_t requests = 0;
  for (std::size_t i = 0; i < sparse.origins.size(); ++i) {
    core::AnonymizeRequest request;
    request.origin = sparse.origins[i];
    request.profile = profile;
    request.context = "e11c/" + std::to_string(i);
    request.sealed_level = 1;
    const auto keys = crypto::KeyChain::FromSeed(8400 + i, 2);
    Stopwatch wall;
    const auto result = anonymizer.Anonymize(request, keys, session);
    anonymize_us += wall.ElapsedMicros();
    if (!result.ok()) {
      Fail(request.context, result.status());
      continue;
    }
    ++requests;
    transitions += result->rge_stats.transitions;
    fallbacks += result->rge_stats.ring_fallbacks;
    const auto& levels = result->artifact.levels;
    Stopwatch reduce_wall;
    core::CloakRegion region = core::CloakRegion::FromSegments(
        sparse.net, result->artifact.region_segments);
    const Status outer = core::RgeDeanonymizeLevel(
        region, keys.LevelKey(2), request.context, 2, levels[1],
        levels[0].region_size);
    const Status inner =
        outer.ok() ? core::RgeDeanonymizeLevel(region, keys.LevelKey(1),
                                               request.context, 1, levels[0],
                                               1)
                   : outer;
    reduce_us += reduce_wall.ElapsedMicros();
    if (!inner.ok()) {
      Fail(request.context + " reverse", inner);
    } else if (region.segments_by_id() !=
               std::vector<roadnet::SegmentId>{request.origin}) {
      Fail(request.context + " reverse", "did not recover the origin");
    }
    // The sealed level-1 region is what a reduce of level 2 leaves.
    core::CloakRegion outer_only = core::CloakRegion::FromSegments(
        sparse.net, result->artifact.region_segments);
    ExpectReverses(std::move(outer_only), keys.LevelKey(2), request.context,
                   2, levels[1], result->sealed_region);
  }
  const double n = static_cast<double>(requests);
  TableWriter sparse_table({"requests", "anonymize_us", "us_per_transition",
                            "transitions_per_req", "fallbacks_per_req",
                            "reduce_us"});
  sparse_table.AddRow(
      {TableWriter::Int(static_cast<long long>(requests)),
       TableWriter::Fixed(Ratio(anonymize_us, n), 1),
       TableWriter::Fixed(
           Ratio(anonymize_us, static_cast<double>(transitions)), 3),
       TableWriter::Fixed(Ratio(static_cast<double>(transitions), n), 1),
       TableWriter::Fixed(Ratio(static_cast<double>(fallbacks), n), 1),
       TableWriter::Fixed(Ratio(reduce_us, n), 1)});
  sparse_table.PrintMarkdown(std::cout);

  if (failures > 0) {
    std::cerr << failures << " failed level(s) or reversal(s)\n";
    return 1;
  }
  return 0;
}
