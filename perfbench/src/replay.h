// The in-process halves of a benchmark run, both fed the exact items the
// wire run sent (first sighting, then each connection's sent prefix of the
// timed sequence, in global order so every user's updates stay in order):
//
//   RunTwin      the correctness gate: a fresh unbudgeted pool replays the
//                items and every user's reply-sequence digest must equal
//                the wire's; level-1 REDUCE replies are recomputed from the
//                twin's artifact of the same (user, epoch).
//   TraceLayers  the traced replay: the same items pushed through each
//                layer's public functions, with spans recorded around the
//                calls, then folded into per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "generator.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What the wire run sent, and the phase boundary the replays need.
struct SentLog {
  std::vector<std::uint64_t> timed_sent;  // per update connection
  std::uint64_t open_loop_items = 0;      // global indices below: open loop
};

struct TwinResult {
  std::uint64_t replayed = 0;
  std::uint64_t twin_failures = 0;      // the twin pool refused an update
  std::uint64_t mismatched_users = 0;   // reply-sequence digest differs
  std::uint64_t reduce_checked = 0;
  std::uint64_t reduce_mismatches = 0;  // level-1 reduce differs or unseen
};

TwinResult RunTwin(const Workload& workload, const SentLog& sent,
                   const std::vector<ReplyTrack>& wire_tracks,
                   const std::vector<ReduceCheck>& checks);

// The wire's saturation phase, which net.wire_tax compares against.
struct WireSaturation {
  double seconds = 0.0;
  std::uint64_t completed = 0;
};

// Appends the per-layer metrics measured by replay to `out` and writes the
// recorded spans to `spans_path` (tab-separated: name, start_ns, dur_ns,
// units, round). Returns how many replayed operations disagreed with the
// artifacts they re-derive (0 on a correct run).
std::uint64_t TraceLayers(const Workload& workload, const SentLog& sent,
                          const WireSaturation& saturation,
                          const std::string& scratch_dir,
                          const std::string& spans_path,
                          std::vector<Metric>* out);

}  // namespace perfbench
