#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <unordered_map>

#include "core/artifact.h"
#include "core/map_context.h"
#include "core/reversecloak.h"
#include "net/frame_codec.h"
#include "net/net_server.h"
#include "server/anonymization_server.h"
#include "server/continuous_session_pool.h"
#include "util/interner.h"

namespace perfbench {

using namespace rcloak;

namespace {

using Pool = server::ContinuousSessionPool;

enum class Phase : std::uint8_t { kSetup, kOpen, kSaturate };

// Calls fn(items, phase) over the sent items in chunks of at most `chunk`,
// never mixing phases in one chunk.
template <typename Fn>
void ForEachSentChunk(const Workload& workload, const SentLog& sent,
                      std::size_t chunk, Fn&& fn) {
  std::vector<Item> batch;
  batch.reserve(chunk);
  Phase phase = Phase::kSetup;
  const auto push = [&](const Item& item, Phase item_phase) {
    if (item_phase != phase && !batch.empty()) {
      fn(batch, phase);
      batch.clear();
    }
    phase = item_phase;
    batch.push_back(item);
    if (batch.size() == chunk) {
      fn(batch, phase);
      batch.clear();
    }
  };
  for (const Item& item : workload.first_sighting()) push(item, Phase::kSetup);
  std::vector<std::uint64_t> left = sent.timed_sent;
  std::uint64_t remaining = 0;
  for (const std::uint64_t n : left) remaining += n;
  for (std::uint64_t i = 0; remaining > 0 && i < workload.length(); ++i) {
    const Item item = workload.At(i);
    std::uint64_t& conn_left =
        left[static_cast<std::size_t>(workload.ConnectionOf(item.user))];
    if (conn_left == 0) continue;
    --conn_left;
    --remaining;
    push(item, i < sent.open_loop_items ? Phase::kOpen : Phase::kSaturate);
  }
  if (!batch.empty()) fn(batch, phase);
}

// A server stack over its own MapContext, tracking users the way the
// front door's auto-track path does (same profile, options, key schedule
// and owning principal).
struct ReplayStack {
  ReplayStack(const Workload& workload, const server::ServerOptions& server,
              const server::SessionPoolOptions& pool_options)
      : workload(workload),
        ctx(core::MapContext::Create(workload.net())),
        server(std::make_unique<server::AnonymizationServer>(
            core::Anonymizer(ctx, workload.occupancy()), server)),
        pool(std::make_unique<Pool>(*this->server, pool_options)),
        ids(workload.spec().fleet) {}

  std::uint64_t PrincipalOf(std::uint32_t user) const {
    return net::PrincipalToken(
        Workload::Principal(workload.ConnectionOf(user)));
  }

  StatusOr<std::vector<Pool::IdPositionUpdate>> Batch(
      const std::vector<Item>& items) {
    const net::NetServerOptions front;
    std::vector<Pool::IdPositionUpdate> batch;
    batch.reserve(items.size());
    for (const Item& item : items) {
      const std::uint64_t principal = PrincipalOf(item.user);
      if (!ids[item.user].valid()) {
        const std::string name = Workload::UserName(item.user);
        auto tracked = pool->Track(
            name, Workload::Profile(), front.algorithm,
            net::DeterministicKeyProvider(front.key_seed_base, name,
                                          Workload::Profile().num_levels()),
            front.continuous, item.now_s, principal);
        RCLOAK_RETURN_IF_ERROR(tracked.status());
        ids[item.user] = *tracked;
      }
      batch.push_back({ids[item.user], item.now_s, item.segment, principal});
    }
    return batch;
  }

  const Workload& workload;
  std::shared_ptr<const core::MapContext> ctx;
  std::unique_ptr<server::AnonymizationServer> server;
  std::unique_ptr<Pool> pool;
  std::vector<util::UserId> ids;
};

std::uint64_t CheckKey(std::uint32_t user, std::uint32_t epoch) {
  return (static_cast<std::uint64_t>(user) << 32) | epoch;
}

std::map<int, crypto::AccessKey> KeysDownTo(const crypto::KeyChain& keys,
                                            int target_level) {
  std::map<int, crypto::AccessKey> granted;
  for (int level = target_level + 1; level <= keys.num_levels(); ++level) {
    granted.emplace(level, keys.LevelKey(level));
  }
  return granted;
}

// In-memory span log; spans are written out once, after the replay.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t units = 1;
  std::uint64_t round = 0;
};

class SpanLog {
 public:
  template <typename Fn>
  std::int64_t Time(const char* name, std::uint64_t units,
                    std::uint64_t round, Fn&& fn) {
    const std::int64_t start = NowNs();
    fn();
    const std::int64_t dur = NowNs() - start;
    Record(name, start, dur, units, round);
    return dur;
  }

  void Record(const char* name, std::int64_t start, std::int64_t dur,
              std::uint64_t units, std::uint64_t round) {
    spans_.push_back({name, start, dur, std::max<std::uint64_t>(units, 1),
                      round});
  }

  // Median over spans named `name` of dur/units, in `scale` ns.
  double MedianPerUnit(const std::string& name, double scale) const {
    std::vector<double> values;
    for (const Span& span : spans_) {
      if (name == span.name) {
        values.push_back(static_cast<double>(span.dur_ns) /
                         static_cast<double>(span.units) / scale);
      }
    }
    if (values.empty()) return 0.0;
    const auto mid = values.begin() + static_cast<std::ptrdiff_t>(
                                          values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "name\tstart_ns\tdur_ns\tunits\tround\n";
    for (const Span& span : spans_) {
      out << span.name << '\t' << span.start_ns << '\t' << span.dur_ns << '\t'
          << span.units << '\t' << span.round << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace

// ------------------------------------------------------------------ twin

TwinResult RunTwin(const Workload& workload, const SentLog& sent,
                   const std::vector<ReplyTrack>& wire_tracks,
                   const std::vector<ReduceCheck>& checks) {
  TwinResult result;
  // The twin is an oracle, not a measured configuration: a queue deep
  // enough that no replay batch is ever refused.
  server::ServerOptions oracle;
  oracle.max_queue = 1u << 20;
  ReplayStack twin(workload, oracle, {});
  const core::Deanonymizer deanonymizer(twin.ctx);
  std::vector<ReplyTrack> tracks(workload.spec().fleet);
  std::unordered_multimap<std::uint64_t, std::size_t> pending;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    pending.emplace(CheckKey(checks[i].user, checks[i].epoch), i);
  }
  ForEachSentChunk(workload, sent, 4096, [&](const std::vector<Item>& items,
                                             Phase) {
    auto batch = twin.Batch(items);
    if (!batch.ok()) {
      result.twin_failures += items.size();
      return;
    }
    const auto results = twin.pool->UpdateBatch(*batch);
    for (std::size_t i = 0; i < items.size(); ++i) {
      ++result.replayed;
      if (!results[i].ok()) {
        ++result.twin_failures;
        continue;
      }
      const std::uint32_t user = items[i].user;
      const Bytes wire = core::EncodeArtifact(**results[i]);
      if (!tracks[user].OnReply(wire.data(), wire.size(), items[i].segment)) {
        continue;
      }
      const auto [lo, hi] =
          pending.equal_range(CheckKey(user, tracks[user].epoch));
      if (lo == hi) continue;
      const auto region = deanonymizer.Reduce(
          **results[i],
          KeysDownTo(KeysFor(user, tracks[user].epoch),
                     Workload::kValidityLevel),
          Workload::kValidityLevel);
      for (auto it = lo; it != hi; ++it) {
        ++result.reduce_checked;
        if (!region.ok() ||
            SegmentsDigest(region->segments_by_id()) !=
                checks[it->second].digest) {
          ++result.reduce_mismatches;
        }
      }
      pending.erase(lo, hi);
    }
  });
  // A check whose (user, epoch) the twin never produced cannot hold.
  result.reduce_mismatches += pending.size();
  for (std::size_t u = 0; u < tracks.size(); ++u) {
    if (tracks[u].replies != wire_tracks[u].replies ||
        tracks[u].Final() != wire_tracks[u].Final()) {
      ++result.mismatched_users;
    }
  }
  return result;
}

// --------------------------------------------------------- traced replay

std::uint64_t TraceLayers(const Workload& workload, const SentLog& sent,
                          const WireSaturation& saturation,
                          const std::string& scratch_dir,
                          const std::string& spans_path,
                          std::vector<Metric>* out) {
  // Chunk = one batch handed to the pool: about the batch the front door
  // forms from a saturated connection window.
  constexpr std::size_t kChunk = 512;
  constexpr std::size_t kProbeUsers = 64;
  constexpr std::size_t kProbeEvery = 8;
  constexpr std::size_t kMaxRoundJobs = 3000;

  const WorkloadSpec& spec = workload.spec();
  server::SessionPoolOptions pool_options;
  pool_options.memory_budget_bytes = spec.memory_budget_bytes;
  ReplayStack stack(workload, server::ServerOptions{}, pool_options);
  const std::string spill_path = scratch_dir + "/trace.spill";
  std::remove(spill_path.c_str());
  std::uint64_t disagreements = 0;
  if (spec.memory_budget_bytes > 0 &&
      !stack.pool->AttachSpillFile(spill_path).ok()) {
    ++disagreements;
  }
  const core::Deanonymizer deanonymizer(stack.ctx);

  struct Exit {
    std::uint32_t user = 0;
    std::uint32_t epoch = 0;
    SegmentId origin = roadnet::kInvalidSegment;
    Pool::SharedArtifact artifact;
  };
  SpanLog spans;
  std::vector<std::uint64_t> context_hash(spec.fleet, 0);
  std::vector<std::uint32_t> epoch(spec.fleet, 0);
  std::vector<std::vector<Exit>> rounds;
  std::size_t round_jobs = 0;
  std::int64_t saturation_ns = 0;
  std::uint64_t saturation_items = 0;
  std::uint64_t chunk_index = 0;
  std::uint64_t sink = 0;
  Bytes frames;

  // Folds one batch's results in: counts epochs (an artifact with a new
  // request context is a re-cloak) and returns the fresh ones.
  const auto collect = [&](const std::vector<Item>& items,
                           const std::vector<StatusOr<Pool::SharedArtifact>>&
                               results) {
    std::vector<Exit> exits;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!results[i].ok()) {
        ++disagreements;
        continue;
      }
      const std::uint32_t user = items[i].user;
      const std::uint64_t h = util::HashBytes((*results[i])->context);
      if (h == context_hash[user]) continue;
      context_hash[user] = h;
      exits.push_back({user, ++epoch[user], items[i].segment, *results[i]});
    }
    return exits;
  };

  ForEachSentChunk(workload, sent, kChunk, [&](const std::vector<Item>& items,
                                               Phase phase) {
    ++chunk_index;
    const bool timed = phase != Phase::kSetup;
    auto batch = stack.Batch(items);
    if (!batch.ok()) {
      disagreements += items.size();
      return;
    }
    if (timed) {
      // net: the decode a loop does for this batch — reassembly of the
      // frames fed in 16 KiB reads, then one DecodePositionUpdate each.
      frames.clear();
      char name[16];
      for (std::size_t i = 0; i < items.size(); ++i) {
        net::AppendPositionUpdate(frames, static_cast<std::uint32_t>(i),
                                  Workload::UserName(items[i].user, name),
                                  items[i].now_s, items[i].segment);
      }
      spans.Time("net.decode", items.size(), chunk_index, [&] {
        net::FrameReassembler reassembler;
        for (std::size_t off = 0; off < frames.size(); off += 16 << 10) {
          (void)reassembler.Feed(frames.data() + off,
                                 std::min<std::size_t>(16 << 10,
                                                       frames.size() - off));
        }
        while (auto frame = reassembler.Next()) {
          const auto decoded = net::DecodePositionUpdate(frame->payload);
          sink += decoded.ok() ? decoded->seq : 1;
        }
      });
      spans.Time("pool.state_of", batch->size(), chunk_index, [&] {
        for (const auto& update : *batch) {
          const auto state = stack.pool->StateOf(update.user, update.principal);
          sink += state.ok() ? static_cast<std::uint64_t>(*state) : 7;
        }
      });
    }
    const std::int64_t start = NowNs();
    const auto results = stack.pool->UpdateBatch(*batch);
    const std::int64_t dur = NowNs() - start;
    std::vector<Exit> exits = collect(items, results);
    // A batch is named by what it turned out to hold: no region exit, or
    // at least one (a re-cloak round).
    spans.Record(!timed          ? "pool.first_sighting"
                 : exits.empty() ? "pool.in_region"
                                 : "pool.exit_tick",
                 start, dur, items.size(), chunk_index);
    if (!timed) return;
    if (phase == Phase::kSaturate) {
      saturation_ns += dur;
      saturation_items += items.size();
    }
    for (const Exit& exit : exits) {
      Bytes encoded;
      spans.Time("net.encode", 1, chunk_index,
                 [&] { encoded = core::EncodeArtifact(*exit.artifact); });
      sink += encoded.size();
    }
    if (!exits.empty() && round_jobs < kMaxRoundJobs) {
      round_jobs += exits.size();
      rounds.push_back(std::move(exits));
    }
    if (chunk_index % kProbeEvery != 0) return;
    // In-region probe: users of this batch report their latest segment
    // again, which lies inside their validity region by construction.
    std::vector<Item> probe;
    std::vector<std::uint32_t> seen;
    for (auto it = items.rbegin();
         it != items.rend() && probe.size() < kProbeUsers; ++it) {
      if (std::find(seen.begin(), seen.end(), it->user) != seen.end()) {
        continue;
      }
      seen.push_back(it->user);
      probe.push_back(*it);
    }
    auto probe_batch = stack.Batch(probe);
    if (!probe_batch.ok()) return;
    std::vector<StatusOr<Pool::SharedArtifact>> probe_results;
    spans.Time("pool.in_region", probe.size(), chunk_index, [&] {
      probe_results = stack.pool->UpdateBatch(*probe_batch);
    });
    disagreements += collect(probe, probe_results).size();
  });

  // ---- server + core: the collected region-exit rounds, replayed --------
  core::EngineSession session(*stack.ctx);
  const core::Anonymizer& engine = stack.server->engine();
  std::int64_t serial_ns = 0;
  std::int64_t parallel_ns = 0;
  double region_segments = 0.0;
  double artifact_bytes = 0.0;
  std::size_t artifacts = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const std::vector<Exit>& round = rounds[r];
    std::vector<server::AnonymizationServer::BatchJob> jobs;
    std::vector<std::map<int, crypto::AccessKey>> validity(round.size());
    for (std::size_t i = 0; i < round.size(); ++i) {
      const Exit& exit = round[i];
      const crypto::KeyChain keys = KeysFor(exit.user, exit.epoch);
      core::AnonymizeRequest request;
      request.origin = exit.origin;
      request.profile = Workload::Profile();
      request.algorithm = core::Algorithm::kRge;
      request.context = exit.artifact->context;
      StatusOr<core::AnonymizeResult> cut = Status::Internal("not run");
      serial_ns += spans.Time("core.anonymize", 1, r, [&] {
        cut = engine.Anonymize(request, keys, session);
      });
      const Bytes encoded = core::EncodeArtifact(*exit.artifact);
      if (!cut.ok() || core::EncodeArtifact(cut->artifact) != encoded) {
        ++disagreements;
      }
      validity[i] = KeysDownTo(keys, Workload::kValidityLevel);
      serial_ns += spans.Time("core.reduce_validity", 1, r, [&] {
        sink += deanonymizer
                    .Reduce(*exit.artifact, validity[i],
                            Workload::kValidityLevel)
                    .ok();
      });
      StatusOr<core::CloakRegion> exact = Status::Internal("not run");
      const auto all_keys = KeysDownTo(keys, 0);
      spans.Time("core.reduce_full", 1, r, [&] {
        exact = deanonymizer.Reduce(*exit.artifact, all_keys, 0);
      });
      if (!exact.ok() || exact->segments_by_id().size() != 1 ||
          exact->segments_by_id()[0] != exit.origin) {
        ++disagreements;
      }
      region_segments +=
          static_cast<double>(exit.artifact->region_segments.size());
      artifact_bytes += static_cast<double>(encoded.size());
      ++artifacts;
      jobs.push_back({std::move(request), keys});
    }
    parallel_ns += spans.Time("server.submit_batch", 1, r, [&] {
      auto futures = stack.server->SubmitBatch(std::move(jobs));
      for (auto& future : futures) {
        if (!future.ok() || !future->get().ok()) ++disagreements;
      }
    });
    std::vector<core::Deanonymizer::ReduceJob> reduce_jobs;
    for (std::size_t i = 0; i < round.size(); ++i) {
      reduce_jobs.push_back({round[i].artifact.get(), &validity[i],
                             Workload::kValidityLevel});
    }
    parallel_ns += spans.Time("server.reduce_on_workers", 1, r, [&] {
      for (const auto& region : stack.server->ReduceOnWorkers(
               deanonymizer, std::move(reduce_jobs))) {
        if (!region.ok()) ++disagreements;
      }
    });
  }
  std::remove(spill_path.c_str());
  spans.Write(spans_path);
  if (sink == 0) std::fprintf(stderr, "(trace sink empty)\n");

  const auto add = [out](const char* name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };
  const double replay_per_update =
      saturation_items > 0 ? static_cast<double>(saturation_ns) /
                                 static_cast<double>(saturation_items)
                           : 0.0;
  const double wire_per_update =
      saturation.completed > 0
          ? saturation.seconds * 1e9 / static_cast<double>(saturation.completed)
          : 0.0;
  add("net.decode_ns", spans.MedianPerUnit("net.decode", 1.0), "ns");
  add("net.encode_us", spans.MedianPerUnit("net.encode", 1e3), "us");
  add("net.wire_tax",
      replay_per_update > 0 ? wire_per_update / replay_per_update : 0.0,
      "ratio");
  add("pool.in_region_us", spans.MedianPerUnit("pool.in_region", 1e3), "us");
  add("pool.exit_tick_us", spans.MedianPerUnit("pool.exit_tick", 1e3), "us");
  add("pool.state_of_ns", spans.MedianPerUnit("pool.state_of", 1.0), "ns");
  add("server.submit_batch_ms",
      spans.MedianPerUnit("server.submit_batch", 1e6), "ms");
  add("server.reduce_on_workers_ms",
      spans.MedianPerUnit("server.reduce_on_workers", 1e6), "ms");
  add("server.parallel_speedup",
      parallel_ns > 0 ? static_cast<double>(serial_ns) /
                            static_cast<double>(parallel_ns)
                      : 0.0,
      "ratio");
  add("core.anonymize_us", spans.MedianPerUnit("core.anonymize", 1e3), "us");
  add("core.reduce_validity_us",
      spans.MedianPerUnit("core.reduce_validity", 1e3), "us");
  add("core.reduce_full_us", spans.MedianPerUnit("core.reduce_full", 1e3),
      "us");
  add("core.region_segments",
      artifacts > 0 ? region_segments / static_cast<double>(artifacts) : 0.0,
      "segments");
  add("core.artifact_bytes",
      artifacts > 0 ? artifact_bytes / static_cast<double>(artifacts) : 0.0,
      "B");
  return disagreements;
}

}  // namespace perfbench
