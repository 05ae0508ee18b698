// Trusted anonymization server: the deployment shape of §IV ("the
// 'Anonymizer' sends the parameters and access keys to a trusted
// anonymization server").
//
// The server is *sharded*: each worker owns a shard with its own bounded
// deque, mutex, statistics and reusable per-worker scratch sessions, and
// Submit/SubmitBatch round-robin jobs across shards. The engine layer
// underneath is built for this: the MapContext is immutable, Anonymize()
// is const over shared state, and occupancy refreshes publish a new
// snapshot epoch by atomic shared_ptr swap (SetOccupancy) — so workers
// never contend on engine state, only on shard queue locks.
//
// Work stealing: a worker whose own deque runs dry pops from the *back* of
// another shard's deque instead of sleeping, so a skewed batch (a tail
// shard stuck behind expensive jobs — hot downtown cells cloak slower)
// keeps every worker busy. Stealing cannot change any result: jobs are
// pure functions of (request, keys, occupancy epoch) and the per-worker
// sessions are scratch, so which worker runs a job is unobservable
// (pinned by tests/server_determinism_test.cc and session_pool_test.cc).
//
// Fan-out: RunOnWorkers posts one generic stealable task per worker and
// ReduceOnWorkers layers a keyed ReduceBatch on top of it, with per-worker
// ReduceSession reuse and the calling thread as an extra lane (so progress
// never depends on queue depth).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/reversecloak.h"
#include "util/stats.h"

namespace rcloak::server {

struct ServerOptions {
  int num_workers = 2;
  // Total queue bound, split evenly across worker shards.
  std::size_t max_queue = 1024;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  // Jobs executed by a worker other than the one whose deque they were
  // queued on (stolen on idle), and generic fan-out tasks run.
  std::uint64_t steals = 0;
  std::uint64_t fanout_tasks = 0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
};

// A lane executing a fan-out task: the worker's index plus its long-lived
// scratch, reused across fan-outs. worker_index -1 is the calling thread's
// inline lane (call-local scratch, no engine session).
struct WorkerSlot {
  int worker_index = -1;
  core::EngineSession* engine_session = nullptr;
  core::ReduceSession* reduce_session = nullptr;
};

class AnonymizationServer {
 public:
  using ResultFuture = std::future<StatusOr<core::AnonymizeResult>>;
  using FanoutFn = std::function<void(WorkerSlot&)>;

  struct BatchJob {
    core::AnonymizeRequest request;
    crypto::KeyChain keys;
  };

  // The server takes ownership of the engine; RPLE pre-assignment runs
  // up-front so workers never race the lazy build.
  AnonymizationServer(core::Anonymizer engine, const ServerOptions& options);
  ~AnonymizationServer();

  AnonymizationServer(const AnonymizationServer&) = delete;
  AnonymizationServer& operator=(const AnonymizationServer&) = delete;

  // Enqueues a request; the future resolves to the artifact or the error.
  // Fails fast with RESOURCE_EXHAUSTED when the target shard is full.
  StatusOr<ResultFuture> Submit(core::AnonymizeRequest request,
                                crypto::KeyChain keys);

  // Batch path: spreads the jobs across the shard deques taking each shard
  // lock once, then wakes every worker (idle ones steal from loaded
  // shards). Element i of the result corresponds to jobs[i]; individual
  // jobs can still be rejected when their shard is full.
  std::vector<StatusOr<ResultFuture>> SubmitBatch(std::vector<BatchJob> jobs);

  // Generic fan-out: enqueues one stealable invocation of `fn` per worker
  // (each runs with the executing worker's slot — its index and reusable
  // sessions) and blocks until every *posted* invocation returns. Shards
  // whose queue is full are skipped; returns how many lanes were posted.
  // `fn` must therefore not assume all workers participate — share work
  // through a common atomic cursor, as ReduceOnWorkers does.
  int RunOnWorkers(const FanoutFn& fn);

  // A batch of keyed reduces fanned across the workers: element i of the
  // result is byte-identical to deanonymizer.Reduce on
  // jobs[i]. Jobs are drawn from a shared cursor by the worker lanes (each
  // reusing its shard's long-lived ReduceSession) *and* by the calling
  // thread, so the call completes even when every worker queue is deep.
  // The artifacts/key maps the jobs borrow must stay alive for the call.
  std::vector<StatusOr<core::CloakRegion>> ReduceOnWorkers(
      const core::Deanonymizer& deanonymizer,
      std::vector<core::Deanonymizer::ReduceJob> jobs);

  // Publishes a new occupancy snapshot epoch (cars moved). Lock-free with
  // respect to the worker shards: in-flight requests finish against the
  // epoch they started with.
  void SetOccupancy(mobility::OccupancySnapshot occupancy) {
    engine_.SetOccupancy(std::move(occupancy));
  }

  // Blocks until every shard's queue drains and in-flight jobs finish.
  void Drain();

  // Aggregated over all shards.
  ServerStats stats() const;

  int num_workers() const noexcept { return static_cast<int>(shards_.size()); }
  const core::Anonymizer& engine() const noexcept { return engine_; }

 private:
  struct Job {
    // Anonymize work (the common case) …
    std::optional<BatchJob> work;
    std::promise<StatusOr<core::AnonymizeResult>> promise;
    // … or a generic fan-out task (work empty), run with the slot of
    // whichever worker pops — or steals — it.
    FanoutFn task;
  };

  struct Shard {
    explicit Shard(const core::MapContext& ctx) : session(ctx) {}

    std::mutex mutex;
    std::condition_variable queue_cv;
    std::condition_variable drain_cv;
    std::deque<Job> queue;
    bool shutting_down = false;
    // Jobs popped from THIS shard's deque and not yet finished (wherever
    // they execute); Drain keys off it.
    std::size_t in_flight = 0;
    // Bumped (under `mutex`) to tell this worker another shard has
    // stealable work; the worker re-scans siblings when it changes.
    std::uint64_t steal_epoch = 0;

    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
    std::uint64_t steals = 0;        // jobs THIS worker stole elsewhere
    std::uint64_t fanout_tasks = 0;  // fan-out lanes THIS worker ran
    Samples latency_ms;

    // Worker-owned scratch, reused across the requests this shard's worker
    // executes (own jobs and steals); only the worker thread touches it.
    core::EngineSession session;
    core::ReduceSession reduce_session;
    std::thread worker;
  };

  void WorkerLoop(Shard& shard, int worker_index);
  // Pops the front of `shard`'s own deque, else steals from the back of
  // the first loaded sibling. Sets *origin to the deque the job came from
  // (whose in_flight was incremented).
  std::optional<Job> TakeJob(Shard& shard, int worker_index, Shard** origin);
  // Runs `job` with `executing`'s worker scratch, then settles stats on
  // `executing` and in_flight/drain on `origin`.
  void ExecuteJob(Job job, Shard& executing, int worker_index, Shard& origin);
  // Appends `job` to the shard under its lock; fails when the shard is
  // full. Nudges a sibling's steal epoch when the shard is backing up.
  StatusOr<ResultFuture> Enqueue(std::size_t shard_index, Job job);
  // Appends a fan-out task (bound-checked, not counted as accepted);
  // false when the shard is full or shutting down.
  bool PostTask(std::size_t shard_index, FanoutFn fn);
  void WakeStealers(std::size_t first, std::size_t count);

  core::Anonymizer engine_;
  ServerOptions options_;
  std::size_t per_shard_queue_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_shard_{0};
};

}  // namespace rcloak::server
