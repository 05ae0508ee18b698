// Trusted anonymization server: the deployment shape of §IV ("the
// 'Anonymizer' sends the parameters and access keys to a trusted
// anonymization server").
//
// One bounded FIFO under one mutex, drained by `num_workers` threads, each
// started on its own CPU of the process's affinity mask. Each worker owns
// a reusable EngineSession (scratch only). The engine layer
// underneath is built for this: the MapContext is immutable, Anonymize()
// is const over shared state, and occupancy refreshes publish a new
// snapshot epoch by atomic shared_ptr swap (SetOccupancy) — so workers
// never contend on engine state, only on the queue lock. A caller takes
// that lock once to queue a batch that fits the queue's room and wakes the
// workers once; a worker takes it once per job, to settle the finished job
// and pop the next. RunBatch's caller then sleeps while its round runs and
// wakes once per eighth of the round (kPrefixShares) to take the prefix
// of jobs finished since, so it can use early results while later jobs
// still run.
//
// A job carries its keys as a chain in hand or as a key provider and the
// epoch to derive; the worker that runs the job resolves them, so chain
// derivation spreads over the workers with the anonymize work instead of
// running serially on the submitting thread. The same worker encodes the
// artifact it cut (AnonymizeResult::wire), so the artifact's one encode
// runs on the workers too.
//
// Determinism: jobs are pure functions of (request, keys, occupancy epoch)
// and the per-worker sessions are scratch, so which worker runs a job, and
// how many workers there are, is unobservable (pinned by
// tests/server_determinism_test.cc and session_pool_test.cc).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/reversecloak.h"
#include "util/stats.h"

namespace rcloak::server {

struct ServerOptions {
  // One per hardware thread the host reports (at least 1).
  int num_workers =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // Exact bound on jobs queued and not yet taken by a worker, across all
  // workers; a submit past it fails with RESOURCE_EXHAUSTED.
  std::size_t max_queue = 1024;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  // Compatibility fields, always 0: one shared queue has nothing to steal
  // and no fan-out lane. Kept because perfbench reports them.
  std::uint64_t steals = 0;
  std::uint64_t fanout_tasks = 0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
};

// A job's access keys: a chain in hand, or a key provider and the epoch
// to call it with. The worker that runs the job resolves them, so a
// provider runs on a server worker, concurrently with other jobs' providers;
// it must not wait on this server.
class JobKeys {
 public:
  using Provider = std::function<crypto::KeyChain(std::uint64_t epoch)>;

  JobKeys(crypto::KeyChain chain)  // NOLINT implicit
      : chain_(std::move(chain)) {}
  JobKeys(Provider provider, std::uint64_t epoch)
      : provider_(std::move(provider)), epoch_(epoch) {}

  // The chain in hand, else provider(epoch).
  crypto::KeyChain Resolve() && {
    return chain_ ? std::move(*chain_) : provider_(epoch_);
  }

 private:
  std::optional<crypto::KeyChain> chain_;
  Provider provider_;
  std::uint64_t epoch_ = 0;
};

class AnonymizationServer {
 public:
  using ResultFuture = std::future<StatusOr<core::AnonymizeResult>>;

  struct BatchJob {
    core::AnonymizeRequest request;
    JobKeys keys;
  };

  // Receives results [first, first + finished.size()) of a RunBatch round,
  // all final; it may move them out.
  using PrefixSink = std::function<void(
      std::size_t first,
      std::span<StatusOr<core::AnonymizeResult>> finished)>;

  // RunBatch wakes its caller each time the finished prefix of the round
  // passes another 1/kPrefixShares of it (rounded up to whole jobs).
  static constexpr std::size_t kPrefixShares = 8;

  // The server takes ownership of the engine. Backend tables (RPLE
  // pre-assignment, the grid index) are built on the first request that
  // needs them; racing workers build each once (MapContext memos).
  // NetServer::Start builds its configured backend's tables up front.
  AnonymizationServer(core::Anonymizer engine, const ServerOptions& options);
  // Runs every queued job to completion, then joins the workers.
  ~AnonymizationServer();

  AnonymizationServer(const AnonymizationServer&) = delete;
  AnonymizationServer& operator=(const AnonymizationServer&) = delete;

  // Runs `jobs` and returns when every one is done: element i of the result
  // is jobs[i]'s artifact (with its bytes in `wire`) or error; results go
  // straight into the returned vector. What fits in the queue's room is
  // queued under one lock and the workers are woken once; past the room,
  // the caller waits for places as workers take jobs instead of refusing
  // (max_queue stays exact).
  //
  // On the calling thread, `on_prefix` (when set) gets each newly finished
  // prefix of the round, in order, once: first as soon as the round is
  // queued (whatever finished by then, possibly nothing), then every time
  // the prefix has grown by a share (kPrefixShares), and last up to the
  // end. No lock is held while it runs. Elements it moved from are
  // returned moved-from. Must not be called from a key provider.
  std::vector<StatusOr<core::AnonymizeResult>> RunBatch(
      std::vector<BatchJob> jobs, const PrefixSink& on_prefix = {});

  // Enqueues a request; the future resolves to the artifact or the error.
  // Fails fast with RESOURCE_EXHAUSTED when the queue is full.
  StatusOr<ResultFuture> Submit(core::AnonymizeRequest request,
                                JobKeys keys);

  // Submit for each job, queued under one lock: element i of the result
  // corresponds to jobs[i]. Jobs past the queue's room fail fast with
  // RESOURCE_EXHAUSTED (the tail of the batch, each counted in
  // rejected_queue_full).
  std::vector<StatusOr<ResultFuture>> SubmitBatch(std::vector<BatchJob> jobs);

  // Compatibility shim, serial: perfbench still calls it. Element i is
  // deanonymizer.Reduce on jobs[i].
  std::vector<StatusOr<core::CloakRegion>> ReduceOnWorkers(
      const core::Deanonymizer& deanonymizer,
      std::vector<core::Deanonymizer::ReduceJob> jobs) const {
    return deanonymizer.ReduceBatch(jobs);
  }

  // Publishes a new occupancy snapshot epoch (cars moved). Lock-free with
  // respect to the queue: in-flight requests finish against the epoch they
  // started with.
  void SetOccupancy(mobility::OccupancySnapshot occupancy) {
    engine_.SetOccupancy(std::move(occupancy));
  }

  // Blocks until the queue drains and in-flight jobs finish.
  void Drain();

  ServerStats stats() const;

  int num_workers() const noexcept { return static_cast<int>(workers_.size()); }
  const core::Anonymizer& engine() const noexcept { return engine_; }

 private:
  // A RunBatch call's progress (guarded by mutex_): which jobs are done and
  // how far the done prefix reaches. The worker that moves `finished` to or
  // past `wake_at` wakes the caller.
  struct Round {
    std::vector<char> done;
    std::size_t finished = 0;  // jobs [0, finished) are all done
    std::size_t wake_at = 0;
    std::condition_variable advanced;

    // Moves `finished` over the done jobs after it.
    void Advance() {
      while (finished < done.size() && done[finished] != 0) ++finished;
    }
  };
  // A Submit'd job, owned by the server until a worker resolves it.
  struct Submitted {
    BatchJob work;
    std::promise<StatusOr<core::AnonymizeResult>> promise;
  };
  // One queue entry. A RunBatch job stays in its caller's vector and its
  // result goes to the caller's slot, job `index` of `round`; a Submit'd
  // one resolves its promise.
  struct Job {
    BatchJob* work = nullptr;
    StatusOr<core::AnonymizeResult>* slot = nullptr;
    Round* round = nullptr;
    std::size_t index = 0;
    std::unique_ptr<Submitted> submitted;
  };

  friend struct AnonymizationServerTestPeer;  // reaches StopAdmitting

  // The one admission routine: queues jobs[0, count) in order under one
  // lock while the server runs and the queue has room, then wakes the
  // workers once. Past the room it fails the tail fast, or with
  // `wait_for_room` waits for places and queues the rest as they free up.
  // Returns how many went in; the status of the refused tail goes to
  // `refusal`.
  std::size_t Enqueue(Job* jobs, std::size_t count, bool wait_for_room,
                      Status& refusal);
  // From here on every job fails FAILED_PRECONDITION; the workers exit
  // once the queue is empty. The destructor's first step.
  void StopAdmitting();
  void WorkerLoop();

  core::Anonymizer engine_;
  const std::size_t max_queue_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable room_cv_;  // a worker took a job off the queue
  std::condition_variable drain_cv_;
  std::deque<Job> queue_;
  std::size_t in_flight_ = 0;  // taken by a worker, not yet finished
  bool shutting_down_ = false;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t succeeded_ = 0;
  std::uint64_t failed_ = 0;
  Samples latency_ms_;

  std::vector<std::thread> workers_;
};

}  // namespace rcloak::server
