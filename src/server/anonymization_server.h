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
// never contend on engine state, only on the queue lock, which each job
// takes briefly to be pushed, popped and counted.
//
// A job carries its keys as a chain in hand or as a key provider and the
// epoch to derive; the worker that runs the job resolves them, so chain
// derivation spreads over the workers with the anonymize work instead of
// running serially on the submitting thread.
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
#include <mutex>
#include <optional>
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

  // The server takes ownership of the engine. Backend tables (RPLE
  // pre-assignment, the grid index) are built on the first request that
  // needs them; racing workers build each once (MapContext memos).
  // NetServer::Start builds its configured backend's tables up front.
  AnonymizationServer(core::Anonymizer engine, const ServerOptions& options);
  // Runs every queued job to completion, then joins the workers.
  ~AnonymizationServer();

  AnonymizationServer(const AnonymizationServer&) = delete;
  AnonymizationServer& operator=(const AnonymizationServer&) = delete;

  // Enqueues a request; the future resolves to the artifact or the error.
  // Fails fast with RESOURCE_EXHAUSTED when the queue is full.
  StatusOr<ResultFuture> Submit(core::AnonymizeRequest request,
                                JobKeys keys);

  // Submit, once per job in order: element i of the result corresponds to
  // jobs[i]. Each job takes the queue lock on its own, so workers start on
  // the head of the batch while the tail is still being queued.
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
  struct Job {
    BatchJob work;
    std::promise<StatusOr<core::AnonymizeResult>> promise;
  };

  void WorkerLoop();

  core::Anonymizer engine_;
  const std::size_t max_queue_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
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
