#include "server/anonymization_server.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <utility>

#include "util/stopwatch.h"

namespace rcloak::server {

namespace {

// Moves the calling thread onto the index-th CPU it may run on (mod their
// count), then lifts the restriction again. A new thread starts on its
// creator's CPU, and where the kernel does not balance load (a cpuset with
// sched_load_balance = 0) it stays there: every worker would share one
// CPU. Where the kernel does balance, this is only a starting point.
void StartOnCpu(int index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  int skip = index % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) {
      pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
    }
    return;
  }
}

}  // namespace

AnonymizationServer::AnonymizationServer(core::Anonymizer engine,
                                         const ServerOptions& options)
    : engine_(std::move(engine)), max_queue_(options.max_queue) {
  const int workers = std::max(1, options.num_workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] {
      StartOnCpu(i);
      WorkerLoop();
    });
  }
}

AnonymizationServer::~AnonymizationServer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  queue_cv_.notify_all();
  // Workers exit only on an empty queue, so every accepted job resolves.
  for (auto& worker : workers_) worker.join();
}

StatusOr<AnonymizationServer::ResultFuture> AnonymizationServer::Submit(
    core::AnonymizeRequest request, JobKeys keys) {
  Job job{BatchJob{std::move(request), std::move(keys)}, {}};
  auto future = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      return Status::FailedPrecondition("server is shutting down");
    }
    if (queue_.size() >= max_queue_) {
      ++rejected_;
      return Status::ResourceExhausted("anonymization queue full");
    }
    queue_.push_back(std::move(job));
    ++accepted_;
  }
  queue_cv_.notify_one();
  return future;
}

std::vector<StatusOr<AnonymizationServer::ResultFuture>>
AnonymizationServer::SubmitBatch(std::vector<BatchJob> jobs) {
  std::vector<StatusOr<ResultFuture>> results;
  results.reserve(jobs.size());
  for (BatchJob& job : jobs) {
    results.push_back(Submit(std::move(job.request), std::move(job.keys)));
  }
  return results;
}

void AnonymizationServer::WorkerLoop() {
  core::EngineSession session(*engine_.context());
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutting down and drained
    Job job = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();

    Stopwatch timer;
    const crypto::KeyChain keys = std::move(job.work.keys).Resolve();
    auto result = engine_.Anonymize(job.work.request, keys, session);
    const double elapsed = timer.ElapsedMillis();
    // Stats settle before the promise, so a caller that saw its result
    // also sees it counted.
    lock.lock();
    latency_ms_.Add(elapsed);
    ++(result.ok() ? succeeded_ : failed_);
    lock.unlock();
    job.promise.set_value(std::move(result));

    lock.lock();
    if (--in_flight_ == 0 && queue_.empty()) drain_cv_.notify_all();
  }
}

void AnonymizationServer::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

ServerStats AnonymizationServer::stats() const {
  ServerStats stats;
  Samples latency_ms;
  {
    // Copy under the queue lock; sort outside it.
    std::lock_guard<std::mutex> lock(mutex_);
    stats.accepted = accepted_;
    stats.rejected_queue_full = rejected_;
    stats.succeeded = succeeded_;
    stats.failed = failed_;
    latency_ms = latency_ms_;
  }
  stats.mean_latency_ms = latency_ms.Mean();
  stats.p95_latency_ms =
      latency_ms.empty() ? 0.0 : latency_ms.Percentile(95.0);
  return stats;
}

}  // namespace rcloak::server
