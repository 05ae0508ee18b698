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
  StopAdmitting();
  // Workers exit only on an empty queue, so every accepted job resolves.
  for (auto& worker : workers_) worker.join();
}

void AnonymizationServer::StopAdmitting() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  queue_cv_.notify_all();
  room_cv_.notify_all();
}

std::size_t AnonymizationServer::Enqueue(Job* jobs, std::size_t count,
                                         bool wait_for_room, Status& refusal) {
  const auto wake = [this](std::size_t queued) {
    if (queued == 1) {
      queue_cv_.notify_one();
    } else if (queued > 1) {
      queue_cv_.notify_all();
    }
  };
  std::size_t admitted = 0;
  std::size_t unwoken = 0;  // queued since the workers were last woken
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (shutting_down_) {
        refusal = Status::FailedPrecondition("server is shutting down");
        break;
      }
      const std::size_t take =
          std::min(count - admitted, max_queue_ - queue_.size());
      for (std::size_t i = admitted; i < admitted + take; ++i) {
        queue_.push_back(std::move(jobs[i]));
      }
      admitted += take;
      unwoken += take;
      accepted_ += take;
      if (admitted == count) break;
      // A queue with no places at all never makes room.
      if (!wait_for_room || max_queue_ == 0) {
        rejected_ += count - admitted;
        refusal = Status::ResourceExhausted("anonymization queue full");
        break;
      }
      wake(unwoken);
      unwoken = 0;
      room_cv_.wait(lock, [this] {
        return shutting_down_ || queue_.size() < max_queue_;
      });
    }
  }
  wake(unwoken);
  return admitted;
}

std::vector<StatusOr<core::AnonymizeResult>> AnonymizationServer::RunBatch(
    std::vector<BatchJob> jobs) {
  std::vector<StatusOr<core::AnonymizeResult>> results(
      jobs.size(), Status::Internal("not run"));
  if (jobs.empty()) return results;
  Countdown countdown;
  std::vector<Job> queued(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    queued[i].work = &jobs[i];
    queued[i].slot = &results[i];
    queued[i].countdown = &countdown;
  }
  // Every job counts until the refused tail is known, so no worker can
  // reach zero before the caller waits on the admitted ones.
  countdown.remaining = jobs.size();
  Status refusal;
  const std::size_t admitted =
      Enqueue(queued.data(), queued.size(), /*wait_for_room=*/true, refusal);
  for (std::size_t i = admitted; i < jobs.size(); ++i) results[i] = refusal;

  std::unique_lock<std::mutex> lock(mutex_);
  countdown.remaining -= jobs.size() - admitted;
  countdown.done.wait(lock, [&] { return countdown.remaining == 0; });
  return results;
}

std::vector<StatusOr<AnonymizationServer::ResultFuture>>
AnonymizationServer::SubmitBatch(std::vector<BatchJob> jobs) {
  // Promises and futures are made before the lock is taken.
  std::vector<StatusOr<ResultFuture>> results;
  results.reserve(jobs.size());
  std::vector<Job> queued(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    queued[i].submitted =
        std::make_unique<Submitted>(Submitted{std::move(jobs[i]), {}});
    queued[i].work = &queued[i].submitted->work;
    results.emplace_back(queued[i].submitted->promise.get_future());
  }
  Status refusal;
  const std::size_t admitted =
      Enqueue(queued.data(), queued.size(), /*wait_for_room=*/false, refusal);
  for (std::size_t i = admitted; i < results.size(); ++i) results[i] = refusal;
  return results;
}

StatusOr<AnonymizationServer::ResultFuture> AnonymizationServer::Submit(
    core::AnonymizeRequest request, JobKeys keys) {
  std::vector<BatchJob> jobs;
  jobs.push_back({std::move(request), std::move(keys)});
  return std::move(SubmitBatch(std::move(jobs)).front());
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
    room_cv_.notify_one();  // a RunBatch caller may wait for this place

    Stopwatch timer;
    const crypto::KeyChain keys = std::move(job.work->keys).Resolve();
    auto result = engine_.Anonymize(job.work->request, keys, session);
    const double elapsed = timer.ElapsedMillis();

    // One lock per job: settle it, then pop the next at the loop's head.
    // Stats settle before the result is handed over, so a caller that saw
    // its result also sees it counted.
    lock.lock();
    latency_ms_.Add(elapsed);
    ++(result.ok() ? succeeded_ : failed_);
    if (job.slot != nullptr) {
      *job.slot = std::move(result);
      if (--job.countdown->remaining == 0) job.countdown->done.notify_one();
    } else {
      job.submitted->promise.set_value(std::move(result));
    }
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
