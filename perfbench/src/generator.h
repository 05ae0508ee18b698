// The load generator: one non-blocking thread driving every connection of
// a workload over the public wire protocol (net/frame_codec.h), with
// protocol-v2 challenge-response authentication on each connection.
//
// Phases, in the order the benchmark runs them:
//   FirstSighting  every user's first update, windowed (set-up);
//   OpenLoop       the timed sequence at a fixed offered rate; each update
//                  is timed from its due time to the read of its reply;
//   Saturate       closed loop: each update connection keeps a fixed window
//                  in flight; completed updates per second;
//   Drain          waits for every reply still in flight.
//
// Every reply is checked as it is read: an ERROR frame, a non-OK status, a
// reply whose seq is not the oldest in flight on its connection, or a
// REDUCE reply at level 0 that is not the artifact's origin segment is a
// failed operation. Artifact replies are folded into per-user ReplyTracks
// for the twin comparison, and partial-key reduce replies are recorded as
// ReduceChecks for the twin to recompute.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "digest.h"
#include "net/frame_codec.h"
#include "util/stats.h"
#include "util/status.h"
#include "workload.h"

namespace perfbench {

// Samples bucketed into fixed windows of a phase's clock. A figure is
// taken per window and summarized by its median across windows, so one
// stall moves one window instead of the whole figure.
struct WindowedSamples {
  static constexpr std::int64_t kWindowNs = 500000000;

  void Add(std::int64_t offset_ns, double value) {
    const auto index = static_cast<std::size_t>(offset_ns / kWindowNs);
    if (index >= windows.size()) windows.resize(index + 1);
    windows[index].Add(value);
  }
  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& window : windows) n += window.count();
    return n;
  }
  // Median over the non-empty windows of each window's q-th percentile.
  double MedianOfPercentile(double q) const;

  std::vector<rcloak::Samples> windows;
};

// A level-1 reduce (keys for level 2 only) the wire answered; the twin
// recomputes it from its own artifact of the same (user, epoch).
struct ReduceCheck {
  std::uint32_t user = 0;
  std::uint32_t epoch = 0;
  rcloak::crypto::Sha256::Digest digest{};
};

class Generator {
 public:
  // Updates each connection keeps in flight in the saturation phase, and
  // during the first-sighting tick (smaller: every first sighting cuts a
  // fresh artifact, and the server's default queue bounds a batch's
  // re-cloaks).
  static constexpr std::size_t kSaturationWindow = 256;
  static constexpr std::size_t kFirstSightingWindow = 128;

  explicit Generator(const Workload& workload);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // TCP connect plus HELLO / AUTH / AUTH_OK on every connection.
  rcloak::Status Connect(std::uint16_t port, std::uint64_t map_fingerprint);
  rcloak::Status FirstSighting();
  void OpenLoop(double seconds);
  void Saturate(double seconds);
  // Waits for every in-flight reply; what is still missing at the timeout
  // counts as failed.
  void Drain(double timeout_s);
  void Close();

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const rcloak::Status& fatal() const { return fatal_; }
  const std::string& first_failure() const { return first_failure_; }

  // Open-loop phase (after its warm-up tenth), windowed by due time.
  const WindowedSamples& update_latency_ms() const { return update_ms_; }
  const WindowedSamples& reduce_latency_ms() const { return reduce_ms_; }
  // Send time minus due time, every open-loop update.
  const rcloak::Samples& lateness_ms() const { return lateness_ms_; }
  // Saturation phase.
  double saturation_seconds() const { return sat_seconds_; }
  std::uint64_t saturation_completed() const { return sat_completed_; }
  // Completed updates per second, as the median over consecutive blocks of
  // kRateBlock completions: a stall slows one block, not the figure.
  double saturation_rate() const;
  static constexpr std::uint64_t kRateBlock = 2048;

  // Timed items sent per update connection (a prefix of each connection's
  // sub-sequence of Workload::At), and the first global index the
  // saturation phase drew from.
  std::vector<std::uint64_t> timed_sent() const;
  std::uint64_t open_loop_items() const { return open_loop_items_; }

  const std::vector<ReplyTrack>& tracks() const { return tracks_; }
  const std::vector<ReduceCheck>& reduce_checks() const { return checks_; }

 private:
  enum class Phase : std::uint8_t { kSetup, kWarmup, kOpen, kSaturate };

  struct PendingUpdate {
    std::uint32_t seq = 0;
    std::uint32_t user = 0;
    SegmentId segment = rcloak::roadnet::kInvalidSegment;
    std::int64_t due_ns = 0;
    Phase phase = Phase::kSetup;
  };
  struct PendingReduce {
    std::uint32_t seq = 0;
    std::uint32_t user = 0;
    std::uint32_t epoch = 0;
    SegmentId origin = rcloak::roadnet::kInvalidSegment;
    bool full_keys = false;
    bool timed = false;
    std::int64_t due_ns = 0;
  };
  struct Conn {
    int fd = -1;
    rcloak::net::FrameReassembler in;
    rcloak::Bytes out;
    std::size_t out_off = 0;
    std::deque<PendingUpdate> updates;
    std::deque<PendingReduce> reduces;
    std::uint32_t next_seq = 0;
    std::uint64_t cursor = 0;  // closed-loop scan position
    std::uint64_t timed_sent = 0;
  };

  void SendUpdate(Conn& conn, const Item& item, std::int64_t due_ns,
                  Phase phase);
  void SendReduce(std::int64_t due_ns, bool timed);
  bool NextFor(int connection, Item* item);
  // Flushes every out buffer, waits up to timeout_ns for a readable
  // connection and reads.
  void Pump(std::int64_t timeout_ns);
  void Flush(Conn& conn);
  void Read(Conn& conn);
  void HandleFrame(Conn& conn, const rcloak::net::Frame& frame,
                   std::int64_t now_ns);
  void Fail(const std::string& why);
  std::size_t in_flight() const;
  rcloak::StatusOr<rcloak::net::Frame> AwaitFrame(Conn& conn);

  const Workload& workload_;
  std::vector<Conn> conns_;
  std::vector<ReplyTrack> tracks_;
  std::vector<ReduceCheck> checks_;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  rcloak::Status fatal_ = rcloak::Status::Ok();
  std::string first_failure_;

  // The most recently served artifact: what the key holder reduces next.
  rcloak::Bytes last_artifact_;
  std::uint32_t last_user_ = 0;
  bool have_artifact_ = false;
  std::uint64_t reduces_sent_ = 0;

  std::uint64_t open_loop_items_ = 0;
  std::int64_t open_start_ns_ = 0;  // end of the open-loop warm-up
  WindowedSamples update_ms_;
  WindowedSamples reduce_ms_;
  rcloak::Samples lateness_ms_;

  bool saturating_ = false;
  std::int64_t sat_deadline_ns_ = 0;
  std::uint64_t sat_completed_ = 0;
  std::int64_t sat_block_start_ns_ = 0;
  std::vector<std::int64_t> sat_block_ns_;
  double sat_seconds_ = 0.0;
};

std::int64_t NowNs();

// The key chain the front door derived for `user`'s artifact of `epoch`
// (its default deterministic schedule) — what a key holder presents.
rcloak::crypto::KeyChain KeysFor(std::uint32_t user, std::uint32_t epoch);

}  // namespace perfbench
