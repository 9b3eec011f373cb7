// The central server's ingest stage: registers anchors, groups CsiReports
// into measurement rounds, and hands complete rounds (one report per
// registered anchor) to the localizer (paper §3: "all the anchor points
// communicate to a central server to estimate the location of the tag").
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "net/transport.h"

namespace bloc::net {

struct AnchorInfo {
  AnchorHelloMsg hello;
};

struct MeasurementRound {
  std::uint64_t round_id = 0;
  std::vector<anchor::CsiReport> reports;  // one per anchor, any order
};

/// Round codec for the dataset file format (sim/dataset_io.h): round id,
/// report count, then each report through the CsiReport body codec.
/// Decoding throws WireError on truncated or implausible input.
void EncodeMeasurementRound(const MeasurementRound& round, WireWriter& w);
MeasurementRound DecodeMeasurementRound(WireReader& r);

class Collector : public MessageSink {
 public:
  struct Options {
    /// Pending (incomplete or unconsumed) rounds kept at once. When a new
    /// round id would exceed the bound, the lowest-id round is evicted —
    /// a slow consumer or a permanently lossy anchor can no longer grow
    /// `rounds_` without bound. 0 = unbounded (legacy behavior).
    std::size_t max_pending_rounds = 0;
  };

  Collector() = default;
  explicit Collector(Options options) : options_(options) {}

  void OnMessage(Message&& msg) override;

  /// Registered anchors (by id), snapshot.
  std::vector<AnchorHelloMsg> Anchors() const;

  /// Blocks until round `round_id` has a report from every registered
  /// anchor, up to `timeout_ms`; returns the round or nullopt on timeout.
  /// Consumes the round: its reports are moved out and its slot erased.
  std::optional<MeasurementRound> WaitRound(std::uint64_t round_id,
                                            int timeout_ms = 5000);

  /// Non-blocking peek: a copy of a complete round if available (the round
  /// stays pending until WaitRound/TakeRound consumes it).
  std::optional<MeasurementRound> TryGetRound(std::uint64_t round_id) const;

  /// Non-blocking consume: moves a complete round out and erases its slot.
  std::optional<MeasurementRound> TakeRound(std::uint64_t round_id);

  std::size_t dropped_duplicates() const {
    return dropped_duplicates_.load(std::memory_order_relaxed);
  }
  /// Rounds evicted by the max_pending_rounds horizon.
  std::size_t evicted_rounds() const {
    return evicted_rounds_.load(std::memory_order_relaxed);
  }
  /// Rounds currently buffered (complete or partial).
  std::size_t pending_rounds() const;

 private:
  bool RoundComplete(std::uint64_t round_id) const;  // caller holds mutex_
  MeasurementRound ExtractRound(std::uint64_t round_id);  // caller holds mutex_

  const Options options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint32_t, AnchorInfo> anchors_;
  std::map<std::uint64_t, std::vector<anchor::CsiReport>> rounds_;
  // Atomics: read without mutex_ by monitoring threads while producers
  // ingest (the non-atomic counter was a data race under TSan).
  std::atomic<std::size_t> dropped_duplicates_{0};
  std::atomic<std::size_t> evicted_rounds_{0};
};

}  // namespace bloc::net
