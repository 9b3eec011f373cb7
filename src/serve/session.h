// Per-tag session state for the multi-tenant localization service
// (DESIGN.md §5f): tag id -> in-flight round assembly, partitioned into N
// independent shards keyed by hash(tag_id). Each shard owns one bounded
// lock-free ingest ring (producers never take a lock) and one mutex
// covering its session table — taken only by the shard's assembler and by
// Poll(), never by another shard's traffic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "anchor/csi_report.h"
#include "bloc/localizer.h"
#include "net/collector.h"
#include "serve/ingest_queue.h"
#include "track/kalman.h"

namespace bloc::serve {

/// What to do when admitting a frame would exceed a session's in-flight
/// round-assembly bound (ServiceOptions::max_assembling_rounds).
enum class ShedPolicy : std::uint8_t {
  /// Evict the oldest incomplete round to make room for the new one —
  /// favors fresh data from live tags over stragglers from lossy anchors.
  kShedOldest,
  /// Drop the frame that would open a new round — favors completing what
  /// is already in flight.
  kRefuseNew,
};

/// One frame of one tag's measurement round, as it travels through a shard
/// ring. `ingest_ns` is stamped when the producer's push is admitted and
/// anchors the end-to-end (ingest -> position) latency histogram.
struct TagFrame {
  std::uint64_t tag_id = 0;
  std::uint64_t ingest_ns = 0;
  anchor::CsiReport report;
};

/// A localized position delivered on the output stream, via the service
/// callback or Poll(). Carries both the raw per-round fix and the session
/// tracker's smoothed state (equal to the raw fix when tracking is off).
struct PositionUpdate {
  std::uint64_t tag_id = 0;
  std::uint64_t round_id = 0;
  core::LocationResult result;
  /// Kalman-smoothed position after this round (== result.position when
  /// ServiceOptions::track is off or the tag has a single fix).
  geom::Vec2 tracked_position;
  /// Estimated tag velocity (m/s; zero until two fixes are in).
  geom::Vec2 velocity;
  /// The raw fix updated the track (false when the round was empty, the
  /// fix failed the innovation gate, or tracking is off).
  bool fix_accepted = false;
  /// First-frame ring admission -> result available, microseconds.
  std::uint64_t latency_us = 0;
};

/// A round under assembly: reports accumulate in arrival order (per-tag
/// FIFO through the ring keeps this byte-identical to the sender's order).
struct AssemblingRound {
  std::uint64_t first_ingest_ns = 0;
  /// When the first frame was *assembled* (popped from the ring). The GC
  /// ages rounds from this clock, not first_ingest_ns: under backlog a
  /// frame can sit seconds in the ring, and a round must not time out
  /// waiting for frames that are merely queued rather than missing.
  std::uint64_t first_assembled_ns = 0;
  std::vector<anchor::CsiReport> reports;
};

/// Per-tag session: rounds under assembly and the Poll() backlog. Lives
/// inside one shard; round-timeout GC and idle expiry keep both maps
/// bounded.
struct TagSession {
  /// round_id -> partial round; std::map so the oldest (lowest) round id is
  /// O(1) to find for the shed-oldest policy.
  std::map<std::uint64_t, AssemblingRound> assembling;
  /// Delivered updates awaiting Poll() (unused when a callback is set).
  std::deque<PositionUpdate> ready;
  std::uint64_t last_activity_ns = 0;
  /// Rounds of this tag currently in the engine.
  std::size_t inflight = 0;
  /// Per-tag track over the delivered fixes (ServiceOptions::track). Only
  /// touched by SweepCompletions under the shard mutex, in round order.
  track::KalmanTracker tracker;
  /// Round id of the last fix offered to the tracker; dt between rounds is
  /// (round_id - last) x ServiceOptions::round_period_s (the wire carries
  /// no capture timestamps, and round ids tick one per period).
  std::uint64_t last_tracked_round = 0;
  bool has_tracked_round = false;
};

/// A completed round riding through LocalizationEngine::LocateAsync. The
/// node is stable storage for the round and result (LocateAsync holds
/// references until the future resolves); nodes are recycled through the
/// service free list so the steady state allocates only inside reports.
struct InflightLocate {
  std::uint64_t tag_id = 0;
  std::uint64_t first_ingest_ns = 0;
  net::MeasurementRound round;
  core::LocationResult result;
  std::future<void> done;
  /// Set by the engine worker once `result` is written (release), just
  /// before it wakes the shard's assembler; the sweep reads it instead of
  /// polling the future.
  std::atomic<bool> ready{false};
};

/// One lock domain of the service. Producers touch only `ring` (lock-free);
/// the shard's assembler and Poll() serialize on `mutex`.
struct TagSessionShard {
  explicit TagSessionShard(std::size_t ring_capacity) : ring(ring_capacity) {}

  BoundedMpscQueue<TagFrame> ring;
  std::mutex mutex;
  std::unordered_map<std::uint64_t, TagSession> sessions;
  /// Admission-order FIFO of rounds in the engine; completions are
  /// delivered front-first, so per-tag updates arrive in round order.
  std::deque<std::unique_ptr<InflightLocate>> inflight;

  /// Frames resident in this shard's ring (Ingest raises it lock-free, the
  /// assembler lowers it after assembly) — the shard-imbalance signal for
  /// serve/health.h, and the wake trigger: the push that raises it from
  /// zero wakes the shard's assembler.
  std::atomic<std::size_t> depth{0};

  /// Rolling window of the most recent end-to-end latencies (us), written
  /// by SweepCompletions under `mutex` and copied out under the same mutex
  /// by LocalizationService::HealthStats. A fixed tail, not a histogram:
  /// /healthz judges *recent* latency, not since-start aggregates.
  static constexpr std::size_t kLatencyWindow = 256;
  std::array<std::uint32_t, kLatencyWindow> latency_window{};
  std::uint64_t latency_recorded = 0;  // total ever; window keeps the tail
  std::uint64_t localized_rounds = 0;  // delivered from this shard
};

/// splitmix64 finalizer — the shard hash. Adjacent tag ids land on
/// uncorrelated shards.
constexpr std::uint64_t MixTagId(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace bloc::serve
