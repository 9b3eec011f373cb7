// Tests for the multi-tenant localization service (serve/): the lock-free
// ingest ring, sharded session assembly, backpressure/shed policies,
// round-timeout GC, the position stream, and bit-identical parity with the
// serial engine path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "bloc/engine.h"
#include "net/messages.h"
#include "net/transport.h"
#include "serve/ingest_queue.h"
#include "serve/service.h"
#include "sim/experiment.h"
#include "track/kalman.h"

namespace bloc::serve {
namespace {

// ---------------------------------------------------------------------------
// BoundedMpscQueue

TEST(BoundedMpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(RingCapacityFor(1), 2u);
  EXPECT_EQ(RingCapacityFor(4), 4u);
  EXPECT_EQ(RingCapacityFor(5), 8u);
  EXPECT_EQ(BoundedMpscQueue<int>(5).capacity(), 8u);
}

TEST(BoundedMpscQueue, FifoAndFullRefusal) {
  BoundedMpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(int{i}));
  int overflow = 99;
  EXPECT_FALSE(q.TryPush(std::move(overflow)));
  EXPECT_EQ(overflow, 99);  // refused push leaves the value untouched

  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(out));
  EXPECT_TRUE(q.TryPush(7));  // slot freed by the pops
  ASSERT_TRUE(q.TryPop(out));
  EXPECT_EQ(out, 7);
}

TEST(BoundedMpscQueue, MultiProducerNoLossPerProducerFifo) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 2000;
  BoundedMpscQueue<std::uint64_t> q(64);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::size_t i = 1; i <= kPerProducer; ++i) {
        std::uint64_t v = p * 1'000'000 + i;
        while (!q.TryPush(std::move(v))) std::this_thread::yield();
      }
    });
  }
  std::vector<std::uint64_t> last_seen(kProducers, 0);
  std::size_t popped = 0;
  while (popped < kProducers * kPerProducer) {
    std::uint64_t v = 0;
    if (!q.TryPop(v)) {
      std::this_thread::yield();
      continue;
    }
    ++popped;
    const std::size_t p = v / 1'000'000;
    const std::uint64_t seq = v % 1'000'000;
    ASSERT_LT(p, kProducers);
    EXPECT_GT(seq, last_seen[p]) << "per-producer FIFO violated";
    last_seen[p] = seq;
  }
  for (std::thread& t : producers) t.join();
  for (std::size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last_seen[p], kPerProducer);
  }
  std::uint64_t v = 0;
  EXPECT_FALSE(q.TryPop(v));
}

// ---------------------------------------------------------------------------
// LocalizationService fixtures

/// 10 seeded measurement rounds on the paper testbed, generated once.
const sim::Dataset& Rounds() {
  static const sim::Dataset dataset = [] {
    sim::DatasetOptions options;
    options.locations = 10;
    return sim::GenerateDataset(sim::PaperTestbed(7), options);
  }();
  return dataset;
}

core::LocalizerConfig Config() { return sim::PaperLocalizerConfig(Rounds()); }

/// Serial-path reference positions (LocateBatch is tested bit-identical to
/// Localizer::Locate, the StreamExperiment evaluation path).
const std::vector<core::LocationResult>& Reference() {
  static const std::vector<core::LocationResult> results = [] {
    core::LocalizationEngine engine(Rounds().deployment, Config(),
                                    {.threads = 1});
    return engine.LocateBatch(Rounds().rounds);
  }();
  return results;
}

/// Bit-identical comparison: no tolerances anywhere.
void ExpectIdentical(const core::LocationResult& a,
                     const core::LocationResult& b) {
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.bands_used, b.bands_used);
  EXPECT_EQ(a.anchors_used, b.anchors_used);
}

anchor::CsiReport FrameFor(std::size_t dataset_round, std::size_t report_idx,
                           std::uint64_t round_id) {
  anchor::CsiReport report = Rounds().rounds[dataset_round].reports[report_idx];
  report.round_id = round_id;
  return report;
}

std::size_t MasterReportIndex(std::size_t dataset_round) {
  const auto& reports = Rounds().rounds[dataset_round].reports;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].is_master) return i;
  }
  return 0;
}

/// Pushes every report of one dataset round as tag `tag_id` round
/// `round_id`, retrying refused pushes (backpressure, never loss).
void SendRound(LocalizationService& service, std::uint64_t tag_id,
               std::size_t dataset_round, std::uint64_t round_id) {
  const auto& reports = Rounds().rounds[dataset_round].reports;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    while (!service.Ingest(tag_id, FrameFor(dataset_round, i, round_id))) {
      std::this_thread::yield();
    }
  }
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 30000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

constexpr std::chrono::milliseconds kDrain{120000};

// ---------------------------------------------------------------------------
// Core behavior

TEST(LocalizationService, ShardCountRoundsUpAndHashesSpread) {
  ServiceOptions options;
  options.shards = 5;
  LocalizationService service(Rounds().deployment, Config(), options);
  EXPECT_EQ(service.shard_count(), 8u);
  // splitmix64 must spread adjacent tag ids over multiple shards.
  std::map<std::size_t, std::size_t> hits;
  for (std::uint64_t t = 0; t < 64; ++t) ++hits[service.ShardOf(t)];
  EXPECT_GT(hits.size(), 4u);
}

TEST(LocalizationService, PositionsBitIdenticalToSerialEngineViaPoll) {
  ServiceOptions options;
  options.shards = 4;
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();

  constexpr std::size_t kTags = 6;
  constexpr std::size_t kRoundsPerTag = 3;
  const std::size_t n = Rounds().rounds.size();
  for (std::uint64_t k = 0; k < kRoundsPerTag; ++k) {
    for (std::uint64_t t = 0; t < kTags; ++t) {
      SendRound(service, t, (t + k) % n, k);
    }
  }
  ASSERT_TRUE(service.Drain(kDrain));

  for (std::uint64_t t = 0; t < kTags; ++t) {
    for (std::uint64_t k = 0; k < kRoundsPerTag; ++k) {
      const auto update = service.Poll(t);
      ASSERT_TRUE(update.has_value()) << "tag " << t << " round " << k;
      EXPECT_EQ(update->tag_id, t);
      EXPECT_EQ(update->round_id, k) << "per-tag round order violated";
      ExpectIdentical(update->result, Reference()[(t + k) % n]);
    }
    EXPECT_FALSE(service.Poll(t).has_value());
  }

  const ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.localized_rounds, kTags * kRoundsPerTag);
  EXPECT_EQ(counters.duplicate_frames, 0u);
  EXPECT_EQ(counters.shed_rounds, 0u);
  EXPECT_EQ(counters.expired_rounds, 0u);
  service.Stop();
}

TEST(LocalizationService, PositionStreamCarriesTheTrack) {
  ServiceOptions options;
  options.track = true;
  options.round_period_s = 0.5;
  LocalizationService service(Rounds().deployment, Config(), options);

  // The callback runs on the assembler thread; no lock needed.
  std::vector<PositionUpdate> updates;
  service.SetUpdateCallback(
      [&](const PositionUpdate& u) { updates.push_back(u); });
  service.Start();

  // A stationary tag: the same dataset round five times. Identical fixes
  // give zero innovation, so the Kalman state converges onto the fix — the
  // smoothed track must sit exactly on the raw position with ~zero
  // velocity, and every fix passes the innovation gate.
  constexpr std::uint64_t kTag = 2;
  for (std::uint64_t k = 0; k < 5; ++k) SendRound(service, kTag, 0, k);
  ASSERT_TRUE(service.Drain(kDrain));
  service.Stop();

  ASSERT_EQ(updates.size(), 5u);
  for (std::uint64_t k = 0; k < updates.size(); ++k) {
    const PositionUpdate& u = updates[k];
    EXPECT_EQ(u.round_id, k);
    EXPECT_TRUE(u.fix_accepted);
    ExpectIdentical(u.result, Reference()[0]);
    EXPECT_NEAR(u.tracked_position.x, u.result.position.x, 1e-9);
    EXPECT_NEAR(u.tracked_position.y, u.result.position.y, 1e-9);
    EXPECT_NEAR(u.velocity.Norm(), 0.0, 1e-9);
  }
}

TEST(LocalizationService, TrackingOffLeavesRawPositions) {
  ServiceOptions options;
  options.track = false;
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();
  SendRound(service, 1, 3, 0);
  ASSERT_TRUE(service.Drain(kDrain));
  service.Stop();

  const auto update = service.Poll(1);
  ASSERT_TRUE(update.has_value());
  EXPECT_FALSE(update->fix_accepted);
  EXPECT_EQ(update->tracked_position.x, update->result.position.x);
  EXPECT_EQ(update->tracked_position.y, update->result.position.y);
  EXPECT_EQ(update->velocity.x, 0.0);
  EXPECT_EQ(update->velocity.y, 0.0);
}

TEST(LocalizationService, ConcurrentIngestIntoOneShardLosesNothing) {
  ServiceOptions options;
  options.shards = 1;        // every tag contends on the same ring + mutex
  options.ring_capacity = 64;  // small: producers must ride backpressure
  LocalizationService service(Rounds().deployment, Config(), options);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kTagsPerProducer = 2;
  constexpr std::size_t kTags = kProducers * kTagsPerProducer;
  constexpr std::size_t kRoundsPerTag = 4;
  const std::size_t n = Rounds().rounds.size();

  // One shard, so one assembler thread runs every callback; per-tag
  // sequences need no lock.
  std::vector<std::vector<PositionUpdate>> delivered(kTags);
  service.SetUpdateCallback([&](const PositionUpdate& u) {
    delivered[u.tag_id].push_back(u);
  });
  service.Start();

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t k = 0; k < kRoundsPerTag; ++k) {
        for (std::size_t i = 0; i < kTagsPerProducer; ++i) {
          const std::uint64_t t = p * kTagsPerProducer + i;
          SendRound(service, t, (t * 31 + k) % n, k);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(service.Drain(kDrain));
  service.Stop();

  for (std::uint64_t t = 0; t < kTags; ++t) {
    ASSERT_EQ(delivered[t].size(), kRoundsPerTag) << "tag " << t;
    for (std::uint64_t k = 0; k < kRoundsPerTag; ++k) {
      EXPECT_EQ(delivered[t][k].round_id, k) << "per-tag order violated";
      ExpectIdentical(delivered[t][k].result, Reference()[(t * 31 + k) % n]);
    }
  }
  const ServiceCounters counters = service.Counters();
  const std::size_t frames_per_round = Rounds().rounds[0].reports.size();
  EXPECT_EQ(counters.admitted_frames,
            kTags * kRoundsPerTag * frames_per_round);
  EXPECT_EQ(counters.localized_rounds, kTags * kRoundsPerTag);
  EXPECT_EQ(counters.duplicate_frames, 0u);
  EXPECT_EQ(counters.shed_rounds, 0u);
}

TEST(LocalizationService, ShardsAreIndependentAndFullRingRefuses) {
  ServiceOptions options;
  options.shards = 4;
  options.ring_capacity = 4;
  LocalizationService service(Rounds().deployment, Config(), options);
  // Not started: frames stay in the rings, making capacity observable.

  const std::uint64_t tag_a = 0;
  std::uint64_t tag_b = 1;
  while (service.ShardOf(tag_b) == service.ShardOf(tag_a)) ++tag_b;

  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(service.Ingest(tag_a, FrameFor(0, 0, k)));
  }
  // Tag A's ring is full -> refusal; tag B's shard is unaffected.
  EXPECT_FALSE(service.Ingest(tag_a, FrameFor(0, 0, 4)));
  EXPECT_EQ(service.Counters().refused_frames, 1u);
  EXPECT_TRUE(service.Ingest(tag_b, FrameFor(0, 0, 0)));

  // Draining tag A's shard must release the ring slots.
  service.Start();
  ASSERT_TRUE(service.Drain(kDrain));
  EXPECT_TRUE(service.Ingest(tag_a, FrameFor(0, 0, 5)));
  service.Stop();
}

TEST(LocalizationService, ShedOldestEvictsTheLowestRoundId) {
  ServiceOptions options;
  options.shards = 1;
  options.max_assembling_rounds = 2;
  options.shed_policy = ShedPolicy::kShedOldest;
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();

  const std::uint64_t tag = 7;
  const std::size_t master = MasterReportIndex(0);
  // Three incomplete rounds against a bound of two: round 0 must be shed.
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(service.Ingest(tag, FrameFor(0, master, k)));
  }
  ASSERT_TRUE(WaitFor([&] { return service.Counters().shed_rounds == 1; }));

  // Rounds 1 and 2 survived: completing them must localize both.
  const auto& reports = Rounds().rounds[0].reports;
  for (std::uint64_t k = 1; k < 3; ++k) {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i == master) continue;
      while (!service.Ingest(tag, FrameFor(0, i, k))) {
        std::this_thread::yield();
      }
    }
  }
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().localized_rounds == 2; }));
  EXPECT_EQ(service.Poll(tag)->round_id, 1u);
  EXPECT_EQ(service.Poll(tag)->round_id, 2u);
  service.Stop();
}

TEST(LocalizationService, RefuseNewKeepsInFlightRounds) {
  ServiceOptions options;
  options.shards = 1;
  options.max_assembling_rounds = 2;
  options.shed_policy = ShedPolicy::kRefuseNew;
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();

  const std::uint64_t tag = 9;
  const std::size_t master = MasterReportIndex(0);
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(service.Ingest(tag, FrameFor(0, master, k)));
  }
  // Round 2's opening frame is refused at the assembly stage.
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().refused_frames == 1; }));
  EXPECT_EQ(service.Counters().shed_rounds, 0u);

  // Rounds 0 and 1 are intact: completing them localizes both, in order.
  const auto& reports = Rounds().rounds[0].reports;
  for (std::uint64_t k = 0; k < 2; ++k) {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i == master) continue;
      while (!service.Ingest(tag, FrameFor(0, i, k))) {
        std::this_thread::yield();
      }
    }
  }
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().localized_rounds == 2; }));
  EXPECT_EQ(service.Poll(tag)->round_id, 0u);
  EXPECT_EQ(service.Poll(tag)->round_id, 1u);
  service.Stop();
}

TEST(LocalizationService, RoundTimeoutGcExpiresPartialRounds) {
  ServiceOptions options;
  options.shards = 2;
  options.round_timeout = std::chrono::milliseconds(50);
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();

  // A lossy anchor: only the master's frame ever arrives.
  ASSERT_TRUE(service.Ingest(3, FrameFor(0, MasterReportIndex(0), 0)));
  ASSERT_TRUE(WaitFor([&] {
    const ServiceCounters c = service.Counters();
    return c.expired_rounds == 1 && c.expired_frames == 1;
  }));

  // The tag is healthy afterwards: a complete round still localizes.
  SendRound(service, 3, 0, 1);
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().localized_rounds == 1; }));
  const auto update = service.Poll(3);
  ASSERT_TRUE(update.has_value());
  ExpectIdentical(update->result, Reference()[0]);
  service.Stop();
}

TEST(LocalizationService, DuplicateFramesAreDroppedNotAssembled) {
  ServiceOptions options;
  options.shards = 1;
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();

  const std::size_t master = MasterReportIndex(0);
  ASSERT_TRUE(service.Ingest(5, FrameFor(0, master, 0)));
  ASSERT_TRUE(service.Ingest(5, FrameFor(0, master, 0)));  // duplicate
  const auto& reports = Rounds().rounds[0].reports;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i == master) continue;
    ASSERT_TRUE(service.Ingest(5, FrameFor(0, i, 0)));
  }
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(WaitFor([&] {
    const ServiceCounters c = service.Counters();
    return c.duplicate_frames == 1 && c.localized_rounds == 1;
  }));
  ExpectIdentical(service.Poll(5)->result, Reference()[0]);
  service.Stop();
}

TEST(LocalizationService, UnknownAnchorAndStoppedServiceRefuse) {
  LocalizationService service(Rounds().deployment, Config(), {});
  service.Start();
  anchor::CsiReport rogue = FrameFor(0, 0, 0);
  rogue.anchor_id = 9999;
  ASSERT_TRUE(service.Ingest(1, rogue));  // admitted to the ring...
  ASSERT_TRUE(WaitFor(  // ...but refused: not an anchor of the deployment
      [&] { return service.Counters().refused_frames == 1; }));
  service.Stop();
  EXPECT_FALSE(service.Ingest(1, FrameFor(0, 0, 0)));
}

TEST(LocalizationService, UnknownAnchorHelloIsIgnored) {
  // A hello must not enrol an anchor the deployment has no pose for: its
  // report would complete a round the localizer cannot map, and without
  // one every new session's rounds would wait for it until they expire.
  LocalizationService service(Rounds().deployment, Config(), {});
  service.Start();
  service.OnMessage(net::AnchorHelloMsg{999, false});
  SendRound(service, 1, 0, 0);
  // A copy of a slave's report, so only its anchor id is wrong.
  anchor::CsiReport rogue = FrameFor(0, MasterReportIndex(0) == 0 ? 1 : 0, 0);
  rogue.anchor_id = 999;
  ASSERT_TRUE(service.Ingest(1, std::move(rogue)));
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(WaitFor([&] { return service.Counters().refused_frames == 1; }));
  const auto update = service.Poll(1);
  ASSERT_TRUE(update.has_value());
  ExpectIdentical(update->result, Reference()[0]);
  EXPECT_EQ(service.Counters().expired_rounds, 0u);
  service.Stop();
}

TEST(LocalizationService, EngineAdmissionBoundStallsWithoutDeadlock) {
  ServiceOptions options;
  options.shards = 2;
  options.engine_threads = 2;       // real pool: futures resolve async
  options.max_inflight_locates = 1; // assembler must stall and sweep
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();

  const std::size_t n = Rounds().rounds.size();
  for (std::uint64_t t = 0; t < 6; ++t) SendRound(service, t, t % n, 0);
  ASSERT_TRUE(service.Drain(kDrain));
  for (std::uint64_t t = 0; t < 6; ++t) {
    const auto update = service.Poll(t);
    ASSERT_TRUE(update.has_value());
    ExpectIdentical(update->result, Reference()[t % n]);
  }
  EXPECT_EQ(service.InflightLocates(), 0u);
  service.Stop();
}

// ---------------------------------------------------------------------------
// Default options: all-core engine pool, wake-on-work assemblers

/// A coarser search grid: the same pipeline at a quarter of the cells, so
/// the many-round tests below stay quick under the sanitizers.
core::LocalizerConfig CoarseConfig() {
  core::LocalizerConfig config = Config();
  config.grid.resolution = 0.15;
  return config;
}

TEST(LocalizationService, DefaultOptionsManyTagsMatchSerialPathAndTrack) {
  ServiceOptions options;
  EXPECT_EQ(options.engine_threads, 0u);  // all cores
  // Every option stays at its default but the round timeout: a tag's round
  // completes only after 768 frames of other tags, which a slow sanitizer
  // build can stretch past the default 2 s, and expiring it would then be
  // the right behaviour rather than what this test checks.
  options.round_timeout = std::chrono::hours(1);
  const core::LocalizerConfig config = CoarseConfig();
  LocalizationService service(Rounds().deployment, config, options);
  EXPECT_EQ(service.engine().threads(),
            std::max(1u, std::thread::hardware_concurrency()));

  constexpr std::size_t kTags = 256;
  constexpr std::size_t kRoundsPerTag = 3;
  const std::size_t n = Rounds().rounds.size();
  const auto pick = [n](std::uint64_t t, std::uint64_t k) {
    return static_cast<std::size_t>((t * 7 + k * 3) % n);
  };

  // One writer per tag: the assembler thread owning the tag's shard.
  std::vector<std::vector<PositionUpdate>> delivered(kTags);
  service.SetUpdateCallback(
      [&](const PositionUpdate& u) { delivered[u.tag_id].push_back(u); });
  service.Start();

  // Interleaved across tags: round k's anchor-a frame of every tag goes out
  // before any tag's anchor-(a+1) frame, so all 256 rounds assemble at once.
  const std::size_t anchors = Rounds().rounds[0].reports.size();
  for (std::uint64_t k = 0; k < kRoundsPerTag; ++k) {
    for (std::size_t a = 0; a < anchors; ++a) {
      for (std::uint64_t t = 0; t < kTags; ++t) {
        while (!service.Ingest(t, FrameFor(pick(t, k), a, k))) {
          std::this_thread::yield();
        }
      }
    }
  }
  ASSERT_TRUE(service.Drain(kDrain));
  service.Stop();

  std::vector<core::LocationResult> serial;
  const core::Localizer localizer(Rounds().deployment, config);
  for (const net::MeasurementRound& round : Rounds().rounds) {
    serial.push_back(localizer.Locate(round));
  }
  for (std::uint64_t t = 0; t < kTags; ++t) {
    ASSERT_EQ(delivered[t].size(), kRoundsPerTag) << "tag " << t;
    // Replay the tag's fixes through a serial tracker under the service's
    // dt rule: the tracked state must match bit for bit.
    track::KalmanTracker tracker(options.kalman);
    bool has_tracked = false;
    std::uint64_t last_tracked = 0;
    for (std::uint64_t k = 0; k < kRoundsPerTag; ++k) {
      const PositionUpdate& u = delivered[t][k];
      ASSERT_EQ(u.round_id, k) << "per-tag round order violated, tag " << t;
      ExpectIdentical(u.result, serial[pick(t, k)]);
      geom::Vec2 tracked = u.result.position;
      geom::Vec2 velocity;
      bool accepted = false;
      if (u.result.anchors_used > 0) {
        const double dt =
            has_tracked ? static_cast<double>(k - last_tracked) *
                              options.round_period_s
                        : 0.0;
        accepted = tracker.Update(u.result.position, dt);
        if (!has_tracked || accepted || dt > 0.0) {
          last_tracked = k;
          has_tracked = true;
        }
        tracked = tracker.position();
        velocity = tracker.velocity();
      } else if (tracker.initialized()) {
        tracked = tracker.position();
        velocity = tracker.velocity();
      }
      EXPECT_EQ(u.fix_accepted, accepted);
      EXPECT_EQ(u.tracked_position.x, tracked.x);
      EXPECT_EQ(u.tracked_position.y, tracked.y);
      EXPECT_EQ(u.velocity.x, velocity.x);
      EXPECT_EQ(u.velocity.y, velocity.y);
    }
  }

  // Conservation: every admitted frame ended in a localized round.
  const ServiceCounters c = service.Counters();
  EXPECT_EQ(c.admitted_frames, kTags * kRoundsPerTag * anchors);
  EXPECT_EQ(c.completed_rounds, kTags * kRoundsPerTag);
  EXPECT_EQ(c.localized_rounds, kTags * kRoundsPerTag);
  EXPECT_EQ(c.refused_frames, 0u);
  EXPECT_EQ(c.duplicate_frames, 0u);
  EXPECT_EQ(c.shed_rounds, 0u);
  EXPECT_EQ(c.expired_rounds, 0u);
  EXPECT_EQ(c.expired_frames, 0u);
  EXPECT_EQ(c.dropped_updates, 0u);
  EXPECT_EQ(service.RingDepth(), 0u);
  EXPECT_EQ(service.InflightLocates(), 0u);
}

TEST(LocalizationService, BurstsAfterIdleGapsAlwaysDrain) {
  // Lost-wake-up stress: each burst lands on parked assemblers (an idle
  // gap precedes it) and must drain completely. The round timeout pushes
  // the GC deadline, the assemblers' only timed wait, to its 1 s cap, so a
  // lost wake-up would stall a burst rather than be covered by polling.
  // A tight in-flight bound also parks assemblers in engine admission,
  // released by completions or, with two assemblers, by each other.
  for (const std::size_t assemblers : {1u, 2u}) {
    SCOPED_TRACE(assemblers);
    ServiceOptions options;
    options.shards = 4;
    options.assembler_threads = assemblers;
    options.max_inflight_locates = 2;
    options.round_timeout = std::chrono::hours(1);
    LocalizationService service(Rounds().deployment, CoarseConfig(), options);
    std::atomic<std::uint64_t> updates{0};
    service.SetUpdateCallback(
        [&](const PositionUpdate&) { updates.fetch_add(1); });
    service.Start();

    constexpr std::size_t kBursts = 40;
    constexpr std::size_t kProducers = 2;
    constexpr std::uint64_t kTagsPerProducer = 4;
    const std::size_t n = Rounds().rounds.size();
    std::vector<std::uint64_t> next_round(kProducers * kTagsPerProducer, 0);
    std::uint64_t sent = 0;
    for (std::size_t b = 0; b < kBursts; ++b) {
      std::this_thread::sleep_for(std::chrono::microseconds(500 * (b % 4)));
      // Burst b: producer p sends one round for (b % 3) + 1 of its tags.
      const std::size_t tags_per_producer = b % 3 + 1;
      std::vector<std::thread> producers;
      for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          for (std::size_t i = 0; i < tags_per_producer; ++i) {
            const std::uint64_t tag = p * kTagsPerProducer + (b + i) % 4;
            SendRound(service, tag, (tag + b) % n, next_round[tag]++);
          }
        });
      }
      for (std::thread& t : producers) t.join();
      sent += kProducers * tags_per_producer;
      ASSERT_TRUE(service.Drain(kDrain)) << "burst " << b;
      // Drain returns once the last callback has run.
      ASSERT_EQ(updates.load(), sent) << "burst " << b;
    }
    service.Stop();
    const ServiceCounters c = service.Counters();
    const std::size_t anchors = Rounds().rounds[0].reports.size();
    EXPECT_EQ(c.admitted_frames, sent * anchors);
    EXPECT_EQ(c.completed_rounds, sent);
    EXPECT_EQ(c.localized_rounds, sent);
    EXPECT_EQ(c.refused_frames + c.duplicate_frames + c.shed_rounds +
                  c.expired_rounds,
              0u);
  }
}

TEST(LocalizationService, InlineEngineUnderTwoAssemblers) {
  // engine_threads = 1 runs each locate on the calling assembler, so two
  // assemblers localize concurrently on a one-slot engine.
  ServiceOptions options;
  options.shards = 4;
  options.assembler_threads = 2;
  options.engine_threads = 1;
  LocalizationService service(Rounds().deployment, CoarseConfig(), options);
  service.Start();
  constexpr std::uint64_t kTags = 16;
  const std::size_t n = Rounds().rounds.size();
  for (std::uint64_t k = 0; k < 2; ++k) {
    for (std::uint64_t t = 0; t < kTags; ++t) {
      SendRound(service, t, (t + k) % n, k);
    }
  }
  ASSERT_TRUE(service.Drain(kDrain));
  service.Stop();
  const core::Localizer localizer(Rounds().deployment, CoarseConfig());
  for (std::uint64_t t = 0; t < kTags; ++t) {
    for (std::uint64_t k = 0; k < 2; ++k) {
      const auto update = service.Poll(t);
      ASSERT_TRUE(update.has_value());
      EXPECT_EQ(update->round_id, k);
      ExpectIdentical(update->result,
                      localizer.Locate(Rounds().rounds[(t + k) % n]));
    }
  }
  EXPECT_EQ(service.Counters().localized_rounds, 2 * kTags);
}

// ---------------------------------------------------------------------------
// Transport integration

TEST(LocalizationService, TagReportsRouteThroughTheWireCodec) {
  ServiceOptions options;
  options.shards = 2;
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();
  net::InProcTransport transport(service);

  for (const anchor::CsiReport& report : Rounds().rounds[2].reports) {
    anchor::CsiReport frame = report;
    frame.round_id = 0;
    transport.Send(net::TagCsiReportMsg{42, std::move(frame)});
  }
  // A plain (untagged) CsiReport is adopted as tag 0.
  for (const anchor::CsiReport& report : Rounds().rounds[1].reports) {
    anchor::CsiReport frame = report;
    frame.round_id = 0;
    transport.Send(net::CsiReportMsg{std::move(frame)});
  }
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().localized_rounds == 2; }));

  const auto tagged = service.Poll(42);
  ASSERT_TRUE(tagged.has_value());
  ExpectIdentical(tagged->result, Reference()[2]);
  const auto untagged = service.Poll(0);
  ASSERT_TRUE(untagged.has_value());
  ExpectIdentical(untagged->result, Reference()[1]);
  service.Stop();
}

TEST(TagCsiReportMsg, FrameRoundTrip) {
  const net::TagCsiReportMsg msg{0x1234567890ull,
                                 Rounds().rounds[0].reports[1]};
  const net::Buffer frame = net::EncodeFrame(msg);
  std::optional<net::Message> decoded;
  ASSERT_EQ(net::DecodeFrame(frame, decoded), frame.size());
  const auto* out = std::get_if<net::TagCsiReportMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->tag_id, msg.tag_id);
  EXPECT_EQ(out->report.anchor_id, msg.report.anchor_id);
  EXPECT_EQ(out->report.round_id, msg.report.round_id);
  ASSERT_EQ(out->report.band_count(), msg.report.band_count());
  EXPECT_TRUE(out->report == msg.report);
}

}  // namespace
}  // namespace bloc::serve
