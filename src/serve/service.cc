#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace bloc::serve {

namespace {

constexpr std::size_t kDrainBatch = 64;

}  // namespace

/// Registry handles, resolved once per process (obs/metrics.h dedupes by
/// name, so every service instance feeds one set of serve.* metrics).
struct LocalizationService::Metrics {
  obs::Counter& admitted = obs::GetCounter("serve.admitted");
  obs::Counter& refused = obs::GetCounter("serve.refused");
  obs::Counter& shed = obs::GetCounter("serve.shed");
  obs::Counter& expired = obs::GetCounter("serve.expired");
  obs::Counter& duplicates = obs::GetCounter("serve.duplicates");
  obs::Counter& completed = obs::GetCounter("serve.completed_rounds");
  obs::Counter& localized = obs::GetCounter("serve.localized_rounds");
  // Up/down gauges: paired Add/Sub stay exact even when metric recording is
  // toggled mid-run, and the built-in watermark keeps the old high-water
  // reading alongside (the _max series on /metrics).
  obs::UpDownGauge& ring_depth = obs::GetUpDownGauge("serve.ring_depth");
  obs::UpDownGauge& inflight = obs::GetUpDownGauge("serve.inflight_locates");
  obs::Histogram& e2e_latency_us =
      obs::GetHistogram("serve.e2e_latency_us");

  static const Metrics& Get() {
    static const Metrics metrics;
    return metrics;
  }
};

LocalizationService::LocalizationService(core::Deployment deployment,
                                         core::LocalizerConfig config,
                                         ServiceOptions options)
    : options_(std::move(options)),
      engine_(deployment, std::move(config),
              {.threads = options_.engine_threads}) {
  options_.shards = RingCapacityFor(std::max<std::size_t>(options_.shards, 1));
  options_.assembler_threads = std::clamp<std::size_t>(
      options_.assembler_threads, 1, options_.shards);
  if (options_.max_inflight_locates == 0) {
    options_.max_inflight_locates = 4 * engine_.threads();
  }
  options_.max_assembling_rounds =
      std::max<std::size_t>(options_.max_assembling_rounds, 1);
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(
        std::make_unique<TagSessionShard>(options_.ring_capacity));
  }
  wakes_.reserve(options_.assembler_threads);
  for (std::size_t w = 0; w < options_.assembler_threads; ++w) {
    wakes_.push_back(std::make_unique<AssemblerWake>());
  }
  anchor_ids_ = deployment.AnchorIds();
  std::sort(anchor_ids_.begin(), anchor_ids_.end());
  accepting_.store(true, std::memory_order_release);
}

LocalizationService::~LocalizationService() { Stop(); }

void LocalizationService::SetUpdateCallback(
    std::function<void(const PositionUpdate&)> callback) {
  callback_ = std::move(callback);
}

void LocalizationService::Start() {
  if (running_.exchange(true)) return;
  assemblers_.reserve(options_.assembler_threads);
  for (std::size_t w = 0; w < options_.assembler_threads; ++w) {
    assemblers_.emplace_back([this, w] { AssemblerLoop(w); });
  }
}

void LocalizationService::Stop() {
  accepting_.store(false, std::memory_order_release);
  if (running_.load(std::memory_order_acquire)) {
    // Let the assemblers finish the admitted work before asking them out:
    // incomplete rounds awaiting more frames are not work (their frames can
    // no longer arrive), in-flight localizations and ring residue are.
    while (frames_in_rings_.load(std::memory_order_acquire) > 0 ||
           inflight_locates_.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  running_.store(false, std::memory_order_release);
  WakeAll();
  for (std::thread& t : assemblers_) t.join();
  assemblers_.clear();
}

bool LocalizationService::Drain(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (frames_in_rings_.load(std::memory_order_acquire) > 0 ||
         inflight_locates_.load(std::memory_order_acquire) > 0) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

bool LocalizationService::Ingest(std::uint64_t tag_id,
                                 anchor::CsiReport report) {
  const Metrics& metrics = Metrics::Get();
  if (!accepting_.load(std::memory_order_acquire)) {
    refused_frames_.fetch_add(1, std::memory_order_relaxed);
    metrics.refused.Inc();
    return false;
  }
  const std::size_t shard_index = ShardOf(tag_id);
  TagSessionShard& shard = *shards_[shard_index];
  TagFrame frame{tag_id, obs::NowNs(), std::move(report)};
  if (!shard.ring.TryPush(std::move(frame))) {
    refused_frames_.fetch_add(1, std::memory_order_relaxed);
    metrics.refused.Inc();
    return false;
  }
  frames_in_rings_.fetch_add(1, std::memory_order_release);
  // Only a push into an empty ring wakes the assembler. A push that finds
  // depth > 0 needs no wake: the assembler has yet to lower depth for an
  // earlier frame, and that acq_rel decrement (which sees this push) is
  // followed by another pop before it can park. A push that finds depth
  // wrapped below zero (its frame already popped) is covered by the
  // producer whose increment brings depth back to zero.
  if (shard.depth.fetch_add(1, std::memory_order_acq_rel) == 0) {
    Wake(WorkerOf(shard_index));
  }
  admitted_frames_.fetch_add(1, std::memory_order_relaxed);
  metrics.admitted.Inc();
  metrics.ring_depth.Add(1);
  return true;
}

void LocalizationService::OnMessage(net::Message&& msg) {
  if (auto* tagged = std::get_if<net::TagCsiReportMsg>(&msg)) {
    Ingest(tagged->tag_id, std::move(tagged->report));
    return;
  }
  if (auto* report = std::get_if<net::CsiReportMsg>(&msg)) {
    // Single-tenant drop-in: untagged reports belong to tag 0.
    Ingest(0, std::move(report->report));
    return;
  }
  // AnchorHelloMsg carries nothing the deployment does not already fix
  // (see OnMessage in service.h); LocationEstimateMsg flows server ->
  // clients. Both are ignored on ingest.
}

std::optional<PositionUpdate> LocalizationService::Poll(std::uint64_t tag_id) {
  TagSessionShard& shard = *shards_[ShardOf(tag_id)];
  std::lock_guard lock(shard.mutex);
  const auto it = shard.sessions.find(tag_id);
  if (it == shard.sessions.end() || it->second.ready.empty()) {
    return std::nullopt;
  }
  PositionUpdate update = std::move(it->second.ready.front());
  it->second.ready.pop_front();
  return update;
}

ServiceCounters LocalizationService::Counters() const {
  ServiceCounters c;
  c.admitted_frames = admitted_frames_.load(std::memory_order_relaxed);
  c.refused_frames = refused_frames_.load(std::memory_order_relaxed);
  c.duplicate_frames = duplicate_frames_.load(std::memory_order_relaxed);
  c.shed_rounds = shed_rounds_.load(std::memory_order_relaxed);
  c.expired_rounds = expired_rounds_.load(std::memory_order_relaxed);
  c.expired_frames = expired_frames_.load(std::memory_order_relaxed);
  c.completed_rounds = completed_rounds_.load(std::memory_order_relaxed);
  c.localized_rounds = localized_rounds_.load(std::memory_order_relaxed);
  c.dropped_updates = dropped_updates_.load(std::memory_order_relaxed);
  c.sessions_expired = sessions_expired_.load(std::memory_order_relaxed);
  return c;
}

std::size_t LocalizationService::RingDepth() const {
  return frames_in_rings_.load(std::memory_order_relaxed);
}

ServiceHealthStats LocalizationService::HealthStats() const {
  ServiceHealthStats stats;
  stats.counters = Counters();
  stats.inflight_locates = InflightLocates();
  stats.shards.reserve(shards_.size());
  std::vector<std::uint32_t> window;
  window.reserve(TagSessionShard::kLatencyWindow);
  for (const auto& shard_ptr : shards_) {
    TagSessionShard& shard = *shard_ptr;
    ShardHealth sh;
    sh.ring_depth = shard.depth.load(std::memory_order_relaxed);
    window.clear();
    {
      std::lock_guard lock(shard.mutex);
      sh.localized_rounds = shard.localized_rounds;
      const std::size_t valid =
          std::min<std::uint64_t>(shard.latency_recorded,
                                  TagSessionShard::kLatencyWindow);
      window.assign(shard.latency_window.begin(),
                    shard.latency_window.begin() + valid);
    }
    sh.window_samples = window.size();
    if (!window.empty()) {
      std::sort(window.begin(), window.end());
      const auto at = [&window](double q) {
        const std::size_t idx = static_cast<std::size_t>(
            q * static_cast<double>(window.size() - 1) + 0.5);
        return static_cast<double>(window[std::min(idx, window.size() - 1)]);
      };
      sh.window_p50_us = at(0.50);
      sh.window_p99_us = at(0.99);
    }
    stats.shards.push_back(sh);
  }
  // Cold path: resolving by name per scrape is fine, and returns zeros when
  // the search counters have never been touched (or obs is compiled out).
  stats.search_gated_rounds =
      obs::GetCounter("bloc.search.gated_rounds").Value();
  stats.search_gate_misses =
      obs::GetCounter("bloc.search.gate_misses").Value();
  stats.search_fallbacks = obs::GetCounter("bloc.search.fallbacks").Value();
  return stats;
}

void LocalizationService::Wake(std::size_t worker) {
  AssemblerWake& wake = *wakes_[worker];
  // seq_cst pairs with Park(): either this increment is seen by the
  // assembler's predicate, or `parked` is seen here and the notify (under
  // the mutex, so it cannot slip in before the wait) wakes it.
  wake.epoch.fetch_add(1, std::memory_order_seq_cst);
  if (wake.parked.load(std::memory_order_seq_cst)) {
    std::lock_guard lock(wake.mutex);
    wake.cv.notify_one();
  }
}

void LocalizationService::WakeAll() {
  for (std::size_t w = 0; w < wakes_.size(); ++w) Wake(w);
}

void LocalizationService::Park(
    std::size_t worker, std::uint64_t seen,
    std::chrono::steady_clock::time_point deadline) {
  AssemblerWake& wake = *wakes_[worker];
  std::unique_lock lock(wake.mutex);
  wake.parked.store(true, std::memory_order_seq_cst);
  wake.cv.wait_until(lock, deadline, [&] {
    return wake.epoch.load(std::memory_order_seq_cst) != seen ||
           !running_.load(std::memory_order_acquire);
  });
  wake.parked.store(false, std::memory_order_relaxed);
}

void LocalizationService::AssemblerLoop(std::size_t worker) {
  const std::chrono::nanoseconds gc_period = GcPeriod();
  auto next_gc = std::chrono::steady_clock::now() + gc_period;
  while (running_.load(std::memory_order_acquire)) {
    // Read before the pass: any wake from here on makes Park return at
    // once, so work that arrives during the pass is never slept on.
    const std::uint64_t seen =
        wakes_[worker]->epoch.load(std::memory_order_seq_cst);
    std::size_t work = 0;
    for (std::size_t s = worker; s < shards_.size();
         s += options_.assembler_threads) {
      work += DrainShardRing(worker, *shards_[s]);
      work += SweepCompletions(*shards_[s]);
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_gc) {
      next_gc = now + gc_period;
      const std::uint64_t now_ns = obs::NowNs();
      for (std::size_t s = worker; s < shards_.size();
           s += options_.assembler_threads) {
        CollectGarbage(*shards_[s], now_ns);
      }
    }
    if (work == 0) Park(worker, seen, next_gc);
  }
}

std::size_t LocalizationService::DrainShardRing(std::size_t worker,
                                                TagSessionShard& shard) {
  const Metrics& metrics = Metrics::Get();
  std::size_t popped = 0;
  std::unique_lock lock(shard.mutex, std::defer_lock);
  TagFrame frame;
  while (popped < kDrainBatch && shard.ring.TryPop(frame)) {
    if (!lock.owns_lock()) lock.lock();
    Assemble(worker, shard, lock, std::move(frame));
    // Decrement only after assembly so Drain() never observes an
    // all-zero instant while a frame is between the ring and the engine
    // (AdmitRound raises inflight_locates_ before this drops to zero).
    frames_in_rings_.fetch_sub(1, std::memory_order_release);
    shard.depth.fetch_sub(1, std::memory_order_acq_rel);
    metrics.ring_depth.Sub(1);
    ++popped;
  }
  return popped;
}

void LocalizationService::Assemble(std::size_t worker, TagSessionShard& shard,
                                   std::unique_lock<std::mutex>& lock,
                                   TagFrame&& frame) {
  const Metrics& metrics = Metrics::Get();
  auto [it, created] = shard.sessions.try_emplace(frame.tag_id);
  TagSession& session = it->second;
  if (created) {
    session.tracker = track::KalmanTracker(options_.kalman);
  }
  session.last_activity_ns = frame.ingest_ns;
  if (!std::binary_search(anchor_ids_.begin(), anchor_ids_.end(),
                          frame.report.anchor_id)) {
    refused_frames_.fetch_add(1, std::memory_order_relaxed);
    metrics.refused.Inc();
    return;  // not an anchor of the deployment
  }

  const std::uint64_t round_id = frame.report.round_id;
  auto round_it = session.assembling.find(round_id);
  if (round_it == session.assembling.end()) {
    if (session.assembling.size() >= options_.max_assembling_rounds) {
      if (options_.shed_policy == ShedPolicy::kRefuseNew) {
        refused_frames_.fetch_add(1, std::memory_order_relaxed);
        metrics.refused.Inc();
        return;
      }
      // kShedOldest: evict the lowest round id — the longest-waiting
      // incomplete round — to admit fresh data.
      const auto oldest = session.assembling.begin();
      expired_frames_.fetch_add(oldest->second.reports.size(),
                                std::memory_order_relaxed);
      shed_rounds_.fetch_add(1, std::memory_order_relaxed);
      metrics.shed.Inc();
      session.assembling.erase(oldest);
    }
    round_it = session.assembling
                   .emplace(round_id,
                            AssemblingRound{frame.ingest_ns, obs::NowNs(), {}})
                   .first;
    round_it->second.reports.reserve(anchor_ids_.size());
  }

  AssemblingRound& round = round_it->second;
  for (const anchor::CsiReport& existing : round.reports) {
    if (existing.anchor_id == frame.report.anchor_id) {
      duplicate_frames_.fetch_add(1, std::memory_order_relaxed);
      metrics.duplicates.Inc();
      return;
    }
  }
  round.reports.push_back(std::move(frame.report));
  if (round.reports.size() == anchor_ids_.size()) {
    AssemblingRound completed = std::move(round);
    session.assembling.erase(round_it);
    session.inflight += 1;
    AdmitRound(worker, shard, lock, frame.tag_id, round_id,
               std::move(completed));
  }
}

void LocalizationService::AdmitRound(std::size_t worker,
                                     TagSessionShard& shard,
                                     std::unique_lock<std::mutex>& lock,
                                     std::uint64_t tag_id,
                                     std::uint64_t round_id,
                                     AssemblingRound&& round) {
  const Metrics& metrics = Metrics::Get();
  // Engine admission control: at the in-flight bound the assembler stalls
  // (sweeping its shards so completions retire, parked between them)
  // instead of queueing rounds without limit. The stall propagates: rings
  // fill, producers get refusals.
  while (inflight_locates_.load(std::memory_order_acquire) >=
         options_.max_inflight_locates) {
    lock.unlock();
    const std::uint64_t seen =
        wakes_[worker]->epoch.load(std::memory_order_seq_cst);
    std::size_t retired = 0;
    for (std::size_t s = worker; s < shards_.size();
         s += options_.assembler_threads) {
      retired += SweepCompletions(*shards_[s]);
    }
    if (retired == 0 && inflight_locates_.load(std::memory_order_acquire) >=
                            options_.max_inflight_locates) {
      // Woken by a completion on one of this worker's shards, or by
      // another assembler retiring a round below the bound.
      Park(worker, seen, std::chrono::steady_clock::now() + GcPeriod());
    }
    lock.lock();
  }

  std::unique_ptr<InflightLocate> node = AcquireNode();
  node->tag_id = tag_id;
  node->first_ingest_ns = round.first_ingest_ns;
  node->round.round_id = round_id;
  node->round.reports = std::move(round.reports);
  inflight_locates_.fetch_add(1, std::memory_order_release);
  metrics.inflight.Add(1);
  completed_rounds_.fetch_add(1, std::memory_order_relaxed);
  metrics.completed.Inc();
  // The engine pool localizes on its workspace free list; with an inline
  // pool (engine_threads = 1) this runs right here on the assembler. The
  // completion marks the node ready and wakes its assembler; the node may
  // be recycled as soon as `ready` is seen, so nothing touches it after.
  InflightLocate* raw = node.get();
  node->done = engine_.LocateAsync(node->round, node->result, [this, raw] {
    const std::size_t owner = WorkerOf(ShardOf(raw->tag_id));
    raw->ready.store(true, std::memory_order_release);
    Wake(owner);
  });
  shard.inflight.push_back(std::move(node));
}

std::size_t LocalizationService::SweepCompletions(TagSessionShard& shard) {
  const Metrics& metrics = Metrics::Get();
  std::vector<PositionUpdate> callbacks;
  std::size_t delivered = 0;
  {
    std::lock_guard lock(shard.mutex);
    // Front-first delivery keeps per-tag updates in round order even when
    // the pool finishes later rounds before earlier ones.
    while (!shard.inflight.empty() &&
           shard.inflight.front()->ready.load(std::memory_order_acquire)) {
      std::unique_ptr<InflightLocate> node = std::move(shard.inflight.front());
      shard.inflight.pop_front();
      // Locate does not throw; surfaces bugs loudly. May wait a moment for
      // the future, which resolves just after the completion signal.
      node->done.get();
      const std::uint64_t now = obs::NowNs();
      const std::uint64_t latency_us =
          (now - node->first_ingest_ns) / 1000;
      metrics.e2e_latency_us.Record(latency_us);
      // Per-shard rolling window for /healthz: recent latency, not
      // since-start. Under the shard mutex like every session mutation.
      shard.latency_window[shard.latency_recorded %
                           TagSessionShard::kLatencyWindow] =
          latency_us > 0xffffffffull
              ? 0xffffffffu
              : static_cast<std::uint32_t>(latency_us);
      ++shard.latency_recorded;
      ++shard.localized_rounds;
      localized_rounds_.fetch_add(1, std::memory_order_relaxed);
      metrics.localized.Inc();

      PositionUpdate update;
      update.tag_id = node->tag_id;
      update.round_id = node->round.round_id;
      update.result = std::move(node->result);
      update.latency_us = latency_us;

      const auto it = shard.sessions.find(node->tag_id);
      if (it != shard.sessions.end()) {
        TagSession& session = it->second;
        session.inflight -= 1;
        session.last_activity_ns = now;
        update.tracked_position = update.result.position;
        if (options_.track && update.result.anchors_used > 0) {
          // Round-ordered delivery (front-first FIFO) keeps the per-tag dt
          // sequence monotone; a duplicate or reordered round id yields
          // dt <= 0, which the tracker rejects rather than corrupting the
          // covariance.
          const double dt =
              session.has_tracked_round
                  ? static_cast<double>(static_cast<std::int64_t>(
                        update.round_id - session.last_tracked_round)) *
                        options_.round_period_s
                  : 0.0;
          update.fix_accepted =
              session.tracker.Update(update.result.position, dt);
          if (!session.has_tracked_round ||
              update.fix_accepted || dt > 0.0) {
            session.last_tracked_round = update.round_id;
            session.has_tracked_round = true;
          }
          update.tracked_position = session.tracker.position();
          update.velocity = session.tracker.velocity();
        } else if (options_.track && session.tracker.initialized()) {
          // Empty round: report the last known track without advancing it.
          update.tracked_position = session.tracker.position();
          update.velocity = session.tracker.velocity();
        }
        if (!callback_) {
          if (session.ready.size() >= options_.max_ready_updates) {
            session.ready.pop_front();
            dropped_updates_.fetch_add(1, std::memory_order_relaxed);
          }
          session.ready.push_back(std::move(update));
        } else {
          callbacks.push_back(std::move(update));
        }
      } else if (callback_) {
        callbacks.push_back(std::move(update));
      }
      RecycleNode(std::move(node));
      ++delivered;
    }
  }
  // Callbacks run outside the shard mutex: user code must be free to call
  // Poll()/Ingest() without deadlocking.
  for (PositionUpdate& update : callbacks) {
    callback_(update);
    RetireLocate();
  }
  if (!callback_) {
    for (std::size_t i = 0; i < delivered; ++i) RetireLocate();
  }
  return delivered;
}

void LocalizationService::RetireLocate() {
  Metrics::Get().inflight.Sub(1);
  // Dropping back below the admission bound releases assemblers stalled in
  // AdmitRound, whichever worker the retired round belonged to.
  if (inflight_locates_.fetch_sub(1, std::memory_order_acq_rel) >=
      options_.max_inflight_locates) {
    WakeAll();
  }
}

std::chrono::nanoseconds LocalizationService::GcPeriod() const {
  // A quarter of the round timeout, clamped to [5ms, 1s].
  return std::chrono::nanoseconds(std::clamp<std::int64_t>(
      options_.round_timeout.count() / 4, 5'000'000, 1'000'000'000));
}

void LocalizationService::CollectGarbage(TagSessionShard& shard,
                                         std::uint64_t now_ns) {
  const Metrics& metrics = Metrics::Get();
  const auto timeout_ns =
      static_cast<std::uint64_t>(options_.round_timeout.count());
  const auto idle_ns =
      static_cast<std::uint64_t>(options_.session_idle_timeout.count());
  std::lock_guard lock(shard.mutex);
  for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
    TagSession& session = it->second;
    for (auto round = session.assembling.begin();
         round != session.assembling.end();) {
      if (now_ns - round->second.first_assembled_ns > timeout_ns) {
        expired_frames_.fetch_add(round->second.reports.size(),
                                  std::memory_order_relaxed);
        expired_rounds_.fetch_add(1, std::memory_order_relaxed);
        metrics.expired.Inc();
        round = session.assembling.erase(round);
      } else {
        ++round;
      }
    }
    const bool idle = session.assembling.empty() && session.ready.empty() &&
                      session.inflight == 0 &&
                      now_ns - session.last_activity_ns > idle_ns;
    it = idle ? (sessions_expired_.fetch_add(1, std::memory_order_relaxed),
                 shard.sessions.erase(it))
              : std::next(it);
  }
}

std::unique_ptr<InflightLocate> LocalizationService::AcquireNode() {
  {
    std::lock_guard lock(node_pool_mutex_);
    if (!node_pool_.empty()) {
      std::unique_ptr<InflightLocate> node = std::move(node_pool_.back());
      node_pool_.pop_back();
      return node;
    }
  }
  return std::make_unique<InflightLocate>();
}

void LocalizationService::RecycleNode(std::unique_ptr<InflightLocate> node) {
  node->result = core::LocationResult{};
  node->round.reports.clear();  // keeps capacity; reports free their CSI
  node->done = std::future<void>{};
  node->ready.store(false, std::memory_order_relaxed);
  std::lock_guard lock(node_pool_mutex_);
  if (node_pool_.size() < 2 * options_.max_inflight_locates) {
    node_pool_.push_back(std::move(node));
  }
}

}  // namespace bloc::serve
