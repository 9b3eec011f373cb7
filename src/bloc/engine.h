// LocalizationEngine: the staged BLoc pipeline on a fixed thread pool.
//
// Every round runs through Localizer::Locate; the engine only decides where.
// Two axes of parallelism, both with deterministic, bit-identical output to
// the serial path:
//  - within one round (Locate), the pool is handed to Localizer::Locate,
//    whose exhaustive search computes the per-anchor joint likelihood maps
//    concurrently and fuses them in a fixed order (ascending anchor id);
//  - across rounds, LocateBatch distributes rounds over the workers, each
//    using its own preallocated LocalizerWorkspace, and writes results into
//    index-matched slots (ordering never depends on completion order).
//
// The engine owns (via its Localizer) one SteeringPlanCache shared read-only
// by every worker: the per-anchor steering plans are built once during the
// first round — under the cache mutex — and all later rounds run the
// precomputed split-complex kernel allocation-free.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "bloc/localizer.h"
#include "dsp/thread_pool.h"

namespace bloc::core {

struct EngineOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;
};

class LocalizationEngine {
 public:
  LocalizationEngine(Deployment deployment, LocalizerConfig config,
                     EngineOptions options = {});

  /// Localizes one round: Localizer::Locate with this engine's pool, so
  /// with SearchMode::kExhaustive the per-anchor maps are computed in
  /// parallel; the coarse-to-fine search runs sequentially (bit-identical
  /// selected positions either way).
  LocationResult Locate(const net::MeasurementRound& round);

  /// Localizes many rounds, distributing them across the pool. results[i]
  /// always corresponds to rounds[i].
  std::vector<LocationResult> LocateBatch(
      std::span<const net::MeasurementRound> rounds);

  /// Localizes one round asynchronously on the pool, writing `out` when
  /// done — the streaming-pipeline primitive: a producer keeps generating
  /// rounds while earlier ones localize. `round` and `out` must stay alive
  /// until the returned future resolves; results are bit-identical to
  /// Locate/LocateBatch. Must not be interleaved with LocateBatch/Locate
  /// calls (they address the per-slot workspaces directly).
  ///
  /// `on_done` (optional) runs on the worker right after `out` is written
  /// (or the locate threw) — a push-style completion signal for consumers
  /// that park instead of polling the future. The future may become ready
  /// a moment after `on_done` returns.
  std::future<void> LocateAsync(const net::MeasurementRound& round,
                                LocationResult& out,
                                std::function<void()> on_done = {});

  std::size_t threads() const { return pool_.size(); }
  const Localizer& localizer() const { return localizer_; }
  /// The steering-plan cache all workers share (stats: builds/lookups).
  SteeringPlanCache& plan_cache() const { return localizer_.plan_cache(); }

 private:
  LocalizerWorkspace* AcquireWorkspace();
  void ReleaseWorkspace(LocalizerWorkspace* ws);

  Localizer localizer_;
  dsp::ThreadPool pool_;
  std::vector<LocalizerWorkspace> workspaces_;  // one per pool slot
  // Free list for LocateAsync tasks. A pool with workers runs at most
  // pool_.size() of them at once; an inline pool runs each on its caller,
  // and several threads may call at once (a service with more than one
  // assembler), so an empty list grows by one workspace instead.
  std::mutex workspace_mutex_;
  std::vector<LocalizerWorkspace*> free_workspaces_;
  std::vector<std::unique_ptr<LocalizerWorkspace>> extra_workspaces_;
};

}  // namespace bloc::core
