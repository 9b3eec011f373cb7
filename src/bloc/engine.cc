#include "bloc/engine.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bloc::core {

namespace {

/// Same registry entries as the serial path in localizer.cc — the registry
/// deduplicates by name, so both paths feed one set of stage histograms.
struct EngineMetrics {
  obs::Counter& rounds = obs::GetCounter("bloc.localizer.rounds");
  obs::Counter& empty_rounds = obs::GetCounter("bloc.localizer.empty_rounds");
  obs::Histogram& filter_us = obs::GetHistogram("bloc.localizer.filter_us");
  obs::Histogram& correct_us = obs::GetHistogram("bloc.localizer.correct_us");
  obs::Histogram& anchor_map_us =
      obs::GetHistogram("bloc.localizer.anchor_map_us");
  obs::Histogram& fuse_us = obs::GetHistogram("bloc.localizer.fuse_us");
  obs::Histogram& score_us = obs::GetHistogram("bloc.localizer.score_us");
  obs::Counter& batches = obs::GetCounter("bloc.engine.batches");
  obs::Histogram& batch_us = obs::GetHistogram("bloc.engine.batch_us");

  static const EngineMetrics& Get() {
    static const EngineMetrics metrics;
    return metrics;
  }
};

}  // namespace

LocalizationEngine::LocalizationEngine(Deployment deployment,
                                       LocalizerConfig config,
                                       EngineOptions options)
    : localizer_(std::move(deployment), std::move(config)),
      pool_(options.threads),
      workspaces_(pool_.size()) {
  free_workspaces_.reserve(workspaces_.size());
  for (LocalizerWorkspace& ws : workspaces_) free_workspaces_.push_back(&ws);
}

LocationResult LocalizationEngine::Locate(const net::MeasurementRound& round) {
  const EngineMetrics& metrics = EngineMetrics::Get();
  obs::TraceSpan round_span("localize.round", "bloc", round.round_id);
  metrics.rounds.Inc();
  LocalizerWorkspace& ws = workspaces_[0];
  {
    obs::TraceSpan span("localize.filter", "bloc");
    obs::ScopedTimer timer(metrics.filter_us);
    if (!localizer_.FilterInto(round, ws.view)) {
      metrics.empty_rounds.Inc();
      return LocationResult{};
    }
  }
  {
    obs::TraceSpan span("localize.correct", "bloc");
    obs::ScopedTimer timer(metrics.correct_us);
    localizer_.CorrectInto(ws.view, ws.corrected);
    localizer_.FuseOrder(ws.corrected, ws.fuse_order);
  }

  // Coarse-to-fine rounds route through the (serial) search strategy: its
  // Stage A/B decisions are sequential by construction, and the pruned
  // refine stage is far below the parallel-map break-even point anyway.
  if (localizer_.config().spectra.search.mode != SearchMode::kExhaustive) {
    localizer_.search().BuildFusedInto(localizer_, ws);
    obs::TraceSpan span("localize.score", "bloc");
    obs::ScopedTimer timer(metrics.score_us);
    return localizer_.ScoreFused(ws.fused, ws.corrected);
  }

  const std::size_t n = ws.fuse_order.size();
  if (ws.anchor_maps.size() < n) ws.anchor_maps.resize(n);
  if (ws.spectra.size() < n) ws.spectra.resize(n);
  pool_.ParallelFor(n, [&](std::size_t i, std::size_t) {
    obs::TraceSpan span("localize.anchor_map", "bloc",
                        ws.corrected.anchors[ws.fuse_order[i]].anchor_id);
    obs::ScopedTimer timer(metrics.anchor_map_us);
    localizer_.AnchorMapInto(ws.corrected, ws.fuse_order[i],
                             ws.anchor_maps[i], ws.spectra[i]);
  });

  // Fusion stays sequential in anchor-id order: floating-point addition is
  // not associative, so summing in completion order would break the
  // bit-identity guarantee with the serial path.
  dsp::Grid2D& fused = ws.EnsureFused();
  fused.Reset(localizer_.config().grid);
  {
    obs::TraceSpan span("localize.fuse", "bloc");
    obs::ScopedTimer timer(metrics.fuse_us);
    for (std::size_t i = 0; i < n; ++i) fused.Add(ws.anchor_maps[i]);
  }
  obs::TraceSpan span("localize.score", "bloc");
  obs::ScopedTimer timer(metrics.score_us);
  return localizer_.ScoreFused(ws.fused, ws.corrected);
}

std::vector<LocationResult> LocalizationEngine::LocateBatch(
    std::span<const net::MeasurementRound> rounds) {
  const EngineMetrics& metrics = EngineMetrics::Get();
  obs::TraceSpan batch_span("localize.batch", "bloc", rounds.size());
  obs::ScopedTimer batch_timer(metrics.batch_us);
  metrics.batches.Inc();
  std::vector<LocationResult> results(rounds.size());
  pool_.ParallelFor(rounds.size(), [&](std::size_t i, std::size_t slot) {
    results[i] = localizer_.Locate(rounds[i], workspaces_[slot]);
  });
  return results;
}

LocalizerWorkspace* LocalizationEngine::AcquireWorkspace() {
  std::lock_guard<std::mutex> lock(workspace_mutex_);
  if (free_workspaces_.empty()) {
    extra_workspaces_.push_back(std::make_unique<LocalizerWorkspace>());
    return extra_workspaces_.back().get();
  }
  LocalizerWorkspace* ws = free_workspaces_.back();
  free_workspaces_.pop_back();
  return ws;
}

void LocalizationEngine::ReleaseWorkspace(LocalizerWorkspace* ws) {
  std::lock_guard<std::mutex> lock(workspace_mutex_);
  free_workspaces_.push_back(ws);
}

std::future<void> LocalizationEngine::LocateAsync(
    const net::MeasurementRound& round, LocationResult& out,
    std::function<void()> on_done) {
  return pool_.Submit([this, &round, &out, on_done = std::move(on_done)] {
    // Releases the workspace, then signals completion, also when Locate
    // throws (the exception reaches the caller through the future).
    struct Finish {
      LocalizationEngine* engine;
      LocalizerWorkspace* ws;
      const std::function<void()>& on_done;
      ~Finish() {
        engine->ReleaseWorkspace(ws);
        if (on_done) on_done();
      }
    } finish{this, AcquireWorkspace(), on_done};
    out = localizer_.Locate(round, *finish.ws);
  });
}

}  // namespace bloc::core
