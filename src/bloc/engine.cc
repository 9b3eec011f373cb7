#include "bloc/engine.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bloc::core {

namespace {

/// Registry handles for the batch path; the per-round stage metrics are
/// recorded inside Localizer::Locate.
struct EngineMetrics {
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
  return localizer_.Locate(round, workspaces_[0], &pool_);
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
