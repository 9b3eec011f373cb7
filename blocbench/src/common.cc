#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "net/messages.h"

#include "workloads.h"

namespace blocbench {

using namespace bloc;

bool SamePosition(const geom::Vec2& a, const geom::Vec2& b) {
  return std::memcmp(&a.x, &b.x, sizeof(double)) == 0 &&
         std::memcmp(&a.y, &b.y, sizeof(double)) == 0;
}

bool IsSentinel(const core::LocationResult& r) {
  return r.anchors_used == 0 && r.score == 0.0;
}

std::vector<geom::Vec2> ReferencePositions(
    const core::Localizer& localizer,
    const std::vector<net::MeasurementRound>& rounds) {
  core::LocalizerWorkspace ws;
  std::vector<geom::Vec2> out;
  out.reserve(rounds.size());
  for (const net::MeasurementRound& round : rounds) {
    out.push_back(localizer.Locate(round, ws).position);
  }
  return out;
}

void SetSetup(const std::vector<double>& setups, Result& result) {
  result.Set("setup_s", Median(setups));
  result.Samples("setup_s", setups.size());
}

void SetErrors(const std::vector<double>& errors, Result& result) {
  result.Set("eval.median_error_m", Percentile(errors, 50));
  result.Set("eval.p90_error_m", Percentile(errors, 90));
  result.Samples("eval.median_error_m", errors.size());
}

void SearchTally::Report(Result& result) const {
  if (rounds == 0) return;
  result.Set("bloc.cells_per_round",
             static_cast<double>(cells) / static_cast<double>(rounds));
  result.Set("bloc.fallback_ratio",
             static_cast<double>(fallbacks) / static_cast<double>(rounds));
}

core::LocationResult TracedLocate(const core::Localizer& localizer,
                                  core::LocalizerWorkspace& ws,
                                  const net::MeasurementRound& round,
                                  Trace& trace, std::int32_t parent,
                                  SearchTally& tally) {
  const std::uint64_t id = round.round_id;
  const std::int32_t bloc_round = trace.Begin("bloc.round", parent, id);
  std::int32_t span = trace.Begin("bloc.filter", bloc_round, id);
  const bool usable = localizer.FilterInto(round, ws.view);
  trace.End(span);
  if (!usable) {
    trace.End(bloc_round);
    return core::LocationResult{};
  }
  span = trace.Begin("bloc.correct", bloc_round, id);
  localizer.CorrectInto(ws.view, ws.corrected);
  trace.End(span);
  span = trace.Begin("bloc.fused_map", bloc_round, id);
  localizer.FusedMapInto(ws);
  trace.End(span);
  span = trace.Begin("bloc.score", bloc_round, id);
  core::LocationResult result = localizer.ScoreFused(ws.fused, ws.corrected);
  trace.End(span);
  trace.End(bloc_round);

  ++tally.rounds;
  tally.cells += ws.search.stats.cells_evaluated;
  if (ws.search.stats.fell_back) ++tally.fallbacks;
  return result;
}

void TraceAnchorMaps(const core::Localizer& localizer,
                     core::LocalizerWorkspace& ws, Trace& trace,
                     std::uint64_t round_id) {
  if (ws.anchor_maps.size() < ws.corrected.anchors.size()) {
    ws.anchor_maps.resize(ws.corrected.anchors.size());
  }
  if (ws.spectra.empty()) ws.spectra.resize(1);
  for (std::size_t a = 0; a < ws.corrected.anchors.size(); ++a) {
    const std::int32_t span = trace.Begin("bloc.anchor_map", -1, round_id);
    localizer.AnchorMapInto(ws.corrected, a, ws.anchor_maps[a], ws.spectra[0]);
    trace.End(span);
  }
}

void TimeCodec(const std::vector<net::Message>& messages, Result& result) {
  std::vector<net::Buffer> encoded;
  encoded.reserve(messages.size());
  const std::int64_t e0 = NowNs();
  for (const net::Message& m : messages) encoded.push_back(net::EncodeFrame(m));
  const std::int64_t e1 = NowNs();
  std::size_t bytes = 0;
  std::optional<net::Message> decoded;
  for (const net::Buffer& b : encoded) {
    bytes += b.size();
    net::DecodeFrame(b, decoded);
  }
  const std::int64_t d1 = NowNs();
  const double n = static_cast<double>(encoded.size());
  result.Set("net.encode_us", static_cast<double>(e1 - e0) * 1e-3 / n);
  result.Set("net.decode_us", static_cast<double>(d1 - e1) * 1e-3 / n);
  result.Set("net.frame_bytes", static_cast<double>(bytes) / n);
}

double PlanCacheHitRatio(const core::SteeringPlanCache& cache) {
  const double lookups = static_cast<double>(cache.lookups());
  if (lookups == 0.0) return 0.0;
  return (lookups - static_cast<double>(cache.builds())) / lookups;
}

void SleepUntil(std::int64_t deadline_ns) {
  const std::int64_t wait = deadline_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

}  // namespace blocbench
