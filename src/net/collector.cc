#include "net/collector.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace bloc::net {

namespace {

/// Registry handles for the ingest path, resolved once per process.
struct CollectorMetrics {
  obs::Counter& hello_msgs = obs::GetCounter("net.collector.hello_msgs");
  obs::Counter& csi_reports = obs::GetCounter("net.collector.csi_reports");
  obs::Counter& dropped_duplicates =
      obs::GetCounter("net.collector.dropped_duplicates");
  obs::Counter& evicted_rounds =
      obs::GetCounter("net.collector.evicted_rounds");

  static const CollectorMetrics& Get() {
    static const CollectorMetrics metrics;
    return metrics;
  }
};

}  // namespace

void EncodeMeasurementRound(const MeasurementRound& round, WireWriter& w) {
  w.U64(round.round_id);
  w.U32(static_cast<std::uint32_t>(round.reports.size()));
  for (const anchor::CsiReport& report : round.reports) {
    EncodeCsiReport(report, w);
  }
}

MeasurementRound DecodeMeasurementRound(WireReader& r) {
  MeasurementRound round;
  round.round_id = r.U64();
  const std::uint32_t n = r.U32();
  if (n > 1024) throw WireError("MeasurementRound: implausible report count");
  round.reports.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    round.reports.push_back(DecodeCsiReport(r));
  }
  return round;
}

void Collector::OnMessage(Message&& msg) {
  const CollectorMetrics& metrics = CollectorMetrics::Get();
  std::unique_lock lock(mutex_);
  if (const auto* hello = std::get_if<AnchorHelloMsg>(&msg)) {
    metrics.hello_msgs.Inc();
    anchors_[hello->anchor_id] = AnchorInfo{*hello};
    cv_.notify_all();
    return;
  }
  if (auto* report_msg = std::get_if<CsiReportMsg>(&msg)) {
    metrics.csi_reports.Inc();
    const std::uint64_t round_id = report_msg->report.round_id;
    if (options_.max_pending_rounds > 0 && !rounds_.contains(round_id) &&
        rounds_.size() >= options_.max_pending_rounds) {
      // Eviction horizon: drop the oldest (lowest-id) pending round so a
      // slow consumer or a lossy anchor cannot grow the map without bound.
      rounds_.erase(rounds_.begin());
      evicted_rounds_.fetch_add(1, std::memory_order_relaxed);
      metrics.evicted_rounds.Inc();
    }
    auto& round = rounds_[round_id];
    const auto dup = std::find_if(
        round.begin(), round.end(), [&](const anchor::CsiReport& r) {
          return r.anchor_id == report_msg->report.anchor_id;
        });
    if (dup != round.end()) {
      dropped_duplicates_.fetch_add(1, std::memory_order_relaxed);
      metrics.dropped_duplicates.Inc();
      return;
    }
    round.push_back(std::move(report_msg->report));
    cv_.notify_all();
    return;
  }
  // LocationEstimateMsg flows server -> clients; ignore on ingest.
}

std::vector<AnchorHelloMsg> Collector::Anchors() const {
  std::lock_guard lock(mutex_);
  std::vector<AnchorHelloMsg> out;
  out.reserve(anchors_.size());
  for (const auto& [id, info] : anchors_) out.push_back(info.hello);
  return out;
}

bool Collector::RoundComplete(std::uint64_t round_id) const {
  const auto it = rounds_.find(round_id);
  return it != rounds_.end() && !anchors_.empty() &&
         it->second.size() >= anchors_.size();
}

MeasurementRound Collector::ExtractRound(std::uint64_t round_id) {
  const auto it = rounds_.find(round_id);
  MeasurementRound round;
  round.round_id = round_id;
  round.reports = std::move(it->second);
  rounds_.erase(it);
  return round;
}

std::optional<MeasurementRound> Collector::WaitRound(std::uint64_t round_id,
                                                     int timeout_ms) {
  std::unique_lock lock(mutex_);
  const bool ok = cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [&] { return RoundComplete(round_id); });
  if (!ok) return std::nullopt;
  return ExtractRound(round_id);
}

std::optional<MeasurementRound> Collector::TryGetRound(
    std::uint64_t round_id) const {
  std::lock_guard lock(mutex_);
  if (!RoundComplete(round_id)) return std::nullopt;
  MeasurementRound round;
  round.round_id = round_id;
  round.reports = rounds_.at(round_id);
  return round;
}

std::optional<MeasurementRound> Collector::TakeRound(std::uint64_t round_id) {
  std::lock_guard lock(mutex_);
  if (!RoundComplete(round_id)) return std::nullopt;
  return ExtractRound(round_id);
}

std::size_t Collector::pending_rounds() const {
  std::lock_guard lock(mutex_);
  return rounds_.size();
}

}  // namespace bloc::net
