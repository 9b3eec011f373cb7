// The benchmark's workloads and the helpers they share.
#pragma once

#include <cstdint>
#include <vector>

#include "bloc/localizer.h"
#include "net/collector.h"
#include "net/messages.h"
#include "report.h"
#include "trace.h"

namespace blocbench {

/// Paper testbed, static tags, closed-loop LocateBatch at all cores and at
/// one thread.
void RunLocateStatic(const Options& options, Trace& trace, Result& result);
/// 1000 moving tags on an open-loop schedule over TCP into the service.
void RunServePaced(const Options& options, Trace& trace, Result& result);
/// Full-PHY synthesis streamed through the wire into the engine.
void RunFullPhyStream(const Options& options, Trace& trace, Result& result);

/// Set-up runs this many times before the measured work, and again between
/// its steps (see each workload), so the repeats see the same stretches of
/// the host's load as the measured work. setup_s is the median of them all.
constexpr int kSetupsAtStart = 5;

/// Bit-for-bit equality of two positions.
bool SamePosition(const bloc::geom::Vec2& a, const bloc::geom::Vec2& b);

/// The sentinel result Locate returns for an unusable round.
bool IsSentinel(const bloc::core::LocationResult& r);

/// Serial Localizer::Locate positions of every round: the reference every
/// delivered fix is compared against.
std::vector<bloc::geom::Vec2> ReferencePositions(
    const bloc::core::Localizer& localizer,
    const std::vector<bloc::net::MeasurementRound>& rounds);

/// Sets setup_s, the median of the set-up repeats' times (seconds).
void SetSetup(const std::vector<double>& setups, Result& result);

/// Sets eval.median_error_m and eval.p90_error_m from per-round errors.
void SetErrors(const std::vector<double>& errors, Result& result);

/// Search-path tallies over the traced rounds (SearchStats).
struct SearchTally {
  std::uint64_t rounds = 0;
  std::uint64_t cells = 0;
  std::uint64_t fallbacks = 0;
  void Report(Result& result) const;
};

/// One round through the Localizer's public stages (filter, correct,
/// fused map, score), each under its own span below a "bloc.round" span
/// whose parent is `parent`. Bit-identical to Locate.
bloc::core::LocationResult TracedLocate(const bloc::core::Localizer& localizer,
                                        bloc::core::LocalizerWorkspace& ws,
                                        const bloc::net::MeasurementRound& round,
                                        Trace& trace, std::int32_t parent,
                                        SearchTally& tally);

/// The per-anchor part of the map stage: one AnchorMapInto per anchor of
/// the round TracedLocate just corrected into `ws`, each timed as a root
/// "bloc.anchor_map" span. The fused map already did this work, so these
/// spans are taken outside the round.
void TraceAnchorMaps(const bloc::core::Localizer& localizer,
                     bloc::core::LocalizerWorkspace& ws, Trace& trace,
                     std::uint64_t round_id);

/// Sets net.encode_us and net.decode_us (per frame, EncodeFrame and
/// DecodeFrame over `messages`) and net.frame_bytes.
void TimeCodec(const std::vector<bloc::net::Message>& messages, Result& result);

/// Hit ratio of a steering-plan cache: (lookups - builds) / lookups.
double PlanCacheHitRatio(const bloc::core::SteeringPlanCache& cache);

/// Sleeps until NowNs() reaches `deadline_ns`.
void SleepUntil(std::int64_t deadline_ns);

}  // namespace blocbench
