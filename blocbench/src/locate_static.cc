// locate-static: the paper testbed in analytic mode with static tags. A
// pool of distinct rounds is generated at set-up; one caller runs
// LocalizationEngine::LocateBatch over 8-round batches in a closed loop,
// first on the default pool (all cores), then on one thread. Serve, net
// and sim do no work here, so the bloc kernels and the engine's fan-out
// are all that move the numbers.
//
// Every pool batch runs many times. Its time is its fastest run: the host
// is shared, and a neighbour's load slows whole seconds of a run by tens of
// percent, while the fastest of many repeats stays within a few percent.
#include <optional>
#include <span>

#include "bloc/engine.h"
#include "eval/metrics.h"
#include "sim/experiment.h"
#include "workloads.h"

namespace blocbench {
namespace {

using namespace bloc;

constexpr std::size_t kPoolRounds = 256;
constexpr std::size_t kBatch = 8;

struct Loop {
  explicit Loop(std::size_t batches) : best_ns(batches, 0.0) {}

  /// Every call's time, in order.
  std::vector<double> batch_ns;
  /// Per pool batch: its fastest call (0 until it ran).
  std::vector<double> best_ns;

  std::vector<double> Best() const {
    std::vector<double> out;
    for (const double b : best_ns) {
      if (b > 0.0) out.push_back(b);
    }
    return out;
  }
  /// Rounds per second with every batch at its fastest call.
  double RoundsPerS() const {
    const std::vector<double> best = Best();
    double sum_ns = 0.0;
    for (const double b : best) sum_ns += b;
    return static_cast<double>(best.size() * kBatch) / (sum_ns * 1e-9);
  }
};

/// One LocateBatch call on pool batch `b`, timed into `loop`; every result
/// is checked against the serial reference.
void TimedBatch(core::LocalizationEngine& engine, const sim::Dataset& pool,
                const std::vector<geom::Vec2>& reference, std::size_t b,
                Loop& loop, Trace* trace, Result& result) {
  const std::size_t first = b * kBatch;
  const auto rounds =
      std::span<const net::MeasurementRound>(pool.rounds).subspan(first, kBatch);
  const std::int64_t t0 = NowNs();
  const std::vector<core::LocationResult> out = engine.LocateBatch(rounds);
  const std::int64_t t1 = NowNs();
  if (trace != nullptr) trace->Add("engine.batch", t0, t1, -1, first);
  const double ns = static_cast<double>(t1 - t0);
  loop.batch_ns.push_back(ns);
  double& best = loop.best_ns[b];
  if (best == 0.0 || ns < best) best = ns;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const bool ok = !IsSentinel(out[i]) &&
                    SamePosition(out[i].position, reference[first + i]);
    result.Count(ok);
    if (!ok) result.correct = false;
  }
}

}  // namespace

void RunLocateStatic(const Options& options, Trace& trace, Result& result) {
  sim::DatasetOptions dataset_options;
  dataset_options.locations = kPoolRounds;
  dataset_options.measurement_threads = 0;
  const std::int64_t g0 = NowNs();
  const sim::Dataset pool =
      sim::GenerateDataset(sim::PaperTestbed(options.seed), dataset_options);
  result.Set("sim.generate_s", static_cast<double>(NowNs() - g0) * 1e-9);
  result.fingerprint = Fingerprint(pool.truths);

  const core::LocalizerConfig config = sim::PaperLocalizerConfig(pool);
  const core::Localizer serial(pool.deployment, config);
  const std::vector<geom::Vec2> reference =
      ReferencePositions(serial, pool.rounds);
  std::vector<double> errors;
  for (std::size_t i = 0; i < pool.rounds.size(); ++i) {
    errors.push_back(eval::LocalizationError(reference[i], pool.truths[i]));
  }
  SetErrors(errors, result);

  // Set-up: construction of the all-core engine plus one batch, which fills
  // the plan cache. The engine is rebuilt this way at the start of every
  // loop cycle.
  std::vector<double> setups;
  std::optional<core::LocalizationEngine> engine;
  const auto warmup = std::span<const net::MeasurementRound>(pool.rounds)
                          .subspan(0, kBatch);
  const auto set_up = [&] {
    engine.reset();
    const std::int64_t t0 = NowNs();
    engine.emplace(pool.deployment, config);
    engine->LocateBatch(warmup);
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  };
  for (int i = 0; i < kSetupsAtStart; ++i) set_up();
  core::LocalizationEngine single(pool.deployment, config, {.threads = 1});
  single.LocateBatch(warmup);

  const double s = options.seconds;
  const bool traced = trace.enabled();
  // The all-core and one-thread engines alternate in half-second blocks
  // (0.3 s and 0.2 s), so both see the same stretches of the host's load
  // while each pool stays warm within its block.
  const std::size_t batches = pool.rounds.size() / kBatch;
  Loop all(batches);
  Loop one(batches);
  const auto block = [&](core::LocalizationEngine& e, Loop& loop,
                         double seconds, Trace* spans, std::size_t& b) {
    const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      TimedBatch(e, pool, reference, b++ % batches, loop, spans, result);
    } while (NowNs() < end);
  };
  const std::int64_t loop_end =
      NowNs() + static_cast<std::int64_t>((traced ? 0.5 : 1.0) * s * 1e9);
  std::size_t b_all = 0;
  std::size_t b_one = 0;
  while (b_all < batches || b_one < batches || NowNs() < loop_end) {
    set_up();
    block(*engine, all, 0.3, traced ? &trace : nullptr, b_all);
    block(single, one, 0.2, nullptr, b_one);
  }
  SetSetup(setups, result);

  result.Set("rounds_per_s", all.RoundsPerS());
  result.Set("sustained_rounds_per_s", all.RoundsPerS());
  result.Set("rounds_per_s.t1", one.RoundsPerS());
  const std::vector<double> best = all.Best();
  result.Set("latency_p50_ms", Percentile(best, 50) * 1e-6);
  result.Samples("latency_p50_ms", best.size());
  result.Detail("batch_calls", "{\"all\": " + std::to_string(all.batch_ns.size()) +
                                   ", \"t1\": " + std::to_string(one.batch_ns.size()) +
                                   ", \"all_p50_ms\": " +
                                   JsonNumber(Percentile(all.batch_ns, 50) * 1e-6) + "}");
  result.Detail("engine_threads", std::to_string(engine->threads()));
  result.Set("engine.scaling",
             all.RoundsPerS() / (static_cast<double>(engine->threads()) *
                                 one.RoundsPerS()));
  result.Set("bloc.plan_cache.hit_ratio", PlanCacheHitRatio(engine->plan_cache()));
  if (!traced) return;

  // The bloc stage split: the pool through the Localizer's public stages,
  // then the same rounds through the untraced Locate for the overhead.
  core::LocalizerWorkspace ws;
  SearchTally tally;
  std::vector<double> traced_ns;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(0.3 * s * 1e9);
  for (std::size_t i = 0; i == 0 || NowNs() < deadline; ++i) {
    const std::size_t k = i % pool.rounds.size();
    const std::int32_t root = trace.Begin("round", -1, k);
    const core::LocationResult r =
        TracedLocate(serial, ws, pool.rounds[k], trace, root, tally);
    trace.End(root);
    const Span& span = trace.spans()[static_cast<std::size_t>(root)];
    traced_ns.push_back(static_cast<double>(span.end_ns - span.start_ns));
    TraceAnchorMaps(serial, ws, trace, k);
    const bool ok = !IsSentinel(r) && SamePosition(r.position, reference[k]);
    result.Count(ok);
    if (!ok) result.correct = false;
  }
  tally.Report(result);
  std::vector<double> plain_ns;
  for (std::size_t i = 0; i < traced_ns.size(); ++i) {
    const std::int64_t t0 = NowNs();
    serial.Locate(pool.rounds[i % pool.rounds.size()], ws);
    plain_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  result.Set("trace.overhead_pct",
             100.0 * (Median(traced_ns) / Median(plain_ns) - 1.0));
}

}  // namespace blocbench
