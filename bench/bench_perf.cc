// Performance microbenchmarks (google-benchmark): throughput of the
// pipeline stages — GFSK modulation, CSI extraction, path solving, corrected
// channels, the joint likelihood map, the wire codec, and the threaded
// localization engine.
//
// After the microbenchmarks, regression sweeps run on the fig9 workload:
// a single-thread comparison of the Eq. 17 kernels (steering-plan vs the
// naive reference oracle, ms per fused 4-anchor map), a rounds/sec engine
// sweep for threads in {1, 2, 4}, and the full-PHY measurement stage
// (planned fast path vs reference kernels, plus a measurement-thread
// sweep). Pass --json=PATH to dump everything as machine-readable JSON
// (the perf trajectory baseline), --sweep-rounds=N to size the batch,
// --no-micro to skip the google-benchmark section,
// --mode=localize|fullphy|dataset|obs|
// search|track|soak to run one sweep family only. The search sweep compares
// the exhaustive and coarse-to-fine likelihood searches (ms per fused map)
// and audits position parity across the whole dataset; --search-guard turns
// the audit into a regression gate (exit 1 on any position mismatch). The
// track sweep runs a moving tag through the TrackedLocalizer, gated coarse
// search vs ungated (--track-parity gates the gating-off bit-parity audit);
// --mode=soak --wire swaps the in-process soak for a TCP-loopback smoke;
// --engine-threads=LIST and --assembler-threads=LIST sweep the service's
// thread counts (default: the shipped serve::ServiceOptions; 0 = all cores).
// Repeated sweeps report bench::Stats (min/p50/stddev over warmup+reps) so
// regressions can be told from run-to-run noise.
//
// The obs sweep measures the metrics substrate itself: fig9 LocateBatch
// with metric recording enabled vs runtime-disabled, with a live
// serve::AdminServer attached (one /metrics self-scrape proves the path).
// --obs-guard=PCT turns it into a regression gate (exit 1 when enabled
// costs more than PCT%). --metrics-json=PATH / --trace=PATH export the
// RunReport and Chrome trace of the whole bench run.
//
// --mode=regress replays committed BENCH_*.json baselines
// (--baseline=PATH, repeatable): each file's sections are re-measured and
// compared with noise-aware tolerances (--regress-tol=PCT, default 35;
// widened by 2x the baseline's own coefficient of variation). Only
// machine-independent ratios gate by default; --regress-abs also gates
// absolute timings (same-machine runs). Exit 1 on any FAIL line.
//
// --admin-port=N starts the admin HTTP endpoint for the soak sweep so an
// external client can scrape /metrics and /healthz mid-run; --admin-scrape
// additionally runs an in-bench scrape client per sweep point validating
// interval counter deltas, bucket monotonicity and the health verdict.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baseline.h"
#include "bench_util.h"
#include "net/transport.h"
#include "scrape.h"
#include "serve/admin.h"
#include "serve/service.h"
#include "stats.h"
#include "track/tracked_localizer.h"
#include "bloc/corrected_channel.h"
#include "dsp/complex_ops.h"
#include "bloc/engine.h"
#include "dsp/fft.h"
#include "dsp/simd_dispatch.h"
#include "net/messages.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "oracles/reference.h"
#include "phy/csi_extract.h"
#include "phy/packet.h"
#include "sim/dataset_io.h"
#include "sim/experiment.h"

namespace {

using namespace bloc;
using obs::JsonValue;

const sim::Dataset& SharedDataset() {
  static const sim::Dataset dataset = [] {
    sim::DatasetOptions options;
    options.locations = 4;
    return sim::GenerateDataset(sim::PaperTestbed(1), options);
  }();
  return dataset;
}

void BM_GfskModulate(benchmark::State& state) {
  const phy::Packet packet = phy::MakeLocalizationPacket(10, 0x50C0FFEEu);
  const phy::Bits air = phy::AssembleAirBits(packet, 10, 0x123456u);
  const phy::GfskModulator mod;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod.Modulate(air));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(air.size()));
}
BENCHMARK(BM_GfskModulate);

void BM_CsiExtract(benchmark::State& state) {
  const phy::Packet packet = phy::MakeLocalizationPacket(10, 0x50C0FFEEu);
  const phy::Bits air = phy::AssembleAirBits(packet, 10, 0x123456u);
  const phy::CsiExtractor extractor;
  const dsp::CVec tx = extractor.modulator().Modulate(air);
  dsp::CVec rx = tx;
  for (auto& v : rx) v *= dsp::cplx{0.3, -0.7};
  const phy::PlateauIndices plateaus = extractor.FindPlateaus(air);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Estimate(tx, rx, plateaus));
  }
}
BENCHMARK(BM_CsiExtract);

void BM_Fft4096(benchmark::State& state) {
  dsp::CVec data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = dsp::Rotor(0.001 * static_cast<double>(i));
  }
  for (auto _ : state) {
    dsp::CVec copy = data;
    dsp::Fft(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Fft4096);

void BM_FftPlan4096(benchmark::State& state) {
  const dsp::FftPlan plan(4096);
  dsp::CVec data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = dsp::Rotor(0.001 * static_cast<double>(i));
  }
  for (auto _ : state) {
    dsp::CVec copy = data;
    plan.Forward(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_FftPlan4096);

void BM_PathSolve(benchmark::State& state) {
  const sim::ScenarioConfig scenario = sim::PaperTestbed(1);
  const sim::Testbed testbed(scenario);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        testbed.solver().Solve({1.3, 2.1}, {5.9, 2.5}));
  }
}
BENCHMARK(BM_PathSolve);

void BM_CorrectedChannels(benchmark::State& state) {
  const sim::Dataset& dataset = SharedDataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeCorrectedChannels(dataset.rounds[0]));
  }
}
BENCHMARK(BM_CorrectedChannels);

/// Fused 4-anchor likelihood map through `fused_map(localizer, corrected)`.
/// The steering-plan variant measures the steady state: plans are built on
/// the first iteration and cached inside the localizer afterwards.
template <typename FusedMapFn>
void RunJointLikelihoodMap(benchmark::State& state, FusedMapFn fused_map) {
  const sim::Dataset& dataset = SharedDataset();
  const core::CorrectedChannels corrected =
      core::ComputeCorrectedChannels(dataset.rounds[0]);
  const core::Localizer localizer(dataset.deployment,
                                  sim::PaperLocalizerConfig(dataset));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fused_map(localizer, corrected));
  }
}

dsp::Grid2D PlanFusedMap(const core::Localizer& localizer,
                         const core::CorrectedChannels& corrected) {
  return localizer.FusedMap(corrected);
}

void BM_JointLikelihoodMap(benchmark::State& state) {
  RunJointLikelihoodMap(state, PlanFusedMap);
}
BENCHMARK(BM_JointLikelihoodMap);

void BM_JointLikelihoodMapReference(benchmark::State& state) {
  RunJointLikelihoodMap(state, oracles::ReferenceFusedMap);
}
BENCHMARK(BM_JointLikelihoodMapReference);

void BM_LocateEndToEnd(benchmark::State& state) {
  const sim::Dataset& dataset = SharedDataset();
  const core::Localizer localizer(dataset.deployment,
                                  sim::PaperLocalizerConfig(dataset));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        localizer.Locate(dataset.rounds[i++ % dataset.rounds.size()]));
  }
}
BENCHMARK(BM_LocateEndToEnd);

/// Same workload through the engine with a reused workspace — the delta
/// vs BM_LocateEndToEnd is the per-round allocation cost.
void BM_LocateWorkspaceReuse(benchmark::State& state) {
  const sim::Dataset& dataset = SharedDataset();
  const core::Localizer localizer(dataset.deployment,
                                  sim::PaperLocalizerConfig(dataset));
  core::LocalizerWorkspace ws;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        localizer.Locate(dataset.rounds[i++ % dataset.rounds.size()], ws));
  }
}
BENCHMARK(BM_LocateWorkspaceReuse);

void BM_LocateBatch(benchmark::State& state) {
  const sim::Dataset& dataset = SharedDataset();
  core::LocalizationEngine engine(
      dataset.deployment, sim::PaperLocalizerConfig(dataset),
      {.threads = static_cast<std::size_t>(state.range(0))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.LocateBatch(dataset.rounds));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dataset.rounds.size()));
}
BENCHMARK(BM_LocateBatch)->Arg(1)->Arg(2)->Arg(4);

void BM_WireRoundTrip(benchmark::State& state) {
  const sim::Dataset& dataset = SharedDataset();
  const net::CsiReportMsg msg{dataset.rounds[0].reports[0]};
  for (auto _ : state) {
    const net::Buffer frame = net::EncodeFrame(msg);
    std::optional<net::Message> decoded;
    benchmark::DoNotOptimize(net::DecodeFrame(frame, decoded));
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(net::EncodeFrame(msg).size()));
}
BENCHMARK(BM_WireRoundTrip);

struct SweepPoint {
  std::size_t threads = 0;
  double rounds_per_sec = 0.0;
};

/// Prints one rounds/sec-per-thread-count sweep and returns it as JSON:
/// [{"threads": n, "rounds_per_sec": r, "speedup_vs_1": r / r_first}, ...].
JsonValue SweepJson(const std::vector<SweepPoint>& sweep) {
  JsonValue out = JsonValue::Array();
  for (const SweepPoint& p : sweep) {
    const double speedup = p.rounds_per_sec / sweep[0].rounds_per_sec;
    std::cout << "  threads=" << p.threads << "  " << p.rounds_per_sec
              << " rounds/sec  (x" << speedup << " vs threads=1)\n";
    out.Push(JsonValue::Object({{"threads", p.threads},
                                {"rounds_per_sec", p.rounds_per_sec},
                                {"speedup_vs_1", speedup}}));
  }
  return out;
}

/// Times one fused likelihood map per kernel; at least `min_seconds` of
/// repetitions each, single-threaded, same fig9 corrected channels.
template <typename FusedMapFn>
double TimeFusedMap(const sim::Dataset& dataset,
                    const core::CorrectedChannels& corrected,
                    FusedMapFn fused_map, double min_seconds = 0.5) {
  const core::Localizer localizer(dataset.deployment,
                                  sim::PaperLocalizerConfig(dataset));
  benchmark::DoNotOptimize(fused_map(localizer, corrected));  // warm-up/plans
  const auto start = std::chrono::steady_clock::now();
  std::size_t maps = 0;
  double elapsed = 0.0;
  do {
    benchmark::DoNotOptimize(fused_map(localizer, corrected));
    ++maps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_seconds);
  return 1e3 * elapsed / static_cast<double>(maps);
}

/// The single-thread likelihood-map stage regression check: steering-plan
/// kernel vs the naive reference kernel (the test oracle) on the fig9
/// workload.
JsonValue RunKernelComparison() {
  std::cerr << "comparing likelihood-map kernels on the fig9 workload...\n";
  sim::DatasetOptions options;
  options.locations = 1;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  const core::CorrectedChannels corrected =
      core::ComputeCorrectedChannels(dataset.rounds[0]);

  const double reference_ms =
      TimeFusedMap(dataset, corrected, oracles::ReferenceFusedMap);
  const double plan_ms = TimeFusedMap(dataset, corrected, PlanFusedMap);
  const double speedup = reference_ms / plan_ms;

  std::cout << "\n=== likelihood-map stage (fig9 workload, 1 thread, fused "
               "4-anchor map) ===\n"
            << "  reference kernel      " << reference_ms << " ms/map\n"
            << "  steering-plan kernel  " << plan_ms << " ms/map  (x"
            << speedup << " speedup)\n";
  return JsonValue::Object({{"reference_ms_per_map", reference_ms},
                            {"steering_plan_ms_per_map", plan_ms},
                            {"speedup", speedup}});
}

/// Measures engine throughput (rounds/sec) on the fig9 workload for
/// threads in {1, 2, 4}; the thread counts stay fixed across machines so
/// successive runs are comparable.
JsonValue RunThroughputSweep(std::size_t batch_rounds) {
  std::cerr << "generating fig9 workload (" << batch_rounds
            << " rounds) for the throughput sweep...\n";
  sim::DatasetOptions options;
  options.locations = batch_rounds;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);

  std::vector<SweepPoint> sweep;
  for (const std::size_t threads : {1, 2, 4}) {
    core::LocalizationEngine engine(dataset.deployment,
                                    sim::PaperLocalizerConfig(dataset),
                                    {.threads = threads});
    engine.LocateBatch(dataset.rounds);  // warm up workspaces
    const auto start = std::chrono::steady_clock::now();
    std::size_t rounds_done = 0;
    double elapsed = 0.0;
    do {
      benchmark::DoNotOptimize(engine.LocateBatch(dataset.rounds));
      rounds_done += dataset.rounds.size();
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    } while (elapsed < 1.0);
    sweep.push_back({threads, static_cast<double>(rounds_done) / elapsed});
  }

  std::cout << "\n=== localization engine throughput (fig9 workload, "
            << batch_rounds << "-round batches) ===\n";
  return SweepJson(sweep);
}

/// Times full-PHY measurement rounds (ms/round) on the given simulator,
/// cycling through `positions`. At least one round always runs.
double TimeFullPhyRounds(sim::MeasurementSimulator& simulator,
                         const std::vector<geom::Vec2>& positions,
                         double min_seconds) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t rounds = 0;
  double elapsed = 0.0;
  do {
    benchmark::DoNotOptimize(
        simulator.RunRound(positions[rounds % positions.size()], rounds));
    ++rounds;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_seconds);
  return 1e3 * elapsed / static_cast<double>(rounds);
}

/// The single-thread full-PHY measurement regression check: planned fast
/// path (FFT plans + incremental rotors + cached assets) vs the reference
/// kernels on the fig9 workload.
JsonValue RunFullPhyComparison() {
  std::cerr << "comparing full-PHY measurement kernels on the fig9 "
               "workload...\n";
  sim::ScenarioConfig scenario = sim::PaperTestbed(1);
  scenario.mode = sim::MeasurementMode::kFullPhy;
  sim::Testbed testbed(scenario);
  sim::MeasurementSimulator simulator(testbed, 1);
  const std::vector<geom::Vec2> positions = testbed.SampleTagPositions(4);

  // Each bench::Stats sample is one multi-round timing window; the reported
  // times are the min (scheduler noise only ever adds time) and the spread
  // goes to the JSON so regressions can be told from noise. Reference and
  // planned windows alternate and the speedup is the median of the
  // per-pair ratios, so a slow spell of a shared host lands on both sides
  // of a ratio instead of on one side of a min/min.
  const auto window = [&](bool reference) {
    simulator.UseReferenceFullPhy(reference);
    return TimeFullPhyRounds(simulator, positions, 1.0);
  };
  window(true);  // warm-up
  window(false);
  std::vector<double> reference_ms, planned_ms, ratios;
  for (int rep = 0; rep < 7; ++rep) {
    reference_ms.push_back(window(true));
    planned_ms.push_back(window(false));
    ratios.push_back(reference_ms.back() / planned_ms.back());
  }
  const bloc::bench::Stats reference = bloc::bench::Stats::Of(reference_ms);
  const bloc::bench::Stats planned = bloc::bench::Stats::Of(planned_ms);
  const double speedup = bloc::bench::Stats::Of(ratios).p50;

  std::cout << "\n=== full-PHY measurement stage (fig9 workload, 1 thread) "
               "===\n"
            << "  reference kernels  " << reference.min << " ms/round (p50 "
            << reference.p50 << ", stddev " << reference.stddev << ")\n"
            << "  planned fast path  " << planned.min << " ms/round (p50 "
            << planned.p50 << ", stddev " << planned.stddev << ")  (x"
            << speedup << " speedup)\n";
  return JsonValue::Object(
      {{"reference_ms_per_round", reference.min},
       {"planned_ms_per_round", planned.min}, {"speedup", speedup},
       {"reference_stats", reference.ToJson()},
       {"planned_stats", planned.ToJson()}});
}

/// Full-PHY round synthesis throughput (rounds/sec) for threads in
/// {1, 2, 4}. Output is bit-identical across thread counts (tested), so
/// this sweep measures pure scheduling scalability.
JsonValue RunFullPhyThreadSweep() {
  std::cerr << "sweeping full-PHY measurement threads...\n";
  std::vector<SweepPoint> sweep;
  for (const std::size_t threads : {1, 2, 4}) {
    sim::ScenarioConfig scenario = sim::PaperTestbed(1);
    scenario.mode = sim::MeasurementMode::kFullPhy;
    sim::Testbed testbed(scenario);
    sim::MeasurementSimulator simulator(testbed, threads);
    const std::vector<geom::Vec2> positions = testbed.SampleTagPositions(4);
    simulator.RunRound(positions[0], 0);  // warm-up
    const double ms_per_round = TimeFullPhyRounds(simulator, positions, 1.0);
    sweep.push_back({threads, 1e3 / ms_per_round});
  }

  std::cout << "\n=== full-PHY round synthesis throughput (fig9 workload) "
               "===\n";
  return SweepJson(sweep);
}

/// The generate-once/replay-many regression check: a cold DatasetStore miss
/// (streaming synthesis into serialization and onto disk) vs a warm hit
/// (load + decode) on the fig9 workload, plus raw codec throughput.
JsonValue RunDatasetSweep(std::size_t locations) {
  std::cerr << "sweeping dataset store (cold synthesis vs warm load, "
            << locations << " locations)...\n";
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "bloc-bench-perf-dscache";
  fs::remove_all(dir);
  const sim::ScenarioConfig scenario = sim::PaperTestbed(1);
  sim::DatasetOptions options;
  options.locations = locations;
  const std::uint64_t fp = sim::Fingerprint(scenario, options);

  const auto ms_since = [](std::chrono::steady_clock::time_point start) {
    return 1e3 * std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  };

  sim::Dataset dataset;
  // Every cold sample starts from an empty store (remove_all keeps it a true
  // miss); no warmup — the first cold pass IS the measurement of interest,
  // and generation itself is deterministic.
  const bloc::bench::Stats cold = bloc::bench::MeasureRepeated(0, 2, [&] {
    fs::remove_all(dir);
    sim::DatasetStore store(dir);
    const auto start = std::chrono::steady_clock::now();
    dataset = store.GetOrGenerate(scenario, options);
    const double ms = ms_since(start);
    if (store.misses() != 1) std::cerr << "  warning: expected a cold miss\n";
    return ms;
  });
  const bloc::bench::Stats warm = bloc::bench::MeasureRepeated(1, 5, [&] {
    sim::DatasetStore store(dir);
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(store.GetOrGenerate(scenario, options));
    const double ms = ms_since(start);
    if (store.hits() != 1) std::cerr << "  warning: expected a warm hit\n";
    return ms;
  });
  const double speedup = cold.min / warm.min;

  net::Buffer bytes;
  const bloc::bench::Stats encode = bloc::bench::MeasureRepeated(1, 5, [&] {
    const auto start = std::chrono::steady_clock::now();
    bytes = sim::EncodeDataset(dataset, fp);
    return ms_since(start);
  });
  const bloc::bench::Stats decode = bloc::bench::MeasureRepeated(1, 5, [&] {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sim::DecodeDataset(bytes));
    return ms_since(start);
  });
  const double file_mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
  fs::remove_all(dir);

  std::cout << "\n=== dataset store (fig9 workload, " << locations
            << " locations) ===\n"
            << "  cold miss (synthesize+serialize+persist)  " << cold.min
            << " ms (stddev " << cold.stddev << ")\n"
            << "  warm hit (load+decode)                    " << warm.min
            << " ms (stddev " << warm.stddev << ")  (x" << speedup
            << " speedup)\n"
            << "  codec: encode " << encode.min << " ms, decode "
            << decode.min << " ms, file " << file_mb << " MB\n";
  return JsonValue::Object(
      {{"locations", locations}, {"cold_generate_ms", cold.min},
       {"warm_load_ms", warm.min}, {"speedup", speedup},
       {"encode_ms", encode.min}, {"decode_ms", decode.min},
       {"file_mb", file_mb}, {"cold_stats", cold.ToJson()},
       {"warm_stats", warm.ToJson()}, {"encode_stats", encode.ToJson()},
       {"decode_stats", decode.ToJson()}});
}

/// Times the fused-map stage (FusedMapInto on a reused workspace, fuse-order
/// derivation included) for at least `min_seconds`, single-threaded. Cycles
/// round-robin through `rounds` so the average reflects the whole workload —
/// the coarse-to-fine cost varies per round with the pruning rate, and timing
/// a single round would over- or under-state it.
double TimeMapStage(const core::Localizer& localizer,
                    const std::vector<core::CorrectedChannels>& rounds,
                    core::LocalizerWorkspace& ws, double min_seconds = 0.5) {
  ws.corrected = rounds[0];
  localizer.FusedMapInto(ws);  // warm-up: plans + pyramid levels
  const auto start = std::chrono::steady_clock::now();
  std::size_t maps = 0;
  double elapsed = 0.0;
  do {
    ws.corrected = rounds[maps % rounds.size()];
    localizer.FusedMapInto(ws);
    benchmark::DoNotOptimize(ws.fused);
    ++maps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_seconds || maps % rounds.size() != 0);
  return 1e3 * elapsed / static_cast<double>(maps);
}

/// The coarse-to-fine search regression check: map-stage latency exhaustive
/// vs coarse on the fig9 workload, plus a full-dataset position-parity and
/// pruning-rate audit (selected positions must be bit-identical).
JsonValue RunSearchComparison(std::size_t coarse_stride) {
  std::cerr << "comparing likelihood search strategies on the fig9 "
               "workload...\n";
  sim::DatasetOptions options;
  options.locations = 40;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);

  core::LocalizerConfig exhaustive_config = sim::PaperLocalizerConfig(dataset);
  core::LocalizerConfig coarse_config = exhaustive_config;
  coarse_config.search.mode = core::SearchMode::kCoarseToFine;
  if (coarse_stride > 0) {
    coarse_config.search.coarse_stride = coarse_stride;
  }
  const core::Localizer exhaustive(dataset.deployment, exhaustive_config);
  const core::Localizer coarse(dataset.deployment, coarse_config);

  std::vector<core::CorrectedChannels> corrected;
  corrected.reserve(dataset.rounds.size());
  for (const net::MeasurementRound& round : dataset.rounds) {
    corrected.push_back(exhaustive.CorrectedFor(round));
  }

  bloc::bench::Stats exhaustive_stats, coarse_stats;
  {
    // Alternating windows: a load spike degrades one rep of both strategies
    // instead of biasing whichever ran during it. The scalar is the min
    // (filters scheduler noise out of a percent-level comparison, same
    // rationale as TimeBatchMs below); the full spread goes to the JSON.
    core::LocalizerWorkspace ews, cws;
    std::vector<double> esamples, csamples;
    TimeMapStage(exhaustive, corrected, ews);  // warmup: plans + pyramid
    TimeMapStage(coarse, corrected, cws);
    for (int rep = 0; rep < 5; ++rep) {
      esamples.push_back(TimeMapStage(exhaustive, corrected, ews));
      csamples.push_back(TimeMapStage(coarse, corrected, cws));
    }
    exhaustive_stats = bloc::bench::Stats::Of(std::move(esamples));
    coarse_stats = bloc::bench::Stats::Of(std::move(csamples));
  }
  const double speedup = exhaustive_stats.min / coarse_stats.min;

  core::LocalizerWorkspace ews, cws;
  std::size_t parity_rounds = 0, parity_mismatches = 0, fallback_rounds = 0;
  std::size_t evaluated = 0;
  std::size_t exhaustive_cells = 0;
  for (const net::MeasurementRound& round : dataset.rounds) {
    const core::LocationResult e = exhaustive.Locate(round, ews);
    const core::LocationResult c = coarse.Locate(round, cws);
    ++parity_rounds;
    if (e.position.x != c.position.x || e.position.y != c.position.y) {
      ++parity_mismatches;
    }
    if (cws.search.stats.fell_back) ++fallback_rounds;
    evaluated += cws.search.stats.cells_evaluated;
    exhaustive_cells +=
        cws.search.stats.cells_evaluated + cws.search.stats.cells_pruned;
  }
  // Kernel evaluations the coarse path performed / what exhaustive would.
  const double evaluated_fraction =
      exhaustive_cells > 0 ? static_cast<double>(evaluated) /
                                 static_cast<double>(exhaustive_cells)
                           : 0.0;

  std::cout << "\n=== likelihood search (fig9 workload, 1 thread, fused "
               "4-anchor map) ===\n"
            << "  exhaustive search     " << exhaustive_stats.min
            << " ms/map (p50 " << exhaustive_stats.p50 << ", stddev "
            << exhaustive_stats.stddev << ")\n"
            << "  coarse-to-fine search " << coarse_stats.min
            << " ms/map (p50 " << coarse_stats.p50 << ", stddev "
            << coarse_stats.stddev << ")  (x" << speedup << " speedup)\n"
            << "  parity: " << parity_mismatches << "/" << parity_rounds
            << " position mismatches, " << fallback_rounds << " fallbacks, "
            << 100.0 * evaluated_fraction << "% of cells evaluated\n";
  if (parity_mismatches > 0) {
    std::cerr << "bench_perf: WARNING coarse-to-fine selected different "
                 "positions\n";
  }
  return JsonValue::Object(
      {{"exhaustive_ms_per_map", exhaustive_stats.min},
       {"coarse_ms_per_map", coarse_stats.min}, {"speedup", speedup},
       {"parity_rounds", parity_rounds},
       {"parity_mismatches", parity_mismatches},
       {"fallback_rounds", fallback_rounds},
       {"evaluated_fraction", evaluated_fraction},
       {"exhaustive_stats", exhaustive_stats.ToJson()},
       {"coarse_stats", coarse_stats.ToJson()}});
}

/// Best-of-`reps` LocateBatch timing (ms/round) under the current metrics
/// switch; the minimum filters scheduler noise out of a percent-level
/// comparison.
double TimeBatchMs(core::LocalizationEngine& engine,
                   const sim::Dataset& dataset, int reps,
                   double min_seconds = 0.5) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    std::size_t rounds_done = 0;
    double elapsed = 0.0;
    do {
      benchmark::DoNotOptimize(engine.LocateBatch(dataset.rounds));
      rounds_done += dataset.rounds.size();
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    } while (elapsed < min_seconds);
    const double ms = 1e3 * elapsed / static_cast<double>(rounds_done);
    best = (r == 0) ? ms : std::min(best, ms);
  }
  return best;
}

/// The observability self-check (ISSUE: enabled overhead <= 2% on fig9):
/// the same engine and workload with metric recording on vs runtime-off.
JsonValue RunObsOverheadCheck(std::size_t batch_rounds) {
  std::cerr << "measuring metrics-substrate overhead on the fig9 "
               "workload...\n";
  sim::DatasetOptions options;
  options.locations = batch_rounds;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  core::LocalizationEngine engine(dataset.deployment,
                                  sim::PaperLocalizerConfig(dataset),
                                  {.threads = 1});
  engine.LocateBatch(dataset.rounds);  // warm workspaces and plan caches

  // The overhead budget must hold with the admin endpoint attached: its
  // accept thread stays up for the whole timed section, and one /metrics
  // self-scrape proves the exposition path end to end before timing starts.
  serve::AdminServer admin;
  const std::string scrape = bloc::bench::HttpGet(admin.port(), "/metrics");
  const bool scrape_ok = bloc::bench::HttpStatus(scrape) == 200;
  if (!scrape_ok) {
    std::cerr << "bench_perf: admin /metrics self-scrape failed on port "
              << admin.port() << "\n";
  }

  obs::SetMetricsEnabled(true);
  const bloc::bench::Stats enabled = bloc::bench::MeasureRepeated(
      1, 5, [&] { return TimeBatchMs(engine, dataset, 1); });
  obs::SetMetricsEnabled(false);
  const bloc::bench::Stats disabled = bloc::bench::MeasureRepeated(
      1, 5, [&] { return TimeBatchMs(engine, dataset, 1); });
  obs::SetMetricsEnabled(true);
  // The overhead gate compares minima — both numbers carry only additive
  // scheduler noise, and a percent-level comparison of means would flap.
  const double overhead_pct = 100.0 * (enabled.min - disabled.min) /
                              disabled.min;

  std::cout << "\n=== observability overhead (fig9 workload, 1 thread) ===\n"
            << "  admin endpoint    127.0.0.1:" << admin.port()
            << " (/metrics self-scrape "
            << (scrape_ok ? "ok, " + std::to_string(scrape.size()) + " bytes"
                          : std::string("FAILED"))
            << ")\n"
            << "  metrics enabled   " << enabled.min << " ms/round (p50 "
            << enabled.p50 << ", stddev " << enabled.stddev << ")\n"
            << "  metrics disabled  " << disabled.min << " ms/round (p50 "
            << disabled.p50 << ", stddev " << disabled.stddev << ")\n"
            << "  overhead          " << overhead_pct << " %\n";
  return JsonValue::Object(
      {{"enabled_ms_per_round", enabled.min},
       {"disabled_ms_per_round", disabled.min},
       {"overhead_pct", overhead_pct}, {"enabled_stats", enabled.ToJson()},
       {"disabled_stats", disabled.ToJson()}});
}

// ---------------------------------------------------------------------------
// Track mode (--mode=track): a moving tag (waypoint motion) localized
// through one TrackedLocalizer session, gated coarse search vs ungated.
// Reports ms/round (bench::Stats), the evaluated-cell fraction, and the
// trajectory-error medians; --track-parity turns the gating-off raw-fix
// parity audit into a regression gate (exit 1 on any mismatch).

JsonValue RunTrackComparison(std::size_t locations,
                             std::size_t coarse_stride) {
  std::cerr << "generating moving-tag workload (" << locations
            << " rounds, waypoint motion) for the track sweep...\n";
  sim::ScenarioConfig scenario = sim::PaperTestbed(1);
  scenario.motion.model = sim::MotionModel::kWaypoint;
  sim::DatasetOptions options;
  options.locations = locations;
  const sim::Dataset dataset = sim::GenerateDataset(scenario, options);

  core::LocalizerConfig config = sim::PaperLocalizerConfig(dataset);
  config.search.mode = core::SearchMode::kCoarseToFine;
  if (coarse_stride > 0) config.search.coarse_stride = coarse_stride;
  const core::Localizer localizer(dataset.deployment, config);

  const std::size_t rounds = dataset.rounds.size();

  // One full-trajectory pass; fills the per-round outputs (deterministic, so
  // keeping the last rep's copy is exact) and returns ms/round.
  struct PassOut {
    std::vector<geom::Vec2> raw, tracked;
    std::uint64_t cells = 0;
    std::size_t gated_rounds = 0, gate_misses = 0;
  };
  const auto run_pass = [&](bool gate, PassOut& out) {
    track::TrackedLocalizerConfig tc;
    tc.gate_search = gate;
    track::TrackedLocalizer tracked(localizer, tc);
    core::LocalizerWorkspace ws;
    out = PassOut{};
    out.raw.reserve(dataset.rounds.size());
    out.tracked.reserve(dataset.rounds.size());
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
      const track::TrackedFix fix =
          tracked.Locate(dataset.rounds[i], dataset.timestamps[i], ws);
      out.raw.push_back(fix.raw.position);
      out.tracked.push_back(fix.tracked_position);
      out.cells += ws.search.stats.cells_evaluated;
    }
    const double sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    out.gated_rounds = tracked.gated_rounds();
    out.gate_misses = tracked.gate_misses();
    return 1e3 * sec / static_cast<double>(dataset.rounds.size());
  };

  PassOut ungated, gated;
  const bloc::bench::Stats ungated_ms = bloc::bench::MeasureRepeated(
      1, 5, [&] { return run_pass(false, ungated); });
  const bloc::bench::Stats gated_ms = bloc::bench::MeasureRepeated(
      1, 5, [&] { return run_pass(true, gated); });
  const double speedup = ungated_ms.min / gated_ms.min;
  // Cells the gated pass evaluated / what the ungated coarse pass did.
  const double evaluated_fraction =
      ungated.cells > 0 ? static_cast<double>(gated.cells) /
                              static_cast<double>(ungated.cells)
                        : 0.0;

  // Parity audit: with gating off the tracker is a pure post-stage, so the
  // raw fixes must match the engine pipeline bit for bit.
  core::LocalizationEngine engine(dataset.deployment, config, {.threads = 1});
  const std::vector<core::LocationResult> reference =
      engine.LocateBatch(dataset.rounds);
  std::size_t parity_mismatches = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i].position.x != ungated.raw[i].x ||
        reference[i].position.y != ungated.raw[i].y) {
      ++parity_mismatches;
    }
  }

  const auto median_err = [&](const std::vector<geom::Vec2>& est) {
    std::vector<double> err;
    err.reserve(est.size());
    for (std::size_t i = 0; i < est.size(); ++i) {
      err.push_back(geom::Distance(est[i], dataset.truths[i]));
    }
    return bloc::bench::Stats::Of(std::move(err)).p50;
  };
  const double raw_median_m = median_err(ungated.raw);
  const double tracked_median_m = median_err(ungated.tracked);
  const double gated_median_m = median_err(gated.tracked);

  std::cout << "\n=== track-while-localize (waypoint trajectory, " << rounds
            << " rounds, 1 thread) ===\n"
            << "  ungated coarse  " << ungated_ms.min << " ms/round (p50 "
            << ungated_ms.p50 << ", stddev " << ungated_ms.stddev << ")\n"
            << "  gated coarse    " << gated_ms.min << " ms/round (p50 "
            << gated_ms.p50 << ", stddev " << gated_ms.stddev << ")  (x"
            << speedup << " speedup)\n"
            << "  gate: " << gated.gated_rounds << "/" << rounds
            << " rounds gated, " << gated.gate_misses << " misses, "
            << 100.0 * evaluated_fraction
            << "% of ungated cells evaluated\n"
            << "  median error: raw " << 100.0 * raw_median_m
            << " cm, tracked " << 100.0 * tracked_median_m
            << " cm, tracked+gated " << 100.0 * gated_median_m << " cm\n"
            << "  parity (gating off): " << parity_mismatches << "/"
            << reference.size() << " raw-fix mismatches\n";
  return JsonValue::Object(
      {{"rounds", rounds}, {"speedup", speedup},
       {"gated_rounds", gated.gated_rounds},
       {"gate_misses", gated.gate_misses},
       {"cells_ungated", ungated.cells}, {"cells_gated", gated.cells},
       {"evaluated_fraction", evaluated_fraction},
       {"raw_median_m", raw_median_m},
       {"tracked_median_m", tracked_median_m},
       {"gated_median_m", gated_median_m},
       {"parity_rounds", reference.size()},
       {"parity_mismatches", parity_mismatches},
       {"ungated_ms_per_round", ungated_ms.ToJson()},
       {"gated_ms_per_round", gated_ms.ToJson()}});
}

// ---------------------------------------------------------------------------
// Soak mode (--mode=soak): thousands of simulated concurrent tags replay
// dataset rounds through serve::LocalizationService over producer threads,
// sweeping tag count x shard count x producer threads x engine threads x
// assembler threads (the last two default to the shipped
// serve::ServiceOptions, so the soak measures what ships). Reports rounds/sec
// (bench::Stats over K reps) and p50/p99/p999 end-to-end latency from the
// serve.e2e_latency_us histogram, plus a single-mutex net::Collector
// baseline; every position is checked bit-identical to the serial engine.

struct SoakConfig {
  std::vector<std::size_t> tags{1000};
  std::vector<std::size_t> shards{1, 8, 64};
  std::vector<std::size_t> producers{4};
  std::vector<std::size_t> engine_threads{
      serve::ServiceOptions{}.engine_threads};
  std::vector<std::size_t> assembler_threads{
      serve::ServiceOptions{}.assembler_threads};
  std::size_t rounds_per_tag = 2;
  std::size_t reps = 3;
  std::size_t warmup = 1;
  std::size_t dataset_locations = 16;
  serve::ShedPolicy shed_policy = serve::ShedPolicy::kShedOldest;
};

/// Interval-local latency quantile between two registry snapshots
/// (obs::Snapshot::Capture() around the measured passes). This used to be
/// a hand-rolled bucket subtraction here; obs/snapshot.h is that exact
/// primitive promoted to the library. Under BLOC_OBS_OFF the snapshots
/// are empty and every quantile reads 0.
double IntervalQuantile(const obs::Delta& delta, std::string_view name,
                        double q) {
  const obs::HistogramDelta* hist = delta.FindHistogram(name);
  return hist == nullptr ? 0.0 : hist->Quantile(q);
}

/// One in-run scrape-validation pass (--admin-scrape): what an external
/// Prometheus client sees mid-soak. Two /metrics scrapes a beat apart must
/// expose a clean line protocol, non-decreasing counters and monotone
/// cumulative histogram buckets with consistent interval quantiles, and
/// /healthz must answer 200 (healthy or warming). Returns failure strings.
std::vector<std::string> ScrapeAdminMidRun(std::uint16_t port) {
  using bloc::bench::FindSample;
  using bloc::bench::PromSample;
  std::vector<std::string> failures;
  const auto scrape = [&](std::vector<PromSample>& samples) {
    const std::string response = bloc::bench::HttpGet(port, "/metrics");
    if (bloc::bench::HttpStatus(response) != 200) {
      failures.push_back("/metrics scrape did not answer 200");
      return false;
    }
    std::vector<std::string> malformed;
    samples = bloc::bench::ParsePrometheus(bloc::bench::HttpBody(response),
                                           &malformed);
    for (const std::string& line : malformed) {
      failures.push_back("malformed exposition line: " + line);
    }
    return malformed.empty();
  };

  std::vector<PromSample> first, second;
  if (!scrape(first)) return failures;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  if (!scrape(second)) return failures;

  // Counters only move forward between scrapes.
  for (const char* name :
       {"bloc_serve_admitted", "bloc_serve_localized_rounds"}) {
    const PromSample* a = FindSample(first, name);
    const PromSample* b = FindSample(second, name);
    if (a == nullptr || b == nullptr) {
      failures.push_back(std::string(name) + " missing from a scrape");
    } else if (b->value < a->value) {
      failures.push_back(std::string(name) + " went backwards between "
                         "scrapes");
    }
  }

  // Cumulative buckets are monotone in le within one scrape and in time
  // across scrapes; the interval quantiles from the deltas must be ordered.
  const auto buckets = [](const std::vector<PromSample>& samples) {
    std::vector<double> out;  // in exposition order (ascending le, then +Inf)
    for (const PromSample& s : samples) {
      if (s.name == "bloc_serve_e2e_latency_us_bucket") out.push_back(s.value);
    }
    return out;
  };
  const std::vector<double> b1 = buckets(first);
  const std::vector<double> b2 = buckets(second);
  if (b2.empty()) {
    failures.push_back("bloc_serve_e2e_latency_us_bucket missing");
    return failures;
  }
  for (std::size_t i = 1; i < b2.size(); ++i) {
    if (b2[i] < b2[i - 1]) {
      failures.push_back("cumulative latency buckets not monotone in le");
      break;
    }
  }
  if (b1.size() == b2.size()) {
    for (std::size_t i = 0; i < b2.size(); ++i) {
      if (b2[i] < b1[i]) {
        failures.push_back("a cumulative latency bucket shrank between "
                           "scrapes");
        return failures;
      }
    }
    // Interval quantiles from the cumulative-bucket deltas: the first
    // bucket whose interval count reaches the rank. p99 >= p50 by
    // construction of a correct exposition.
    const double total = b2.back() - b1.back();
    const auto interval_bucket = [&](double q) {
      const double target = q * total;
      for (std::size_t i = 0; i < b2.size(); ++i) {
        if (b2[i] - b1[i] >= target) return static_cast<double>(i);
      }
      return static_cast<double>(b2.size());
    };
    if (total > 0.0 && interval_bucket(0.99) < interval_bucket(0.50)) {
      failures.push_back("interval p99 bucket below interval p50 bucket");
    }
  }

  const std::string health = bloc::bench::HttpGet(port, "/healthz");
  if (bloc::bench::HttpStatus(health) != 200) {
    failures.push_back("/healthz did not answer 200 mid-run: " +
                       bloc::bench::HttpBody(health));
  }
  return failures;
}

/// One load-generation pass: `producers` threads push every frame of every
/// tag's rounds (retrying rejected pushes through TryIngest, so
/// backpressure never loses a frame and per-tag FIFO order holds), then the
/// service drains. Returns elapsed seconds.
double RunSoakPass(serve::LocalizationService& service,
                   const sim::Dataset& dataset,
                   const std::vector<std::vector<std::size_t>>& picks,
                   std::size_t producers, std::size_t rounds_per_tag) {
  const std::size_t tags = picks.size();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    workers.emplace_back([&, p] {
      // Round-major order: every tag of this producer has round k in
      // flight before round k+1 starts, so assembly runs with thousands
      // of concurrent partial rounds — the multi-tenant steady state.
      for (std::size_t k = 0; k < rounds_per_tag; ++k) {
        for (std::size_t t = p; t < tags; t += producers) {
          const net::MeasurementRound& src = dataset.rounds[picks[t][k]];
          for (const anchor::CsiReport& report : src.reports) {
            anchor::CsiReport frame = report;
            frame.round_id = k;  // round ids are per-tag in the service
            while (!service.TryIngest(t, frame)) std::this_thread::yield();
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (!service.Drain(std::chrono::milliseconds(600000))) {
    throw std::runtime_error("soak: service did not drain");
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The pre-sharding architecture as a baseline: every producer funnels into
/// one net::Collector (single mutex), one consumer localizes rounds in
/// global-id order on the same 1-thread engine. Same tags, same frames.
double RunBaselinePass(core::LocalizationEngine& engine,
                       const sim::Dataset& dataset,
                       const std::vector<std::vector<std::size_t>>& picks,
                       std::size_t producers, std::size_t rounds_per_tag) {
  const std::size_t tags = picks.size();
  const std::size_t total = tags * rounds_per_tag;
  net::Collector collector(
      net::Collector::Options{.max_pending_rounds = total + 8});
  for (const core::AnchorPose& a : dataset.deployment.anchors) {
    collector.OnMessage(net::AnchorHelloMsg{a.id, a.is_master});
  }
  const auto start = std::chrono::steady_clock::now();
  std::atomic<bool> failed{false};
  std::thread consumer([&] {
    core::LocationResult sink;
    for (std::size_t gid = 0; gid < total; ++gid) {
      auto round = collector.WaitRound(gid, 600000);
      if (!round) {
        failed.store(true);
        return;
      }
      sink = engine.Locate(*round);
      benchmark::DoNotOptimize(sink);
    }
  });
  std::vector<std::thread> workers;
  workers.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    workers.emplace_back([&, p] {
      for (std::size_t k = 0; k < rounds_per_tag; ++k) {
        for (std::size_t t = p; t < tags; t += producers) {
          const net::MeasurementRound& src = dataset.rounds[picks[t][k]];
          for (const anchor::CsiReport& report : src.reports) {
            anchor::CsiReport frame = report;
            frame.round_id = t * rounds_per_tag + k;
            collector.OnMessage(net::CsiReportMsg{std::move(frame)});
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  consumer.join();
  if (failed.load()) throw std::runtime_error("soak: baseline round lost");
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Deterministic per-tag dataset-round picks: tag t's stream is
/// Rng(seed).Fork({t}), so the workload is reproducible at any tag count.
std::vector<std::vector<std::size_t>> MakePicks(std::size_t tags,
                                                std::size_t rounds_per_tag,
                                                std::size_t dataset_rounds) {
  const dsp::Rng root(0x50AC);
  std::vector<std::vector<std::size_t>> picks(tags);
  for (std::size_t t = 0; t < tags; ++t) {
    dsp::Rng rng = root.Fork({t});
    picks[t].reserve(rounds_per_tag);
    for (std::size_t k = 0; k < rounds_per_tag; ++k) {
      picks[t].push_back(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(dataset_rounds) - 1)));
    }
  }
  return picks;
}

/// `admin` (optional) is attached to each sweep point's service so external
/// clients can scrape /metrics and /healthz mid-run; `scrape_failures`
/// non-null additionally runs the in-bench scrape client per sweep point.
JsonValue RunSoakSweep(const SoakConfig& config, serve::AdminServer* admin,
                       std::vector<std::string>* scrape_failures) {
  std::cerr << "generating fig9 workload (" << config.dataset_locations
            << " locations) for the soak sweep...\n";
  sim::DatasetOptions options;
  options.locations = config.dataset_locations;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);

  std::cerr << "computing serial reference positions...\n";
  core::LocalizationEngine reference_engine(dataset.deployment,
                                            sim::PaperLocalizerConfig(dataset),
                                            {.threads = 1});
  const std::vector<core::LocationResult> reference =
      reference_engine.LocateBatch(dataset.rounds);

  // The Collector baseline runs at the largest tag count; the throughput
  // ratio compares it with the best service point at that count.
  const std::size_t baseline_tags = config.tags.back();
  JsonValue points = JsonValue::Array();
  std::uint64_t total_lost = 0, total_mismatches = 0, total_order = 0;
  std::uint64_t total_shed = 0, total_expired = 0, total_duplicates = 0;
  double worst_p99_us = 0.0, best_service = 0.0;

  std::cout << "\n=== multi-tenant soak (fig9 rounds, "
            << config.rounds_per_tag << " rounds/tag, "
            << config.warmup << "+" << config.reps << " passes) ===\n";
  for (const std::size_t tags : config.tags) {
    const std::vector<std::vector<std::size_t>> picks =
        MakePicks(tags, config.rounds_per_tag, dataset.rounds.size());
    for (const std::size_t shards : config.shards) {
      for (const std::size_t producers : config.producers) {
        for (const std::size_t engine_threads : config.engine_threads) {
          for (const std::size_t assembler_threads :
               config.assembler_threads) {
            serve::ServiceOptions so;
            so.shards = shards;
            so.assembler_threads = assembler_threads;
            so.engine_threads = engine_threads;
            so.shed_policy = config.shed_policy;
            serve::LocalizationService service(
                dataset.deployment, sim::PaperLocalizerConfig(dataset), so);

            // All of one tag's updates come from the assembler thread owning
            // its shard, so each `delivered[tag]` slot has a single writer and
            // needs no lock. Updates for one tag must arrive in round order
            // and carry the serial engine's exact position.
            std::atomic<std::uint64_t> updates{0};
            std::atomic<std::uint64_t> mismatches{0};
            std::atomic<std::uint64_t> order_violations{0};
            std::vector<std::uint64_t> delivered(tags, 0);
            service.SetUpdateCallback([&](const serve::PositionUpdate& u) {
              updates.fetch_add(1, std::memory_order_relaxed);
              const std::uint64_t expected_round =
                  delivered[u.tag_id] % config.rounds_per_tag;
              ++delivered[u.tag_id];
              if (u.round_id != expected_round) {
                order_violations.fetch_add(1, std::memory_order_relaxed);
                return;
              }
              const core::LocationResult& ref =
                  reference[picks[u.tag_id][u.round_id]];
              if (u.result.position.x != ref.position.x ||
                  u.result.position.y != ref.position.y ||
                  u.result.score != ref.score) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
              }
            });
            service.Start();
            if (admin != nullptr) admin->Attach(&service);

            // The in-bench scrape client runs concurrently with the measured
            // passes — exactly what an external Prometheus would do.
            std::thread scraper;
            std::vector<std::string> point_failures;
            if (admin != nullptr && scrape_failures != nullptr) {
              scraper = std::thread(
                  [&] { point_failures = ScrapeAdminMidRun(admin->port()); });
            }

            const obs::Snapshot before = obs::Snapshot::Capture();
            const bloc::bench::Stats stats = bloc::bench::MeasureRepeated(
                config.warmup, config.reps, [&] {
                  const double sec =
                      RunSoakPass(service, dataset, picks, producers,
                                  config.rounds_per_tag);
                  return static_cast<double>(tags * config.rounds_per_tag) /
                         sec;
                });
            const obs::Delta delta =
                obs::Delta::Between(before, obs::Snapshot::Capture());
            if (scraper.joinable()) scraper.join();
            if (admin != nullptr) admin->Attach(nullptr);
            service.Stop();
            if (scrape_failures != nullptr) {
              for (const std::string& failure : point_failures) {
                scrape_failures->push_back(
                    "tags=" + std::to_string(tags) + " shards=" +
                    std::to_string(shards) + ": " + failure);
              }
            }

            const serve::ServiceCounters counters = service.Counters();
            const std::uint64_t expected =
                (config.warmup + config.reps) * tags * config.rounds_per_tag;
            const std::uint64_t lost =
                expected - std::min<std::uint64_t>(expected, updates.load());
            const double p50_us =
                IntervalQuantile(delta, "serve.e2e_latency_us", 0.50);
            const double p99_us =
                IntervalQuantile(delta, "serve.e2e_latency_us", 0.99);
            const double p999_us =
                IntervalQuantile(delta, "serve.e2e_latency_us", 0.999);
            // engine_threads is the resolved pool size; assembler_threads
            // is clamped to the shard count.
            const std::size_t engines = service.engine().threads();
            const std::size_t assemblers = service.options().assembler_threads;
            points.Push(JsonValue::Object(
                {{"tags", tags}, {"shards", service.shard_count()},
                 {"producers", producers}, {"engine_threads", engines},
                 {"assembler_threads", assemblers},
                 {"rounds_per_sec", stats.ToJson()}, {"p50_us", p50_us},
                 {"p99_us", p99_us}, {"p999_us", p999_us},
                 // producer pushes bounced by backpressure
                 {"retries", counters.backpressure},
                 {"admitted", counters.admitted_frames},
                 {"refused", counters.refused_frames},
                 {"shed", counters.shed_rounds},
                 {"expired", counters.expired_rounds},
                 {"duplicates", counters.duplicate_frames},
                 {"localized", counters.localized_rounds},
                 {"updates", updates.load()}, {"lost", lost},
                 {"parity_mismatches", mismatches.load()},
                 {"order_violations", order_violations.load()}}));

            total_lost += lost;
            total_mismatches += mismatches.load();
            total_order += order_violations.load();
            total_shed += counters.shed_rounds;
            total_expired += counters.expired_rounds;
            total_duplicates += counters.duplicate_frames;
            worst_p99_us = std::max(worst_p99_us, p99_us);
            if (tags == baseline_tags) {
              best_service = std::max(best_service, stats.mean);
            }

            std::cout << "  tags=" << tags << " shards="
                      << service.shard_count() << " producers=" << producers
                      << " engine_threads=" << engines
                      << " assemblers=" << assemblers << "  " << stats.mean
                      << " rounds/sec (stddev " << stats.stddev
                      << ")  p50=" << p50_us / 1e3 << "ms p99=" << p99_us / 1e3
                      << "ms p999=" << p999_us / 1e3 << "ms  lost=" << lost
                      << " mismatch=" << mismatches.load()
                      << " retries=" << counters.backpressure << "\n";
          }
        }
      }
    }
  }

  // Baseline at the largest tag count, most producers.
  const std::size_t producers = config.producers.back();
  const std::vector<std::vector<std::size_t>> picks = MakePicks(
      baseline_tags, config.rounds_per_tag, dataset.rounds.size());
  std::cerr << "running single-mutex Collector baseline...\n";
  core::LocalizationEngine baseline_engine(dataset.deployment,
                                           sim::PaperLocalizerConfig(dataset),
                                           {.threads = 1});
  const bloc::bench::Stats baseline = bloc::bench::MeasureRepeated(
      config.warmup, config.reps, [&] {
        const double sec = RunBaselinePass(baseline_engine, dataset, picks,
                                           producers, config.rounds_per_tag);
        return static_cast<double>(baseline_tags * config.rounds_per_tag) /
               sec;
      });
  const double throughput_ratio =
      baseline.mean > 0.0 ? best_service / baseline.mean : 0.0;
  std::cout << "  baseline (single-mutex collector, tags=" << baseline_tags
            << ")  " << baseline.mean
            << " rounds/sec  -> service/baseline throughput ratio x"
            << throughput_ratio << "\n";
  return JsonValue::Object(
      {{"rounds_per_tag", config.rounds_per_tag},
       {"baseline_tags", baseline_tags},
       {"baseline_rounds_per_sec", baseline.ToJson()},
       {"throughput_ratio", throughput_ratio}, {"total_lost", total_lost},
       {"total_parity_mismatches", total_mismatches},
       {"total_order_violations", total_order}, {"total_shed", total_shed},
       {"total_expired", total_expired},
       {"total_duplicates", total_duplicates},
       {"worst_p99_us", worst_p99_us}, {"points", std::move(points)}});
}

// ---------------------------------------------------------------------------
// Wire smoke (--mode=soak --wire): the same multi-tenant replay, but every
// frame crosses a real loopback TCP socket — producer threads each hold a
// TcpTransport connection sending TagCsiReportMsg frames into a TcpServer
// that feeds the LocalizationService. Exercises encode -> socket -> frame
// parse -> decode -> ingest end to end; positions are still checked
// bit-identical to the serial engine and per-tag round order must hold.

JsonValue RunWireSmoke(const SoakConfig& config) {
  const std::size_t tags = std::min<std::size_t>(config.tags.front(), 64);
  const std::size_t rounds_per_tag = config.rounds_per_tag;
  const std::size_t producers = config.producers.front();

  std::cerr << "generating fig9 workload (" << config.dataset_locations
            << " locations) for the wire smoke...\n";
  sim::DatasetOptions options;
  options.locations = config.dataset_locations;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  core::LocalizationEngine reference_engine(dataset.deployment,
                                            sim::PaperLocalizerConfig(dataset),
                                            {.threads = 1});
  const std::vector<core::LocationResult> reference =
      reference_engine.LocateBatch(dataset.rounds);
  const std::vector<std::vector<std::size_t>> picks =
      MakePicks(tags, rounds_per_tag, dataset.rounds.size());

  const std::uint64_t per_pass =
      static_cast<std::uint64_t>(tags) * rounds_per_tag;
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> order_violations{0};
  std::uint64_t expected = 0, refused_frames = 0;

  const auto pass = [&]() -> double {
    serve::ServiceOptions so;
    so.shards = 8;
    so.assembler_threads = config.assembler_threads.front();
    so.engine_threads = config.engine_threads.front();
    // The OnMessage path cannot retry a refused frame (TCP gives the sender
    // no backpressure signal), so the rings are sized for the whole pass.
    so.ring_capacity = tags * rounds_per_tag *
                       dataset.deployment.anchors.size();
    serve::LocalizationService service(
        dataset.deployment, sim::PaperLocalizerConfig(dataset), so);
    std::atomic<std::uint64_t> pass_updates{0};
    // One writer per `delivered[tag]` slot: the tag's assembler thread.
    std::vector<std::uint64_t> delivered(tags, 0);
    service.SetUpdateCallback([&](const serve::PositionUpdate& u) {
      updates.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t expected_round = delivered[u.tag_id];
      ++delivered[u.tag_id];
      if (u.round_id != expected_round) {
        order_violations.fetch_add(1, std::memory_order_relaxed);
      } else {
        const core::LocationResult& ref =
            reference[picks[u.tag_id][u.round_id]];
        if (u.result.position.x != ref.position.x ||
            u.result.position.y != ref.position.y) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      pass_updates.fetch_add(1, std::memory_order_release);
    });
    service.Start();
    net::TcpServer server(service);

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      workers.emplace_back([&, p] {
        net::TcpTransport client("127.0.0.1", server.port());
        for (std::size_t k = 0; k < rounds_per_tag; ++k) {
          for (std::size_t t = p; t < tags; t += producers) {
            const net::MeasurementRound& src = dataset.rounds[picks[t][k]];
            for (const anchor::CsiReport& report : src.reports) {
              anchor::CsiReport frame = report;
              frame.round_id = k;
              client.Send(net::TagCsiReportMsg{t, std::move(frame)});
            }
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    // The sockets may still be draining after the senders return; completion
    // is "every expected update delivered", with a deadline so a lost frame
    // fails the smoke instead of hanging it.
    const auto deadline = start + std::chrono::seconds(120);
    while (pass_updates.load(std::memory_order_acquire) < per_pass &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    server.Stop();
    service.Stop();
    expected += per_pass;
    refused_frames += service.Counters().refused_frames;
    return static_cast<double>(per_pass) / sec;
  };

  std::cout << "\n=== wire soak smoke (TCP loopback, tags=" << tags
            << ", " << rounds_per_tag << " rounds/tag, "
            << producers << " connections) ===\n";
  const bloc::bench::Stats rounds_per_sec =
      bloc::bench::MeasureRepeated(config.warmup, config.reps, pass);
  const std::uint64_t lost = expected - std::min(expected, updates.load());

  std::cout << "  " << rounds_per_sec.mean << " rounds/sec (stddev "
            << rounds_per_sec.stddev << ")  updates=" << updates.load() << "/"
            << expected << " lost=" << lost << " refused=" << refused_frames
            << " mismatch=" << mismatches.load()
            << " order_violations=" << order_violations.load() << "\n";
  return JsonValue::Object(
      {{"tags", tags}, {"rounds_per_tag", rounds_per_tag},
       {"producers", producers}, {"updates", updates.load()},
       {"expected", expected}, {"lost", lost},
       {"refused_frames", refused_frames},
       {"parity_mismatches", mismatches.load()},
       {"order_violations", order_violations.load()},
       {"rounds_per_sec", rounds_per_sec.ToJson()}});
}

// ---------------------------------------------------------------------------
// Regress mode (--mode=regress): replay committed BENCH_*.json baselines.
// Each section a baseline records is re-measured into the same JsonValue
// --json writes (once per run; a figure section once per baseline file,
// since the baseline defines its workload), and every row of
// kRegressChecks compares one path of the baseline section with the same
// path of the fresh one through bench::RegressGate. Sections whose
// workloads have their own dedicated CI jobs (soak, wire, full sweeps) are
// logged as skipped rather than silently ignored.

enum class Direction { kAtLeast, kAtMost, kZero, kOverheadBudget };

struct RegressCheck {
  std::string_view section;
  std::string_view path;  // same dotted path in the baseline and fresh section
  Direction direction;
  /// Baseline bench::Stats blocks whose noise widens the band.
  std::vector<std::string_view> noise = {};
  bool abs_only = false;  // absolute timing: gated only under --regress-abs
  double tol_pct = -1.0;  // <0: --regress-tol
  std::string_view label = {};  // log name, when it is not the path
};

const RegressCheck kRegressChecks[] = {
    {"likelihood_map", "speedup", Direction::kAtLeast},
    {"likelihood_map", "steering_plan_ms_per_map", Direction::kAtMost, {},
     true},
    // The median of 7 paired ratios moved by ~5% between runs on a shared
    // 4-core host whose single windows spread 4-8%, so a fixed 15% band,
    // not a CV-widened one: it fails the planned path without the path-comb
    // kernel and half-comb reuse (3.1-3.3 against 4.7-4.9 under AVX2).
    {"fullphy_measurement", "speedup", Direction::kAtLeast, {}, false, 15.0},
    {"fullphy_measurement", "planned_ms_per_round", Direction::kAtMost,
     {"planned_stats"}, true},
    {"search", "parity_mismatches", Direction::kZero},
    {"search", "evaluated_fraction", Direction::kAtMost},
    {"search", "speedup", Direction::kAtLeast,
     {"exhaustive_stats", "coarse_stats"}},
    {"search", "coarse_ms_per_map", Direction::kAtMost, {"coarse_stats"},
     true},
    // Overhead percentages are noisy near zero: the budget is the larger
    // of the absolute 5% ceiling and baseline + 5 points.
    {"observability", "overhead_pct", Direction::kOverheadBudget},
    // Accuracy is deterministic for a fixed seed: a tight 10% band
    // catches algorithmic regressions without re-tuning the gate.
    {"figure", "median_error_m", Direction::kAtMost, {}, false, 10.0},
    {"figure", "p90_error_m", Direction::kAtMost, {}, false, 10.0},
    {"figure", "eval_ms_per_round.p50", Direction::kAtMost,
     {"eval_ms_per_round"}, true, -1.0, "eval_ms_per_round"},
};

/// Re-measures one baseline section: the fixed fig9 workloads of the sweep
/// sections, or the workload a figure section records (name, locations,
/// seed, threads), written through bench::FigureJson like the figure bench.
JsonValue MeasureSection(std::string_view section, const JsonValue& base,
                         std::size_t sweep_rounds,
                         const bloc::bench::CommonFlags& common) {
  if (section == "likelihood_map") return RunKernelComparison();
  if (section == "fullphy_measurement") return RunFullPhyComparison();
  if (section == "search") return RunSearchComparison(common.coarse_stride);
  if (section == "observability") return RunObsOverheadCheck(sweep_rounds);
  const JsonValue* name_node = base.Find("name");
  const std::string name =
      name_node != nullptr ? name_node->str : std::string("figure");
  const auto locations =
      static_cast<std::size_t>(base.Number("locations", 100));
  const auto seed = static_cast<std::uint64_t>(base.Number("seed", 1));
  const auto threads = static_cast<std::size_t>(base.Number("threads", 1));
  std::cerr << "regenerating " << name << " workload (" << locations
            << " locations, seed " << seed << ")...\n";
  sim::DatasetOptions options;
  options.locations = locations;
  const sim::Dataset ds =
      sim::GenerateDataset(sim::PaperTestbed(seed), options);
  core::LocalizerConfig config = sim::PaperLocalizerConfig(ds);
  common.Apply(config);
  std::vector<double> errors;
  const bloc::bench::Stats eval_ms = bloc::bench::MeasureRepeated(1, 3, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    errors = sim::EvaluateBloc(ds, config, threads);
    const std::chrono::duration<double, std::milli> ms =
        std::chrono::steady_clock::now() - t0;
    return ms.count() /
           static_cast<double>(std::max<std::size_t>(ds.rounds.size(), 1));
  });
  return *bloc::bench::FigureJson(name, locations, seed, threads,
                                  eval::ComputeStats(errors), eval_ms)
              .Find("figure");
}

std::size_t RunRegress(const std::vector<std::string>& paths, double tol_pct,
                       bool gate_abs, std::size_t sweep_rounds,
                       const bloc::bench::CommonFlags& common) {
  bloc::bench::RegressGate gate(tol_pct);
  std::map<std::string, JsonValue> measured;  // fresh sections by key

  for (const std::string& path : paths) {
    std::cout << "\n=== regress vs " << path << " ===\n";
    const std::optional<JsonValue> root = obs::ParseJsonFile(path);
    if (!root) {
      std::cerr << "bench_perf: cannot read or parse baseline " << path
                << "\n";
      gate.Zero(path + " (parse failure)", 1.0);
      continue;
    }

    for (const RegressCheck& check : kRegressChecks) {
      const JsonValue* base = root->Find(check.section);
      if (base == nullptr || (check.abs_only && !gate_abs)) continue;
      const bool figure = check.section == "figure";
      const std::string key =
          figure ? path + ":figure" : std::string(check.section);
      auto it = measured.find(key);
      if (it == measured.end()) {
        it = measured
                 .emplace(key, MeasureSection(check.section, *base,
                                              sweep_rounds, common))
                 .first;
      }
      const JsonValue& fresh = it->second;
      const std::string name =
          (figure ? fresh.Find("name")->str : std::string(check.section)) +
          "." + std::string(check.label.empty() ? check.path : check.label);
      const double baseline = base->Number(check.path);
      const double now = fresh.Number(check.path);
      double cv = 0.0;
      for (const std::string_view stats : check.noise) {
        cv += bloc::bench::BaselineCv(*base, stats);
      }
      switch (check.direction) {
        case Direction::kAtLeast:
          gate.AtLeast(name, baseline, now, cv, check.tol_pct);
          break;
        case Direction::kAtMost:
          gate.AtMost(name, baseline, now, cv, check.tol_pct);
          break;
        case Direction::kZero:
          gate.Zero(name, now);
          break;
        case Direction::kOverheadBudget:
          gate.Budget(name, std::max(5.0, baseline + 5.0), now);
          break;
      }
    }

    for (const char* section :
         {"fullphy_results", "dataset_store", "track", "soak", "soak_wire",
          "results"}) {
      if (root->Find(section) != nullptr) {
        gate.Skip(section, "covered by its own CI job, not re-run here");
      }
    }
  }

  std::cout << "\n=== regress summary: " << gate.checks() << " checks, "
            << gate.failures() << " failures ===\n";
  return gate.failures();
}

}  // namespace

int main(int argc, char** argv) {
  // Split off our flags; google-benchmark aborts on ones it doesn't know.
  // The shared --metrics-json/--trace/--threads/--search family goes
  // through bench::CommonFlags::TryParse like every other bench.
  std::string json_path;
  bloc::bench::CommonFlags common;
  std::string mode = "all";  // all | localize | fullphy | dataset | obs |
                             // search | track | soak | regress
  std::size_t sweep_rounds = 8;
  std::size_t dataset_locations = 100;
  std::size_t track_locations = 100;
  double obs_guard_pct = -1.0;  // <0: report only, no gate
  bool search_guard = false;
  bool track_parity = false;
  bool run_micro = true;
  SoakConfig soak_config;
  bool soak_wire = false;
  bool soak_guard = false;
  double soak_guard_p99_ms = -1.0;  // <0: no latency budget
  int admin_port = -1;              // <0: no admin endpoint
  bool admin_scrape = false;
  std::vector<std::string> baselines;
  double regress_tol_pct = 35.0;
  bool regress_abs = false;
  const auto parse_csv = [](std::string_view v) {
    std::vector<std::size_t> out;
    while (!v.empty()) {
      const std::size_t comma = v.find(',');
      out.push_back(std::stoul(std::string(v.substr(0, comma))));
      if (comma == std::string_view::npos) break;
      v.remove_prefix(comma + 1);
    }
    return out;
  };
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (common.TryParse(arg)) {
      continue;
    }
    if (arg.starts_with("--json=")) {
      json_path = arg.substr(7);
    } else if (arg.starts_with("--obs-guard=")) {
      obs_guard_pct = std::stod(std::string(arg.substr(12)));
    } else if (arg == "--search-guard") {
      search_guard = true;
    } else if (arg == "--track-parity") {
      track_parity = true;
    } else if (arg == "--wire") {
      soak_wire = true;
    } else if (arg.starts_with("--sweep-rounds=")) {
      sweep_rounds = std::stoul(std::string(arg.substr(15)));
    } else if (arg.starts_with("--dataset-locations=")) {
      dataset_locations = std::stoul(std::string(arg.substr(20)));
    } else if (arg.starts_with("--track-locations=")) {
      track_locations = std::stoul(std::string(arg.substr(18)));
    } else if (arg.starts_with("--tags=")) {
      soak_config.tags = parse_csv(arg.substr(7));
    } else if (arg.starts_with("--shards=")) {
      soak_config.shards = parse_csv(arg.substr(9));
    } else if (arg.starts_with("--producers=")) {
      soak_config.producers = parse_csv(arg.substr(12));
    } else if (arg.starts_with("--engine-threads=")) {
      soak_config.engine_threads = parse_csv(arg.substr(17));
    } else if (arg.starts_with("--assembler-threads=")) {
      soak_config.assembler_threads = parse_csv(arg.substr(20));
    } else if (arg.starts_with("--rounds-per-tag=")) {
      soak_config.rounds_per_tag = std::stoul(std::string(arg.substr(17)));
    } else if (arg.starts_with("--soak-reps=")) {
      soak_config.reps = std::stoul(std::string(arg.substr(12)));
    } else if (arg.starts_with("--soak-warmup=")) {
      soak_config.warmup = std::stoul(std::string(arg.substr(14)));
    } else if (arg.starts_with("--soak-locations=")) {
      soak_config.dataset_locations =
          std::stoul(std::string(arg.substr(17)));
    } else if (arg.starts_with("--shed-policy=")) {
      const std::string_view policy = arg.substr(14);
      if (policy == "shed-oldest") {
        soak_config.shed_policy = bloc::serve::ShedPolicy::kShedOldest;
      } else if (policy == "refuse-new") {
        soak_config.shed_policy = bloc::serve::ShedPolicy::kRefuseNew;
      } else {
        std::cerr << "bench_perf: --shed-policy must be 'shed-oldest' or "
                     "'refuse-new'\n";
        return 1;
      }
    } else if (arg == "--soak-guard") {
      soak_guard = true;
    } else if (arg.starts_with("--soak-guard=")) {
      soak_guard = true;
      soak_guard_p99_ms = std::stod(std::string(arg.substr(13)));
    } else if (arg.starts_with("--admin-port=")) {
      admin_port = std::stoi(std::string(arg.substr(13)));
    } else if (arg == "--admin-scrape") {
      admin_scrape = true;
    } else if (arg.starts_with("--baseline=")) {
      baselines.emplace_back(arg.substr(11));
    } else if (arg.starts_with("--regress-tol=")) {
      regress_tol_pct = std::stod(std::string(arg.substr(14)));
    } else if (arg == "--regress-abs") {
      regress_abs = true;
    } else if (arg.starts_with("--mode=")) {
      mode = arg.substr(7);
      if (mode != "all" && mode != "localize" && mode != "fullphy" &&
          mode != "dataset" && mode != "obs" && mode != "search" &&
          mode != "track" && mode != "soak" && mode != "regress") {
        std::cerr << "bench_perf: unknown --mode=" << mode
                  << " (expected all, localize, fullphy, dataset, obs, "
                     "search, track, soak or regress)\n";
        return 1;
      }
    } else if (arg == "--no-micro") {
      run_micro = false;
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  common.ApplyStartup();
  if (mode == "regress") run_micro = false;  // pure gate, no micro section
  if (run_micro) {
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_argv.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }

  JsonValue kernels, sweep, fullphy, fullphy_sweep, dataset, obs_overhead,
      search, track, soak, wire;
  const bool run_localize = mode == "all" || mode == "localize";
  const bool run_fullphy = mode == "all" || mode == "fullphy";
  const bool run_dataset = mode == "all" || mode == "dataset";
  const bool run_obs = mode == "all" || mode == "obs";
  const bool run_search = mode == "all" || mode == "search";
  const bool run_track = mode == "track";  // opt-in: moving-tag dataset
  // Opt-in: minutes of load generation. --wire swaps the in-process sweep
  // for the TCP-loopback smoke.
  const bool run_soak = mode == "soak" && !soak_wire;
  const bool run_wire = mode == "soak" && soak_wire;
  if (mode == "regress") {
    if (baselines.empty()) {
      std::cerr << "bench_perf: --mode=regress needs at least one "
                   "--baseline=PATH\n";
      return 1;
    }
    const std::size_t failures = RunRegress(baselines, regress_tol_pct,
                                            regress_abs, sweep_rounds,
                                            common);
    bloc::bench::FinishObservability(common);
    return failures == 0 ? 0 : 1;
  }
  // The admin endpoint comes up before the (slow) dataset generation so an
  // external scraper attached at launch gets answers immediately; per
  // sweep point the live service is attached behind /healthz.
  std::unique_ptr<serve::AdminServer> admin;
  std::vector<std::string> scrape_failures;
  if (run_soak && (admin_port >= 0 || admin_scrape)) {
    serve::AdminOptions admin_options;
    admin_options.port =
        admin_port >= 0 ? static_cast<std::uint16_t>(admin_port) : 0;
    admin = std::make_unique<serve::AdminServer>(nullptr, admin_options);
    std::cout << "admin endpoint on 127.0.0.1:" << admin->port()
              << " (/metrics /healthz /report)\n";
  }
  if (run_fullphy) {
    fullphy = RunFullPhyComparison();
    fullphy_sweep = RunFullPhyThreadSweep();
  }
  if (run_localize) {
    kernels = RunKernelComparison();
    sweep = RunThroughputSweep(sweep_rounds);
  }
  if (run_search) search = RunSearchComparison(common.coarse_stride);
  if (run_track) track = RunTrackComparison(track_locations,
                                            common.coarse_stride);
  if (run_dataset) dataset = RunDatasetSweep(dataset_locations);
  if (run_obs) obs_overhead = RunObsOverheadCheck(sweep_rounds);
  if (run_soak) {
    soak = RunSoakSweep(soak_config, admin.get(),
                        admin_scrape ? &scrape_failures : nullptr);
  }
  if (run_wire) wire = RunWireSmoke(soak_config);
  if (!json_path.empty()) {
    JsonValue doc = JsonValue::Object(
        {{"workload", "fig9"},
         {"rounds_per_batch", sweep_rounds},
         {"grid_resolution", 0.075},
         {"hardware_concurrency", std::thread::hardware_concurrency()},
         {"isa", dsp::simd::IsaName(dsp::simd::Active().isa)}});
    if (run_localize) doc.Set("likelihood_map", kernels);
    if (run_fullphy) doc.Set("fullphy_measurement", fullphy);
    if (run_search) doc.Set("search", search);
    if (run_track) doc.Set("track", track);
    if (run_obs) doc.Set("observability", obs_overhead);
    if (run_soak) doc.Set("soak", soak);
    if (run_wire) doc.Set("soak_wire", wire);
    if (run_dataset) doc.Set("dataset_store", dataset);
    if (run_fullphy) doc.Set("fullphy_results", fullphy_sweep);
    if (run_localize) doc.Set("results", sweep);
    if (obs::WriteJsonFile(json_path, doc)) {
      std::cout << "  wrote " << json_path << "\n";
    }
  }
  bloc::bench::FinishObservability(common);
  if (!scrape_failures.empty()) {
    for (const std::string& failure : scrape_failures) {
      std::cerr << "bench_perf: admin scrape validation failed: " << failure
                << "\n";
    }
    return 1;
  }
  // Counts recorded in a section, for the guards below.
  const auto count = [](const JsonValue& section, std::string_view path) {
    return static_cast<std::uint64_t>(section.Number(path));
  };
  const auto gate = [&](const char* what, const JsonValue& section,
                        std::initializer_list<std::pair<const char*,
                                                        const char*>> checks) {
    bool failed = false;
    for (const auto& [path, noun] : checks) {
      if (const std::uint64_t n = count(section, path); n > 0) {
        std::cerr << "bench_perf: " << what << " failed: " << n << " "
                  << noun << "\n";
        failed = true;
      }
    }
    return failed;
  };
  const double overhead_pct = obs_overhead.Number("overhead_pct");
  if (run_obs && obs_guard_pct >= 0.0 && overhead_pct > obs_guard_pct) {
    std::cerr << "bench_perf: observability overhead " << overhead_pct
              << "% exceeds the --obs-guard=" << obs_guard_pct
              << "% budget\n";
    return 1;
  }
  if (run_search && search_guard && count(search, "parity_mismatches") > 0) {
    std::cerr << "bench_perf: coarse-to-fine search selected "
              << count(search, "parity_mismatches") << "/"
              << count(search, "parity_rounds")
              << " positions differing from exhaustive (--search-guard)\n";
    return 1;
  }
  if (run_track && track_parity && count(track, "parity_mismatches") > 0) {
    std::cerr << "bench_perf: with gating off "
              << count(track, "parity_mismatches") << "/"
              << count(track, "parity_rounds")
              << " raw fixes differ from the engine pipeline "
                 "(--track-parity)\n";
    return 1;
  }
  if (run_wire && soak_guard &&
      gate("wire smoke SLO gate", wire,
           {{"lost", "updates lost"},
            {"refused_frames", "frames refused"},
            {"parity_mismatches", "position mismatches"},
            {"order_violations", "per-tag order violations"}})) {
    return 1;
  }
  if (run_soak && soak_guard) {
    // SLO gate: every admitted frame localized exactly once (no loss, no
    // shed, no expiry, no duplicates), every position bit-identical and in
    // per-tag order, throughput no worse than half the single-mutex
    // baseline, and p99 within the optional budget.
    bool failed = gate(
        "soak SLO gate", soak,
        {{"total_lost", "rounds lost"},
         {"total_parity_mismatches", "position mismatches"},
         {"total_order_violations", "per-tag order violations"},
         {"total_shed", "rounds shed under a loss-free workload"},
         {"total_expired", "rounds expired"},
         {"total_duplicates", "duplicate frames"}});
    const double ratio = soak.Number("throughput_ratio");
    if (ratio < 0.5) {
      std::cerr << "bench_perf: soak SLO gate failed: service/baseline "
                   "throughput ratio "
                << ratio << " below 0.5\n";
      failed = true;
    }
    const double worst_p99_ms = soak.Number("worst_p99_us") / 1e3;
    if (soak_guard_p99_ms >= 0.0 && worst_p99_ms > soak_guard_p99_ms) {
      std::cerr << "bench_perf: soak SLO gate failed: worst p99 "
                << worst_p99_ms << " ms exceeds the " << soak_guard_p99_ms
                << " ms budget\n";
      failed = true;
    }
    if (failed) return 1;
  }
  return 0;
}
