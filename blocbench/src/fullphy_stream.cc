// fullphy-stream: the paper testbed in full-PHY mode with one waypoint-
// moving tag, as a closed batch job through sim::StreamExperiment with the
// evaluate sink: GFSK synthesis -> channel -> CSI extraction -> wire ->
// Collector -> engine. The sim/phy layer does nearly all the work, so FFT,
// path and extraction changes show here and bloc kernel changes do not.
//
// Two chunk contents alternate, so each runs several times; a chunk's time
// and each of its rounds' times are their fastest run's (the host is shared
// and its neighbours' load would otherwise set the numbers).
#include <cstring>
#include <optional>
#include <stdexcept>

#include "eval/metrics.h"
#include "net/messages.h"
#include "net/transport.h"
#include "sim/experiment.h"
#include "sim/motion.h"
#include "workloads.h"

namespace blocbench {
namespace {

using namespace bloc;

/// Rounds per StreamExperiment call (each call builds its own testbed).
constexpr std::size_t kChunkRounds = 24;
/// Distinct chunk inputs (tag trajectories) the run alternates between.
constexpr std::size_t kChunkContents = 2;
/// Rounds of each one-thread call (a prefix of the first content).
constexpr std::size_t kSingleRounds = 6;
/// Set-up repeats after each pair of calls.
constexpr int kSetupsPerCall = 30;

sim::ScenarioConfig Scenario(std::uint64_t seed) {
  sim::ScenarioConfig scenario = sim::PaperTestbed(seed);
  scenario.mode = sim::MeasurementMode::kFullPhy;
  scenario.motion.model = sim::MotionModel::kWaypoint;
  return scenario;
}

std::uint64_t ChunkSeed(std::uint64_t seed, std::size_t chunk) {
  return seed * 1000003ull + chunk + 1;
}

struct Chunk {
  sim::StreamedExperiment out;
  double seconds = 0.0;
  /// Steady-clock time at each round's completion.
  std::vector<std::int64_t> done_ns;
};

Chunk Stream(const sim::ScenarioConfig& scenario,
             const core::LocalizerConfig& config, std::uint64_t position_seed,
             std::size_t rounds, std::size_t threads) {
  Chunk chunk;
  sim::DatasetOptions options;
  options.locations = rounds;
  options.position_seed = position_seed;
  options.measurement_threads = threads;
  options.progress = [&chunk](std::size_t, std::size_t) {
    chunk.done_ns.push_back(NowNs());
  };
  sim::StreamSinks sinks;
  sinks.evaluate = &config;
  const std::int64_t t0 = NowNs();
  chunk.out = sim::StreamExperiment(scenario, options, sinks);
  chunk.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  return chunk;
}

/// What StreamExperiment runs per round: a simulator, and the in-process
/// wire into a Collector with every anchor registered.
struct Pipeline {
  explicit Pipeline(const sim::ScenarioConfig& scenario)
      : testbed(scenario), simulator(testbed, 0), transport(collector) {
    for (const anchor::AnchorNode& node : testbed.anchors()) {
      net::AnchorHelloMsg hello;
      hello.anchor_id = node.id();
      hello.is_master = node.is_master();
      const geom::Vec2 p = node.geometry().AntennaPosition(0);
      hello.pos_x = p.x;
      hello.pos_y = p.y;
      hello.axis_radians = node.geometry().axis_radians;
      hello.num_antennas =
          static_cast<std::uint8_t>(node.geometry().num_antennas);
      transport.Send(hello);
    }
  }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  std::optional<net::MeasurementRound> Collect(
      const net::MeasurementRound& produced) {
    for (const anchor::CsiReport& report : produced.reports) {
      transport.Send(net::CsiReportMsg{report});
    }
    return collector.TakeRound(produced.round_id);
  }

  sim::Testbed testbed;
  sim::MeasurementSimulator simulator;
  net::Collector collector;
  net::InProcTransport transport;
};

net::Buffer Encoded(const net::MeasurementRound& round) {
  net::WireWriter w;
  net::EncodeMeasurementRound(round, w);
  return w.Take();
}

}  // namespace

void RunFullPhyStream(const Options& options, Trace& trace, Result& result) {
  const bool traced = trace.enabled();
  const double s = options.seconds;
  const sim::ScenarioConfig scenario = Scenario(options.seed);
  sim::DatasetOptions grid_options;
  const core::LocalizerConfig config =
      sim::PaperLocalizerConfig(scenario, grid_options);

  // Set-up: the testbed and the simulator with its warmed channel assets.
  std::vector<double> setups;
  const auto set_up = [&] {
    const std::int64_t t0 = NowNs();
    sim::Testbed testbed(scenario);
    const std::int64_t t1 = NowNs();
    sim::MeasurementSimulator simulator(testbed, 0);
    const std::int64_t t2 = NowNs();
    trace.Add("sim.setup", t1, t2, -1, 0);
    setups.push_back(static_cast<double>(t2 - t0) * 1e-9);
  };
  for (int i = 0; i < kSetupsAtStart; ++i) set_up();

  sim::Testbed testbed(scenario);
  const core::Localizer serial(testbed.deployment(), config);

  if (!traced) {
    // All-core calls alternate between the chunk contents, each followed by
    // a one-thread call, until the time is up. Each content's first run is
    // kept for the checks; its times are its fastest run's.
    std::vector<Chunk> singles;
    std::vector<Chunk> firsts;
    std::vector<double> best_s(kChunkContents, 0.0);
    std::vector<std::vector<double>> best_gap_ms(kChunkContents);
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(0.9 * s * 1e9);
    std::size_t runs = 0;
    for (; runs < kChunkContents || NowNs() < deadline; ++runs) {
      singles.push_back(Stream(scenario, config, ChunkSeed(options.seed, 0),
                               kSingleRounds, 1));
      const std::size_t content = runs % kChunkContents;
      Chunk c = Stream(scenario, config, ChunkSeed(options.seed, content),
                       kChunkRounds, 0);
      std::vector<double>& gaps = best_gap_ms[content];
      gaps.resize(c.done_ns.size() - 1, 0.0);
      for (std::size_t i = 1; i < c.done_ns.size(); ++i) {
        const double ms =
            static_cast<double>(c.done_ns[i] - c.done_ns[i - 1]) * 1e-6;
        if (gaps[i - 1] == 0.0 || ms < gaps[i - 1]) gaps[i - 1] = ms;
      }
      if (best_s[content] == 0.0 || c.seconds < best_s[content]) {
        best_s[content] = c.seconds;
      }
      if (runs < kChunkContents) {
        firsts.push_back(std::move(c));
        continue;
      }
      // Repeats must reproduce the first run's fixes bit for bit.
      const std::vector<double>& want = firsts[content].out.bloc_errors;
      for (std::size_t i = 0; i < want.size(); ++i) {
        const bool ok = std::memcmp(&want[i], &c.out.bloc_errors[i],
                                    sizeof(double)) == 0;
        result.Count(ok);
        if (!ok) result.correct = false;
      }
      for (int i = 0; i < kSetupsPerCall; ++i) set_up();
    }
    SetSetup(setups, result);
    std::vector<geom::Vec2> truths;
    for (const Chunk& c : firsts) {
      truths.insert(truths.end(), c.out.dataset.truths.begin(),
                    c.out.dataset.truths.end());
    }
    result.fingerprint = Fingerprint(truths);

    // Every fix against the serial reference (compared through its error,
    // which StreamExperiment reports), and the one-thread synthesis against
    // the all-core one: rounds are bit-identical for every thread count.
    std::vector<double> errors;
    for (const Chunk& c : firsts) {
      const sim::Dataset& d = c.out.dataset;
      const std::vector<geom::Vec2> reference =
          ReferencePositions(serial, d.rounds);
      for (std::size_t i = 0; i < d.rounds.size(); ++i) {
        const double want = eval::LocalizationError(reference[i], d.truths[i]);
        const double got = c.out.bloc_errors[i];
        const bool ok = std::memcmp(&want, &got, sizeof(double)) == 0;
        result.Count(ok);
        if (!ok) result.correct = false;
        errors.push_back(got);
      }
    }
    const sim::Dataset& first = firsts.front().out.dataset;
    double single_s = 0.0;
    for (const Chunk& single : singles) {
      const sim::Dataset& one = single.out.dataset;
      for (std::size_t i = 0; i < one.rounds.size(); ++i) {
        const bool ok = Encoded(one.rounds[i]) == Encoded(first.rounds[i]) &&
                        std::memcmp(&single.out.bloc_errors[i],
                                    &firsts.front().out.bloc_errors[i],
                                    sizeof(double)) == 0;
        result.Count(ok);
        if (!ok) result.correct = false;
      }
      if (single_s == 0.0 || single.seconds < single_s) single_s = single.seconds;
    }

    double total_s = 0.0;
    std::vector<double> gaps_ms;
    for (std::size_t k = 0; k < kChunkContents; ++k) {
      total_s += best_s[k];
      gaps_ms.insert(gaps_ms.end(), best_gap_ms[k].begin(), best_gap_ms[k].end());
    }
    const double rate =
        static_cast<double>(kChunkContents * kChunkRounds) / total_s;
    result.Set("rounds_per_s", rate);
    result.Set("sustained_rounds_per_s", rate);
    result.Set("rounds_per_s.t1",
               static_cast<double>(kSingleRounds) / single_s);
    result.Set("latency_p50_ms", Percentile(gaps_ms, 50));
    result.Samples("latency_p50_ms", gaps_ms.size());
    result.Detail("stream_calls", std::to_string(runs));
    SetErrors(errors, result);
    return;
  }

  // Traced: the stream's loop through the public pieces -- RunRound, the
  // in-process wire into a Collector, the Localizer's stages -- with a span
  // around each, then the same rounds untraced for the overhead (on a fresh
  // pipeline: the simulator's LO state advances round by round).
  Pipeline traced_pipeline(scenario);
  const std::vector<sim::TimedPose> trajectory = sim::SampleTrajectory(
      testbed, scenario.motion, 4096, ChunkSeed(options.seed, 0));
  std::vector<geom::Vec2> truths;
  for (const sim::TimedPose& p : trajectory) truths.push_back(p.position);
  result.fingerprint = Fingerprint(truths);

  core::LocalizerWorkspace ws;
  SearchTally tally;
  std::vector<net::MeasurementRound> rounds;
  std::vector<geom::Vec2> traced_positions;
  std::vector<double> traced_ns;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(0.4 * s * 1e9);
  for (std::size_t i = 0; i < trajectory.size() && (i == 0 || NowNs() < deadline);
       ++i) {
    const std::int32_t root = trace.Begin("round", -1, i);
    std::int32_t span = trace.Begin("sim.round", root, i);
    const net::MeasurementRound produced =
        traced_pipeline.simulator.RunRound(trajectory[i].position, i);
    trace.End(span);
    span = trace.Begin("net.collector", root, i);
    std::optional<net::MeasurementRound> round =
        traced_pipeline.Collect(produced);
    trace.End(span);
    if (!round) throw std::runtime_error("fullphy-stream: round incomplete");
    traced_positions.push_back(
        TracedLocate(serial, ws, *round, trace, root, tally).position);
    trace.End(root);
    const Span& r = trace.spans()[static_cast<std::size_t>(root)];
    traced_ns.push_back(static_cast<double>(r.end_ns - r.start_ns));
    TraceAnchorMaps(serial, ws, trace, i);
    rounds.push_back(std::move(*round));
  }
  tally.Report(result);
  result.Set("bloc.plan_cache.hit_ratio", PlanCacheHitRatio(serial.plan_cache()));
  std::vector<double> errors;
  for (std::size_t i = 0; i < traced_positions.size(); ++i) {
    errors.push_back(
        eval::LocalizationError(traced_positions[i], trajectory[i].position));
  }
  SetErrors(errors, result);

  Pipeline plain_pipeline(scenario);
  std::vector<double> plain_ns;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const std::int64_t t0 = NowNs();
    std::optional<net::MeasurementRound> round = plain_pipeline.Collect(
        plain_pipeline.simulator.RunRound(trajectory[i].position, i));
    if (!round) throw std::runtime_error("fullphy-stream: round incomplete");
    const core::LocationResult r = serial.Locate(*round, ws);
    plain_ns.push_back(static_cast<double>(NowNs() - t0));
    const bool ok = !IsSentinel(r) && SamePosition(r.position, traced_positions[i]) &&
                    Encoded(*round) == Encoded(rounds[i]);
    result.Count(ok);
    if (!ok) result.correct = false;
  }
  result.Set("trace.overhead_pct",
             100.0 * (Median(traced_ns) / Median(plain_ns) - 1.0));

  // Net: the frame codec over the collected reports.
  std::vector<net::Message> messages;
  for (const net::MeasurementRound& round : rounds) {
    for (const anchor::CsiReport& report : round.reports) {
      messages.push_back(net::CsiReportMsg{report});
    }
  }
  TimeCodec(messages, result);
}

}  // namespace blocbench
