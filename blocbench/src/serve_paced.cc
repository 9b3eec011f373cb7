// serve-paced: 1000 moving tags replay a pool of waypoint-trajectory rounds
// through the real ingest path -- TcpTransport -> TcpServer ->
// LocalizationService (default options) -- from one generator thread on a
// fixed open-loop schedule. Phase 1 holds 250 rounds/s; phase 2 is a rate
// ladder that finds the highest rate meeting the latency limit. Latency is
// timed from when a round was due, so a stall counts against the rounds
// queued behind it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "eval/metrics.h"
#include "net/messages.h"
#include "net/transport.h"
#include "serve/service.h"
#include "sim/experiment.h"
#include "track/kalman.h"
#include "workloads.h"

namespace blocbench {
namespace {

using namespace bloc;

constexpr std::size_t kTags = 1000;
/// The pool: kTrajectories waypoint trajectories of kTrajectoryRounds
/// rounds each, so the fixes cover the whole room.
constexpr std::size_t kTrajectories = 16;
constexpr std::size_t kTrajectoryRounds = 24;
constexpr double kPhase1Rate = 250.0;
constexpr double kLimitMs = 50.0;
/// A phase whose generator sent a tenth of its rounds later than this is
/// not a valid pass: the offered schedule did not happen.
constexpr double kLateLimitMs = kLimitMs / 10.0;
constexpr double kLadderStart = 100.0;
constexpr double kLadderStep = 1.25;
constexpr double kLadderPrecision = 1.05;
constexpr int kMaxRungs = 40;
constexpr int kAttempts = 5;
/// The untraced run's phase 1 is this many slices spread through the ladder.
constexpr int kPhase1Slices = 10;
/// Warm-up rounds use a tag id outside the measured tags.
constexpr std::uint64_t kWarmupTag = kTags;

/// Round j of the run is tag j % kTags's round j / kTags. Tag t walks
/// trajectory t % kTrajectories from a start that differs between the tags
/// sharing it.
std::uint64_t TagOf(std::uint64_t j) { return j % kTags; }
std::uint64_t TagRoundOf(std::uint64_t j) { return j / kTags; }
std::size_t PoolIndex(std::uint64_t j) {
  const std::uint64_t tag = TagOf(j);
  const std::uint64_t start = (tag / kTrajectories) % (kTrajectoryRounds / 3);
  return static_cast<std::size_t>(
      (tag % kTrajectories) * kTrajectoryRounds +
      (start + TagRoundOf(j)) % kTrajectoryRounds);
}

/// One scheduled phase (phase 1, or one ladder rung). The update callback
/// fills the per-round slots from an assembler thread; `delivered[i]` is
/// stored last, so a reader that sees it set may read the slot.
struct Phase {
  Phase(std::uint64_t first_round, std::size_t rounds, double rate_per_s)
      : first(first_round), n(rounds), rate(rate_per_s), due_ns(rounds),
        send_ns(rounds * 5), cb_ns(rounds), latency_us(rounds),
        position(rounds), tracked(rounds), accepted(rounds),
        sentinel(rounds), delivered(rounds) {}

  std::uint64_t first;
  std::size_t n;
  double rate;
  std::vector<std::int64_t> due_ns;
  /// Before each of the four frames and after the last one.
  std::vector<std::int64_t> send_ns;
  std::vector<std::int64_t> cb_ns;
  std::vector<std::uint64_t> latency_us;
  std::vector<geom::Vec2> position;
  std::vector<geom::Vec2> tracked;
  std::vector<std::uint8_t> accepted;
  std::vector<std::uint8_t> sentinel;
  std::vector<std::atomic<std::uint8_t>> delivered;
  std::atomic<std::size_t> count{0};
};

/// Receives every PositionUpdate of the run.
class Recorder {
 public:
  void OnUpdate(const serve::PositionUpdate& u) {
    const std::int64_t now = NowNs();
    if (u.tag_id == kWarmupTag) {
      warm_.store(true, std::memory_order_release);
      return;
    }
    Phase* p = phase_.load(std::memory_order_acquire);
    const std::uint64_t j = u.round_id * kTags + u.tag_id;
    if (p == nullptr || j < p->first || j >= p->first + p->n ||
        p->delivered[j - p->first].load(std::memory_order_relaxed) != 0) {
      stray_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::size_t i = j - p->first;
    p->cb_ns[i] = now;
    p->latency_us[i] = u.latency_us;
    p->position[i] = u.result.position;
    p->tracked[i] = u.tracked_position;
    p->accepted[i] = u.fix_accepted ? 1 : 0;
    p->sentinel[i] = IsSentinel(u.result) ? 1 : 0;
    p->delivered[i].store(1, std::memory_order_release);
    p->count.fetch_add(1, std::memory_order_release);
  }

  void SetPhase(Phase* p) { phase_.store(p, std::memory_order_release); }
  void ResetWarm() { warm_.store(false, std::memory_order_release); }
  bool warm() const { return warm_.load(std::memory_order_acquire); }
  std::size_t stray() const { return stray_.load(std::memory_order_relaxed); }

 private:
  std::atomic<Phase*> phase_{nullptr};
  std::atomic<bool> warm_{false};
  std::atomic<std::size_t> stray_{0};
};

/// Service, server and client; members are destroyed client first.
struct Stack {
  std::unique_ptr<serve::LocalizationService> service;
  std::unique_ptr<net::TcpServer> server;
  std::unique_ptr<net::TcpTransport> client;
};

/// Pre-built frames: [pool round][anchor]. Tag and round ids are set in
/// place before each send (one generator thread owns them).
using Frames = std::vector<std::vector<net::Message>>;

void SendRound(net::TcpTransport& client, Frames& frames, std::size_t pool_index,
               std::uint64_t tag, std::uint64_t round, std::int64_t* stamps) {
  std::vector<net::Message>& msgs = frames[pool_index];
  for (std::size_t a = 0; a < msgs.size(); ++a) {
    auto& msg = std::get<net::TagCsiReportMsg>(msgs[a]);
    msg.tag_id = tag;
    msg.report.round_id = round;
    client.Send(msgs[a]);
    if (stamps != nullptr) stamps[a + 1] = NowNs();
  }
}

Stack BuildStack(const sim::Dataset& pool, const core::LocalizerConfig& config,
                 const serve::ServiceOptions& service_options,
                 Recorder& recorder, Frames& frames) {
  Stack s;
  s.service = std::make_unique<serve::LocalizationService>(
      pool.deployment, config, service_options);
  s.service->SetUpdateCallback(
      [&recorder](const serve::PositionUpdate& u) { recorder.OnUpdate(u); });
  s.service->Start();
  s.server = std::make_unique<net::TcpServer>(*s.service);
  s.client = std::make_unique<net::TcpTransport>("127.0.0.1", s.server->port());
  // One round through the whole path fills the engine's plan cache.
  recorder.ResetWarm();
  SendRound(*s.client, frames, 0, kWarmupTag, 0, nullptr);
  const std::int64_t deadline = NowNs() + 10'000'000'000;
  while (!recorder.warm()) {
    if (NowNs() > deadline) throw std::runtime_error("warm-up round lost");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return s;
}

struct PhaseOutcome {
  std::size_t delivered = 0;
  /// Delivered rounds per second, from the first round's due time to the
  /// last callback.
  double delivered_per_s = 0.0;
  std::size_t mismatches = 0;
  std::size_t sentinels = 0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  serve::ServiceCounters counters;  // deltas over the phase
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  bool backlog_grew = false;
  std::size_t ring_depth_max = 0;
  std::size_t inflight_max = 0;

  double P99Ms() const { return Percentile(latency_ms, 99); }
  double LateP90Ms() const { return Percentile(late_ms, 90); }
  double LateP99Ms() const { return Percentile(late_ms, 99); }
  bool GeneratorValid() const { return LateP90Ms() <= kLateLimitMs; }
  std::uint64_t Losses() const {
    return counters.refused_frames + counters.shed_rounds +
           counters.expired_rounds;
  }
  /// Why the phase is not a pass ("" when it is).
  std::string Failure(std::size_t n) const {
    std::string why;
    const auto add = [&why](const char* reason) {
      why += (why.empty() ? "" : ",") + std::string(reason);
    };
    if (delivered != n) add("lost");
    if (mismatches != 0 || sentinels != 0) add("wrong");
    if (Losses() != 0) add("refused/shed/expired");
    if (backlog_grew) add("backlog");
    if (P99Ms() > kLimitMs) add("p99");
    if (!GeneratorValid()) add("late");
    return why;
  }
  bool Pass(std::size_t n) const { return Failure(n).empty(); }

  /// Adds `o`'s rounds, samples and counters to this outcome's, as if both
  /// phases were one.
  void Absorb(const PhaseOutcome& o) {
    delivered += o.delivered;
    mismatches += o.mismatches;
    sentinels += o.sentinels;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    counters.admitted_frames += o.counters.admitted_frames;
    counters.refused_frames += o.counters.refused_frames;
    counters.duplicate_frames += o.counters.duplicate_frames;
    counters.shed_rounds += o.counters.shed_rounds;
    counters.expired_rounds += o.counters.expired_rounds;
    backlog_grew = backlog_grew || o.backlog_grew;
    ring_depth_max = std::max(ring_depth_max, o.ring_depth_max);
    inflight_max = std::max(inflight_max, o.inflight_max);
  }
};

serve::ServiceCounters Minus(const serve::ServiceCounters& a,
                             const serve::ServiceCounters& b) {
  serve::ServiceCounters d;
  d.admitted_frames = a.admitted_frames - b.admitted_frames;
  d.refused_frames = a.refused_frames - b.refused_frames;
  d.duplicate_frames = a.duplicate_frames - b.duplicate_frames;
  d.shed_rounds = a.shed_rounds - b.shed_rounds;
  d.expired_rounds = a.expired_rounds - b.expired_rounds;
  return d;
}

/// Sends `phase` on its open-loop schedule and waits for its updates.
PhaseOutcome RunPhase(Stack& stack, Recorder& recorder, Frames& frames,
                      Phase& phase, const std::vector<geom::Vec2>& reference,
                      bool sample_depths) {
  PhaseOutcome out;
  const serve::ServiceCounters before = stack.service->Counters();
  std::jthread sampler;
  if (sample_depths) {
    sampler = std::jthread([&](std::stop_token stop) {
      while (!stop.stop_requested()) {
        out.ring_depth_max =
            std::max(out.ring_depth_max, stack.service->RingDepth());
        out.inflight_max =
            std::max(out.inflight_max, stack.service->InflightLocates());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  recorder.SetPhase(&phase);
  const double period_ns = 1e9 / phase.rate;
  const std::int64_t t0 = NowNs() + 2'000'000;
  for (std::size_t i = 0; i < phase.n; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(
                                      std::llround(static_cast<double>(i) * period_ns));
    phase.due_ns[i] = due;
    SleepUntil(due);
    std::int64_t* stamps = &phase.send_ns[i * 5];
    stamps[0] = NowNs();
    const std::uint64_t j = phase.first + i;
    SendRound(*stack.client, frames, PoolIndex(j), TagOf(j), TagRoundOf(j),
              stamps);
    if (i + 1 == phase.n / 2) {
      out.backlog_mid = i + 1 - phase.count.load(std::memory_order_acquire);
    }
  }
  out.backlog_end = phase.n - phase.count.load(std::memory_order_acquire);
  // Growth over the second half beyond 2% of its rounds means the service
  // is not keeping up with the offered rate.
  const double half = static_cast<double>(phase.n) / 2.0;
  out.backlog_grew = static_cast<double>(out.backlog_end) >
                     static_cast<double>(out.backlog_mid) +
                         std::max(8.0, 0.02 * half);

  // Wait for every update; stop early once the service is idle and its
  // counters account for rounds that will never arrive.
  const std::int64_t deadline = NowNs() + 20'000'000'000;
  while (phase.count.load(std::memory_order_acquire) < phase.n &&
         NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const serve::ServiceCounters now = Minus(stack.service->Counters(), before);
    if (now.refused_frames + now.shed_rounds + now.expired_rounds != 0 &&
        stack.service->RingDepth() == 0 &&
        stack.service->InflightLocates() == 0) {
      break;
    }
  }
  if (sampler.joinable()) {
    sampler.request_stop();
    sampler.join();
  }
  recorder.SetPhase(nullptr);
  out.counters = Minus(stack.service->Counters(), before);

  std::int64_t last_cb = phase.due_ns.front();
  for (std::size_t i = 0; i < phase.n; ++i) {
    out.late_ms.push_back(static_cast<double>(phase.send_ns[i * 5] - phase.due_ns[i]) * 1e-6);
    if (phase.delivered[i].load(std::memory_order_acquire) == 0) continue;
    ++out.delivered;
    last_cb = std::max(last_cb, phase.cb_ns[i]);
    out.latency_ms.push_back(static_cast<double>(phase.cb_ns[i] - phase.due_ns[i]) * 1e-6);
    if (phase.sentinel[i] != 0) {
      ++out.sentinels;
    } else if (!SamePosition(phase.position[i],
                             reference[PoolIndex(phase.first + i)])) {
      ++out.mismatches;
    }
  }
  if (last_cb > phase.due_ns.front()) {
    out.delivered_per_s = static_cast<double>(out.delivered) /
                          (static_cast<double>(last_cb - phase.due_ns.front()) * 1e-9);
  }
  return out;
}

struct LadderOutcome {
  /// The highest rate that met the limit.
  double sustained = 0.0;
  /// The highest delivered rate of any rung: above the knee the service
  /// delivers what it can, so this is its throughput under overload.
  double peak_delivered = 0.0;
};

/// Runs the rate ladder: x1.25 from 100 rounds/s until a rate fails, then
/// bisects to within 5%. `before_rate` runs before the attempts at each
/// rate; `set_up` rebuilds `stack` before every attempt. Every rung is
/// logged with the reasons it failed ("" = pass).
LadderOutcome RunLadder(const std::function<void()>& before_rate,
                        const std::function<void()>& set_up,
                        std::optional<Stack>& stack, Recorder& recorder,
                        Frames& frames, const std::vector<geom::Vec2>& reference,
                        double rung_s, std::uint64_t& next_round,
                        std::vector<std::unique_ptr<Phase>>& phases,
                        Result& result, std::string& log) {
  LadderOutcome ladder;
  double lo = 0.0;
  double hi = 0.0;
  double rate = kLadderStart;
  for (int rung = 0; rung < kMaxRungs; ++rung) {
    before_rate();
    const std::size_t n =
        std::max<std::size_t>(20, static_cast<std::size_t>(rate * rung_s));
    // A rate fails only when every attempt at it fails: a stretch of a
    // neighbour's load on the shared host must not end the ladder.
    bool pass = false;
    for (int attempt = 0; attempt < kAttempts && !pass; ++attempt) {
      set_up();
      phases.push_back(std::make_unique<Phase>(next_round, n, rate));
      next_round += n;
      const PhaseOutcome o =
          RunPhase(*stack, recorder, frames, *phases.back(), reference, false);
      const std::string failure = o.Failure(n);
      pass = failure.empty();
      ladder.peak_delivered = std::max(ladder.peak_delivered, o.delivered_per_s);
      // Rungs above the knee may delay or lose rounds by design; every
      // delivered fix still has to match the reference.
      const std::size_t bad = o.mismatches + o.sentinels;
      for (std::size_t i = 0; i < o.delivered; ++i) result.Count(i >= bad);
      if (bad != 0) result.correct = false;
      char line[320];
      std::snprintf(line, sizeof(line),
                    "%s{\"rate\": %.1f, \"rounds\": %zu, \"delivered\": %zu, "
                    "\"delivered_per_s\": %.1f, \"p99_ms\": %.3f, "
                    "\"late_p90_ms\": %.3f, \"backlog\": "
                    "[%zu, %zu], \"losses\": %llu, \"failure\": \"%s\"}",
                    log.empty() ? "" : ", ", rate, n, o.delivered,
                    o.delivered_per_s, o.P99Ms(), o.LateP90Ms(), o.backlog_mid,
                    o.backlog_end, static_cast<unsigned long long>(o.Losses()),
                    failure.c_str());
      log += line;
    }
    if (pass) {
      lo = rate;
    } else {
      hi = rate;
    }
    if (hi == 0.0) {
      rate *= kLadderStep;
    } else if (lo == 0.0) {
      rate = hi / 2.0;
    } else if (hi / lo > kLadderPrecision) {
      rate = std::sqrt(lo * hi);
    } else {
      break;
    }
  }
  ladder.sustained = lo;
  return ladder;
}

}  // namespace

void RunServePaced(const Options& options, Trace& trace, Result& result) {
  const bool traced = trace.enabled();
  const double s = options.seconds;

  sim::ScenarioConfig scenario = sim::PaperTestbed(options.seed);
  scenario.motion.model = sim::MotionModel::kWaypoint;
  sim::DatasetOptions dataset_options;
  dataset_options.locations = kTrajectoryRounds;
  dataset_options.measurement_threads = 0;
  const std::int64_t g0 = NowNs();
  sim::Dataset pool;
  for (std::size_t t = 0; t < kTrajectories; ++t) {
    dataset_options.position_seed = options.seed * 1000003ull + t + 1;
    sim::Dataset d = sim::GenerateDataset(scenario, dataset_options);
    if (t == 0) {
      pool.deployment = d.deployment;
      pool.room_grid = d.room_grid;
    }
    for (std::size_t i = 0; i < d.rounds.size(); ++i) {
      pool.rounds.push_back(std::move(d.rounds[i]));
      pool.truths.push_back(d.truths[i]);
    }
  }
  result.Set("sim.generate_s", static_cast<double>(NowNs() - g0) * 1e-9);
  result.fingerprint = Fingerprint(pool.truths);

  const core::LocalizerConfig config = sim::PaperLocalizerConfig(pool);
  const core::Localizer serial(pool.deployment, config);
  const std::vector<geom::Vec2> reference =
      ReferencePositions(serial, pool.rounds);

  Frames frames(pool.rounds.size());
  for (std::size_t r = 0; r < pool.rounds.size(); ++r) {
    for (const anchor::CsiReport& report : pool.rounds[r].reports) {
      frames[r].push_back(net::TagCsiReportMsg{0, report});
    }
  }

  // The service calls into `recorder` and the phases until the stacks are
  // destroyed, so both are declared before them.
  Recorder recorder;
  std::vector<std::unique_ptr<Phase>> phases;
  std::uint64_t next_round = 0;
  const serve::ServiceOptions defaults;
  // Set-up: a service stack and one round through it. Phase 1 runs on
  // `stack`, built at the start; the untraced run builds a fresh
  // `ladder_stack` before every ladder attempt.
  std::vector<double> setups;
  std::optional<Stack> stack;
  std::optional<Stack> ladder_stack;
  const auto set_up = [&](std::optional<Stack>& target) {
    target.reset();
    const std::int64_t t0 = NowNs();
    target.emplace(BuildStack(pool, config, defaults, recorder, frames));
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  };
  for (int i = 0; i < kSetupsAtStart; ++i) set_up(stack);

  const auto run_phase1 = [&](double seconds, bool sample) {
    const std::size_t n = static_cast<std::size_t>(kPhase1Rate * seconds);
    phases.push_back(std::make_unique<Phase>(next_round, n, kPhase1Rate));
    next_round += n;
    return RunPhase(*stack, recorder, frames, *phases.back(), reference, sample);
  };
  // Phase 1 is one phase in the traced run and kPhase1Slices slices in the
  // untraced one; `p1` is their outcome taken together.
  std::vector<const Phase*> p1_phases;
  PhaseOutcome p1;
  const auto run_phase1_slice = [&](double seconds, bool sample) {
    p1.Absorb(run_phase1(seconds, sample));
    p1_phases.push_back(phases.back().get());
  };

  // A traced run first repeats phase 1 untraced for the overhead. The
  // untraced run spreads phase 1 through the ladder, one slice before each
  // rate it tries, so phase 1 and the ladder see the same stretches of the
  // host's load.
  double untraced_p50_ms = 0.0;
  LadderOutcome ladder;
  std::string ladder_log;
  if (traced) {
    untraced_p50_ms = Percentile(run_phase1(0.3 * s, false).latency_ms, 50);
    run_phase1_slice(0.35 * s, true);
  } else {
    const double slice_s = 0.4 * s / kPhase1Slices;
    int slices_left = kPhase1Slices;
    const auto before_rate = [&] {
      if (slices_left > 0) {
        --slices_left;
        ladder_stack.reset();
        run_phase1_slice(slice_s, false);
      }
    };
    ladder = RunLadder(before_rate, [&] { set_up(ladder_stack); }, ladder_stack,
                       recorder, frames, reference, s / 48.0, next_round,
                       phases, result, ladder_log);
    ladder_stack.reset();
    for (; slices_left > 0; --slices_left) run_phase1_slice(slice_s, false);
  }

  std::size_t p1_rounds = 0;
  for (const Phase* phase : p1_phases) {
    p1_rounds += phase->n;
    for (std::size_t i = 0; i < phase->n; ++i) {
      const bool delivered = phase->delivered[i].load() != 0;
      result.Count(delivered && phase->sentinel[i] == 0 &&
                   SamePosition(phase->position[i],
                                reference[PoolIndex(phase->first + i)]));
    }
  }
  // Lost rounds (refused, shed or expired frames) count as failed above;
  // a wrong or sentinel fix also makes the output incorrect.
  if (p1.mismatches != 0 || p1.sentinels != 0) result.correct = false;
  result.Detail("phase1", std::string("{\"rate\": ") + JsonNumber(kPhase1Rate) +
                              ", \"rounds\": " + std::to_string(p1_rounds) +
                              ", \"slices\": " + std::to_string(p1_phases.size()) +
                              ", \"generator_valid\": " +
                              (p1.GeneratorValid() ? "true" : "false") +
                              ", \"late_p90_ms\": " + JsonNumber(p1.LateP90Ms()) +
                              ", \"late_p99_ms\": " + JsonNumber(p1.LateP99Ms()) +
                              ", \"pass\": " + (p1.Pass(p1_rounds) ? "true" : "false") + "}");
  if (!p1.GeneratorValid()) {
    std::cerr << "serve-paced: generator ran late in phase 1 (p90 "
              << p1.LateP90Ms() << " ms); phase 1 is not a valid pass\n";
  }
  result.Detail("phase1.latency_ms",
                "{\"p50\": " + JsonNumber(Percentile(p1.latency_ms, 50)) +
                    ", \"p90\": " + JsonNumber(Percentile(p1.latency_ms, 90)) +
                    ", \"p99\": " + JsonNumber(p1.P99Ms()) +
                    ", \"p99.9\": " + JsonNumber(Percentile(p1.latency_ms, 99.9)) +
                    ", \"max\": " + JsonNumber(Percentile(p1.latency_ms, 100)) + "}");
  // Each pool round is sent many times, by different tags spread through
  // phase 1; it counts at its fastest repeat, and the median is taken over
  // the pool rounds. A stretch of a neighbour's load on the shared host
  // would otherwise set it. The whole phase's median stays in the record.
  std::vector<double> fastest_ms(pool.rounds.size(), -1.0);
  std::vector<double> errors;
  std::vector<double> tracked_errors;
  std::size_t accepted = 0;
  for (const Phase* phase : p1_phases) {
    for (std::size_t i = 0; i < phase->n; ++i) {
      if (phase->delivered[i].load() == 0) continue;
      const std::size_t k = PoolIndex(phase->first + i);
      const double ms =
          static_cast<double>(phase->cb_ns[i] - phase->due_ns[i]) * 1e-6;
      if (fastest_ms[k] < 0.0 || ms < fastest_ms[k]) fastest_ms[k] = ms;
      errors.push_back(eval::LocalizationError(phase->position[i], pool.truths[k]));
      tracked_errors.push_back(
          eval::LocalizationError(phase->tracked[i], pool.truths[k]));
      accepted += phase->accepted[i];
    }
  }
  std::erase_if(fastest_ms, [](double ms) { return ms < 0.0; });
  result.Set("latency_p50_ms", Percentile(fastest_ms, 50));
  result.Samples("latency_p50_ms", fastest_ms.size());
  result.Set("serve.latency_p99_ms", p1.P99Ms());
  result.Samples("serve.latency_p99_ms", p1.latency_ms.size());
  SetErrors(errors, result);
  result.Set("eval.tracked_median_error_m", Median(tracked_errors));
  result.Set("track.fix_accept_ratio",
             static_cast<double>(accepted) / static_cast<double>(errors.size()));

  if (!traced) {
    SetSetup(setups, result);
    result.Detail("ladder", "[" + ladder_log + "]");
    if (ladder.sustained <= 0.0) {
      throw std::runtime_error("serve-paced: no ladder rung passed");
    }
    result.Set("sustained_rounds_per_s", ladder.sustained);
    result.Set("rounds_per_s", ladder.peak_delivered);
    // The service's default engine pool is one thread today, so the
    // one-thread knee is the ladder's. A one-thread ladder on its own stack
    // belongs here once that default changes.
    result.Set("rounds_per_s.t1", ladder.sustained);
  }
  const std::size_t stray = recorder.stray();
  result.Set("bloc.plan_cache.hit_ratio",
             PlanCacheHitRatio(stack->service->engine().plan_cache()));
  stack.reset();
  result.Detail("stray_updates", std::to_string(stray));
  if (!traced) return;

  // The traced phase-1 rounds: due -> callback, with the generator's
  // lateness, each frame's TcpTransport::Send, and the service's own
  // in-service time (first-frame admission -> result) as children.
  std::vector<double> outside_ms;
  const Phase& phase1 = *p1_phases.front();
  for (std::size_t i = 0; i < phase1.n; ++i) {
    if (phase1.delivered[i].load() == 0) continue;
    const std::uint64_t j = phase1.first + i;
    const std::int64_t* st = &phase1.send_ns[i * 5];
    const std::int32_t root =
        trace.Add("round", phase1.due_ns[i], phase1.cb_ns[i], -1, j);
    trace.Add("gen.late", phase1.due_ns[i], st[0], root, j);
    for (int f = 0; f < 4; ++f) trace.Add("net.send", st[f], st[f + 1], root, j);
    const std::int64_t in_service =
        static_cast<std::int64_t>(phase1.latency_us[i]) * 1000;
    trace.Add("serve.in_service", phase1.cb_ns[i] - in_service,
              phase1.cb_ns[i], root, j);
    outside_ms.push_back(
        static_cast<double>(phase1.cb_ns[i] - phase1.due_ns[i] - in_service) *
        1e-6);
  }
  result.Set("serve.outside_ms", Percentile(outside_ms, 50));
  result.Set("serve.ring_depth.max", static_cast<double>(p1.ring_depth_max));
  result.Set("serve.inflight.max", static_cast<double>(p1.inflight_max));
  result.Set("serve.admitted", static_cast<double>(p1.counters.admitted_frames));
  result.Set("serve.refused", static_cast<double>(p1.counters.refused_frames));
  result.Set("serve.shed", static_cast<double>(p1.counters.shed_rounds));
  result.Set("serve.expired", static_cast<double>(p1.counters.expired_rounds));
  result.Set("serve.duplicates",
             static_cast<double>(p1.counters.duplicate_frames));
  result.Set("trace.overhead_pct",
             100.0 * (Percentile(p1.latency_ms, 50) / untraced_p50_ms - 1.0));

  // Track: replay every tag's delivered fixes through a KalmanTracker under
  // the service's dt rule; the tracked positions must match bit for bit.
  {
    std::vector<track::KalmanTracker> trackers(kTags,
                                               track::KalmanTracker(defaults.kalman));
    std::vector<std::int64_t> last_round(kTags, -1);
    std::size_t updates = 0;
    std::size_t tracked_mismatches = 0;
    std::int64_t busy_ns = 0;
    for (const std::unique_ptr<Phase>& p : phases) {
      for (std::size_t i = 0; i < p->n; ++i) {
        if (p->delivered[i].load() == 0 || p->sentinel[i] != 0) continue;
        const std::uint64_t j = p->first + i;
        const std::size_t tag = TagOf(j);
        const std::int64_t round = static_cast<std::int64_t>(TagRoundOf(j));
        const double dt = last_round[tag] < 0
                              ? 0.0
                              : static_cast<double>(round - last_round[tag]) *
                                    defaults.round_period_s;
        const std::int64_t t0 = NowNs();
        const bool ok = trackers[tag].Update(p->position[i], dt);
        busy_ns += NowNs() - t0;
        ++updates;
        if (last_round[tag] < 0 || ok || dt > 0.0) last_round[tag] = round;
        if (!SamePosition(trackers[tag].position(), p->tracked[i])) {
          ++tracked_mismatches;
        }
      }
    }
    result.Set("track.update_us",
               static_cast<double>(busy_ns) * 1e-3 / static_cast<double>(updates));
    result.Detail("track.tracked_mismatches", std::to_string(tracked_mismatches));
    if (tracked_mismatches != 0) result.correct = false;
  }

  // Net: the frame codec over the pool's frames.
  std::vector<net::Message> messages;
  for (const std::vector<net::Message>& msgs : frames) {
    messages.insert(messages.end(), msgs.begin(), msgs.end());
  }
  TimeCodec(messages, result);

  // Bloc: the stage split of the same pool rounds, outside the service.
  core::LocalizerWorkspace ws;
  SearchTally tally;
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(0.15 * s * 1e9);
  for (std::size_t k = 0; k < pool.rounds.size() && (k == 0 || NowNs() < deadline); ++k) {
    const core::LocationResult r =
        TracedLocate(serial, ws, pool.rounds[k], trace, -1, tally);
    TraceAnchorMaps(serial, ws, trace, k);
    if (!SamePosition(r.position, reference[k])) result.correct = false;
  }
  tally.Report(result);
}

}  // namespace blocbench
