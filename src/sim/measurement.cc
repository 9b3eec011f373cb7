#include "sim/measurement.h"

#include <algorithm>
#include <cmath>

#include "channel/noise.h"
#include "dsp/complex_ops.h"
#include "dsp/fft.h"
#include "link/channel_map.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phy/constants.h"

namespace bloc::sim {

using dsp::cplx;

namespace {

/// Noise-key leg ids: the tag->anchor and master->anchor measurements of
/// one (round, channel, anchor, antenna) tuple get distinct noise streams.
constexpr std::uint64_t kLegTag = 0;
constexpr std::uint64_t kLegMaster = 1;

}  // namespace

MeasurementSimulator::MeasurementSimulator(Testbed& testbed,
                                           std::size_t threads)
    : testbed_(testbed),
      noise_root_(dsp::Rng(testbed.config().seed).Fork("measurement-noise")),
      pool_(threads),
      workspaces_(pool_.size()) {
  WarmAssets();
}

const MeasurementSimulator::ChannelAssets& MeasurementSimulator::AssetsFor(
    std::uint8_t data_channel) {
  ChannelAssets& a = assets_[data_channel];
  if (assets_ready_[data_channel]) return a;
  const ScenarioConfig& cfg = testbed_.config();
  const phy::Packet packet = phy::MakeLocalizationPacket(
      data_channel, 0x50C0FFEEu, cfg.run_bits, cfg.payload_len);
  a.air_bits = phy::AssembleAirBits(packet, data_channel, 0x123456u);
  a.tx_iq = extractor_.modulator().Modulate(a.air_bits);
  a.plateaus = extractor_.FindPlateaus(a.air_bits);
  a.energies = extractor_.ComputePlateauEnergies(a.tx_iq, a.plateaus);
  a.n0 = a.plateaus.f0.size();
  a.n1 = a.plateaus.f1.size();
  // The transmit waveform is channel-invariant across measurements: cache
  // its forward transform so ApplyTransferFunction only pays the inverse.
  const std::size_t nfft = dsp::NextPow2(a.tx_iq.size());
  a.plan = fft_plans_.GetOrBuild(nfft);
  a.tx_fft.assign(nfft, cplx{0.0, 0.0});
  std::copy(a.tx_iq.begin(), a.tx_iq.end(), a.tx_fft.begin());
  a.plan->Forward(a.tx_fft);
  assets_ready_[data_channel] = true;
  return a;
}

void MeasurementSimulator::WarmAssets() {
  pool_.ParallelFor(link::kNumDataChannels,
                    [this](std::size_t ch, std::size_t) {
                      AssetsFor(static_cast<std::uint8_t>(ch));
                    });
}

void MeasurementSimulator::EnsureMasterPaths() {
  if (master_paths_ready_) return;
  const auto& anchors = testbed_.anchors();
  const std::size_t master_idx = testbed_.config().master_index;
  const geom::Vec2 master_tx =
      anchors[master_idx].geometry().AntennaPosition(0);
  master_paths_.assign(anchors.size(), {});
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    if (i == master_idx) continue;
    const auto& geometry = anchors[i].geometry();
    master_paths_[i].reserve(geometry.num_antennas);
    for (std::size_t j = 0; j < geometry.num_antennas; ++j) {
      master_paths_[i].push_back(
          testbed_.solver().Solve(master_tx, geometry.AntennaPosition(j)));
    }
  }
  master_paths_ready_ = true;
}

cplx MeasurementSimulator::Measure(const chan::PathSet& paths,
                                   double center_hz, cplx offset_rotor,
                                   double cfo_hz, const ChannelAssets& assets,
                                   std::uint64_t noise_key, Workspace& ws,
                                   dsp::CVec* rx_cache) const {
  if (testbed_.config().mode == MeasurementMode::kAnalytic) {
    return MeasureAnalytic(paths, center_hz, offset_rotor, assets, noise_key);
  }
  if (use_reference_fullphy_) {
    return MeasureFullPhyReference(paths, center_hz, offset_rotor, cfo_hz,
                                   assets, noise_key, ws);
  }
  return MeasureFullPhy(paths, center_hz, offset_rotor, cfo_hz, assets,
                        noise_key, ws, rx_cache);
}

cplx MeasurementSimulator::MeasureAnalytic(const chan::PathSet& paths,
                                           double center_hz,
                                           cplx offset_rotor,
                                           const ChannelAssets& assets,
                                           std::uint64_t noise_key) const {
  dsp::Rng rng(noise_key);
  const double dev = phy::kFrequencyDeviationHz;
  const double n0_var =
      testbed_.config().noise.NoiseVariance() /
      std::max<std::size_t>(assets.n0, 1);
  const double n1_var =
      testbed_.config().noise.NoiseVariance() /
      std::max<std::size_t>(assets.n1, 1);
  const cplx h0 = paths.Evaluate(center_hz - dev) * offset_rotor +
                  rng.ComplexGaussian(n0_var);
  const cplx h1 = paths.Evaluate(center_hz + dev) * offset_rotor +
                  rng.ComplexGaussian(n1_var);
  const cplx hs[2] = {h0, h1};
  return dsp::MergeAmpPhase(hs);
}

cplx MeasurementSimulator::MeasureFullPhy(const chan::PathSet& paths,
                                          double center_hz, cplx offset_rotor,
                                          double cfo_hz,
                                          const ChannelAssets& assets,
                                          std::uint64_t noise_key,
                                          Workspace& ws,
                                          dsp::CVec* rx_cache) const {
  const double fs = extractor_.modulator().sample_rate_hz();
  const std::size_t len = assets.tx_iq.size();

  std::span<const cplx> clean;
  if (rx_cache != nullptr && !rx_cache->empty()) {
    clean = std::span<const cplx>(rx_cache->data(), len);
  } else {
    const std::size_t nfft = assets.plan->size();
    const double df = fs / static_cast<double>(nfft);
    // Channel transfer function directly in FFT bin order: two uniform comb
    // ramps (DC..+fs/2 and -fs/2..-df) around the band centre, one
    // incremental rotor pair per path.
    const bool same_grid = ws.comb.size() == nfft;
    ws.comb.resize(nfft);
    if (nfft < 2) {
      paths.EvaluateCombInto(center_hz, df, ws.comb);
      ws.comb_paths = nullptr;
    } else {
      const std::size_t half = nfft / 2;
      const std::span<cplx> upper(ws.comb.data(), half);
      const std::span<cplx> lower(ws.comb.data() + half, half);
      const double lower_hz = center_hz - fs / 2.0;
      if (same_grid && ws.comb_paths == &paths &&
          ws.comb_upper_hz == lower_hz) {
        // The previous band's upper half-comb is this band's lower one:
        // same paths, start and step, so the same bits.
        std::copy(upper.begin(), upper.end(), lower.begin());
      } else {
        paths.EvaluateCombInto(lower_hz, df, lower);
      }
      paths.EvaluateCombInto(center_hz, df, upper);
      ws.comb_paths = &paths;
      ws.comb_upper_hz = center_hz;
    }
    ws.work.resize(nfft);
    dsp::ApplyTransferFunction(*assets.plan, assets.tx_fft, ws.comb, ws.work);
    if (rx_cache != nullptr) {
      rx_cache->assign(ws.work.begin(),
                       ws.work.begin() + static_cast<std::ptrdiff_t>(len));
    }
    clean = std::span<const cplx>(ws.work.data(), len);
  }

  // Fused single pass: LO offset rotor, CFO mixing via an incremental rotor
  // recurrence (no libm in the loop) and AWGN.
  ws.noise.resize(len);
  dsp::FillComplexNoise(noise_key, ws.noise,
                        testbed_.config().noise.NoiseVariance());
  ws.rx.resize(len);
  dsp::IncrementalRotor rotor(offset_rotor, dsp::kTwoPi * cfo_hz / fs);
  for (std::size_t n = 0; n < len; ++n) {
    const double vr = clean[n].real();
    const double vi = clean[n].imag();
    ws.rx[n] = {vr * rotor.re() - vi * rotor.im() + ws.noise[n].real(),
                vr * rotor.im() + vi * rotor.re() + ws.noise[n].imag()};
    rotor.Advance();
  }
  const phy::CsiEstimate est = extractor_.Estimate(
      assets.tx_iq, std::span<const cplx>(ws.rx.data(), len), assets.plateaus,
      assets.energies);
  return est.merged;
}

cplx MeasurementSimulator::MeasureFullPhyReference(
    const chan::PathSet& paths, double center_hz, cplx offset_rotor,
    double cfo_hz, const ChannelAssets& assets, std::uint64_t noise_key,
    Workspace& ws) const {
  const double fs = extractor_.modulator().sample_rate_hz();
  const std::size_t nfft = dsp::NextPow2(assets.tx_iq.size());
  const dsp::CVec comb =
      paths.EvaluateComb(center_hz - fs / 2.0, fs / static_cast<double>(nfft),
                         nfft);
  const double f_lo = -fs / 2.0;
  const double df = fs / static_cast<double>(nfft);
  dsp::CVec rx = dsp::ApplyTransferFunction(
      assets.tx_iq, fs, [&](double f) {
        auto idx = static_cast<std::size_t>(std::llround((f - f_lo) / df));
        if (idx >= comb.size()) idx = comb.size() - 1;
        return comb[idx];
      });

  // Same noise draw as the fast path (one keyed fill per measurement), so
  // the two paths differ only in their kernels.
  ws.noise.resize(rx.size());
  dsp::FillComplexNoise(noise_key, ws.noise,
                        testbed_.config().noise.NoiseVariance());
  const double dt = 1.0 / fs;
  for (std::size_t n = 0; n < rx.size(); ++n) {
    cplx v = rx[n] * offset_rotor;
    if (cfo_hz != 0.0) {
      v *= dsp::Rotor(dsp::kTwoPi * cfo_hz * static_cast<double>(n) * dt);
    }
    rx[n] = v + ws.noise[n];
  }
  const phy::CsiEstimate est =
      extractor_.Estimate(assets.tx_iq, rx, assets.plateaus);
  return est.merged;
}

net::MeasurementRound MeasurementSimulator::RunRound(
    const geom::Vec2& tag_position, std::uint64_t round_id) {
  static obs::Counter& rounds_metric =
      obs::GetCounter("sim.measurement.rounds");
  static obs::Histogram& round_us_metric =
      obs::GetHistogram("sim.measurement.round_us");
  obs::TraceSpan round_span("sim.measurement.round", "sim", round_id);
  obs::ScopedTimer round_timer(round_us_metric);
  rounds_metric.Inc();
  const ScenarioConfig& cfg = testbed_.config();
  auto& anchors = testbed_.anchors();
  const std::size_t num_anchors = anchors.size();
  const std::size_t master_idx = cfg.master_index;

  // Propagation geometry is frequency-independent: master links never move
  // (solved once per simulator), tag links once per round.
  EnsureMasterPaths();
  tag_paths_.resize(num_anchors);
  antenna_offset_.resize(num_anchors + 1);
  antenna_offset_[0] = 0;
  for (std::size_t i = 0; i < num_anchors; ++i) {
    const auto& geometry = anchors[i].geometry();
    tag_paths_[i].resize(geometry.num_antennas);
    for (std::size_t j = 0; j < geometry.num_antennas; ++j) {
      tag_paths_[i][j] =
          testbed_.solver().Solve(tag_position, geometry.AntennaPosition(j));
    }
    antenna_offset_[i + 1] = antenna_offset_[i] + geometry.num_antennas;
  }
  const std::size_t total_antennas = antenna_offset_[num_anchors];

  // Establish the BLE connection and hop through one localization round.
  link::Connection conn;
  conn.StartAdvertising();
  link::ConnectionParams params;
  params.channel_map = channel_map_;
  conn.Connect(params);
  const std::vector<link::ConnectionEvent> events = conn.LocalizationRound();
  const std::size_t num_events = events.size();

  for (anchor::AnchorNode& node : anchors) node.BeginRound(round_id);

  // Serial pre-pass: every radio retunes its LO per hop (fresh random
  // phases, drawn in the legacy order), and the resulting offset rotors and
  // CFO deltas are captured per (event, anchor, antenna). The parallel
  // phase below only reads this state.
  ev_tag_rotor_.resize(num_events * total_antennas);
  ev_master_rotor_.resize(num_events * total_antennas);
  ev_tag_cfo_.resize(num_events * num_anchors);
  ev_master_cfo_.resize(num_events * num_anchors);
  obs::TraceSpan prepass_span("sim.measurement.lo_prepass", "sim");
  for (std::size_t e = 0; e < num_events; ++e) {
    const double fc = link::DataChannelFrequencyHz(events[e].data_channel);
    testbed_.tag_oscillator().Retune();
    for (anchor::AnchorNode& node : anchors) node.oscillator().Retune();
    const cplx tag_lo = dsp::Rotor(testbed_.tag_oscillator().phase());
    const cplx master_lo = dsp::Rotor(anchors[master_idx].oscillator().phase());
    const double tag_cfo = testbed_.tag_oscillator().CfoHz(fc);
    const double master_cfo = anchors[master_idx].oscillator().CfoHz(fc);
    for (std::size_t i = 0; i < num_anchors; ++i) {
      const anchor::AnchorNode& node = anchors[i];
      const double node_cfo = node.oscillator().CfoHz(fc);
      ev_tag_cfo_[e * num_anchors + i] = tag_cfo - node_cfo;
      ev_master_cfo_[e * num_anchors + i] = master_cfo - node_cfo;
      for (std::size_t j = 0; j < node.geometry().num_antennas; ++j) {
        // Offset e^{j(phi_T - phi_Ri)} (+ per-antenna error).
        const cplx rx_rotor = std::conj(node.oscillator().PhaseRotor(j));
        ev_tag_rotor_[e * total_antennas + antenna_offset_[i] + j] =
            tag_lo * rx_rotor;
        ev_master_rotor_[e * total_antennas + antenna_offset_[i] + j] =
            master_lo * rx_rotor;
      }
    }
  }

  prepass_span.End();

  // Every band slot is laid out serially first (one block per report, bands
  // in event order); the parallel fan-out then writes each measurement into
  // its own slot. Each measurement keys its own noise stream on (round,
  // channel, anchor id, antenna, leg), so the result is independent of
  // which task or worker runs it.
  for (std::size_t i = 0; i < num_anchors; ++i) {
    const std::size_t antennas = anchors[i].geometry().num_antennas;
    anchor::CsiReport& report = anchors[i].mutable_report();
    report.Reserve(num_events,
                   num_events * antennas * (i == master_idx ? 1 : 2));
    for (std::size_t e = 0; e < num_events; ++e) {
      const std::uint8_t ch = events[e].data_channel;
      report.AddBand(ch, link::DataChannelFrequencyHz(ch), antennas,
                     i == master_idx ? 0 : antennas);
    }
  }

  // Fan-out over (anchor, antenna, chain) tasks. A chain is the round's
  // events on one parity of the 2 MHz channel grid, in ascending frequency:
  // consecutive members sit fs/2 = 4 MHz apart, so one band's upper
  // half-comb is the next band's lower half-comb, and the task's workspace
  // carries it over (MeasureFullPhy). A gap in the channel map just breaks
  // the chain.
  for (std::vector<std::size_t>& chain : chains_) chain.clear();
  for (std::size_t e = 0; e < num_events; ++e) {
    const double fc = link::DataChannelFrequencyHz(events[e].data_channel);
    chains_[std::llround(fc / link::kChannelSpacingHz) % 2].push_back(e);
  }
  for (std::vector<std::size_t>& chain : chains_) {
    std::ranges::sort(chain, {}, [&](std::size_t e) {
      return link::DataChannelFrequencyHz(events[e].data_channel);
    });
  }
  const std::size_t num_tasks = total_antennas * chains_.size();
  obs::TraceSpan fanout_span("sim.measurement.fanout", "sim", num_tasks);
  master_rx_.resize(link::kNumDataChannels * total_antennas);
  pool_.ParallelFor(num_tasks, [&](std::size_t task, std::size_t slot) {
    const std::size_t leg = task / chains_.size();  // flat antenna index
    const std::size_t i = static_cast<std::size_t>(
        std::ranges::upper_bound(antenna_offset_, leg) -
        antenna_offset_.begin() - 1);
    const std::size_t j = leg - antenna_offset_[i];
    anchor::AnchorNode& node = anchors[i];
    Workspace& ws = workspaces_[slot];
    ws.comb_paths = nullptr;  // tag paths are re-solved every round
    for (const std::size_t e : chains_[task % chains_.size()]) {
      const std::uint8_t ch = events[e].data_channel;
      const double fc = link::DataChannelFrequencyHz(ch);
      const ChannelAssets& assets = assets_[ch];
      const anchor::MutableBand band = node.mutable_report().mutable_band(e);
      // Tag packet, then (on slave anchors) the overheard master reply.
      band.tag_csi[j] = Measure(
          tag_paths_[i][j], fc, ev_tag_rotor_[e * total_antennas + leg],
          ev_tag_cfo_[e * num_anchors + i], assets,
          noise_root_.ForkKey({round_id, ch, node.id(), j, kLegTag}), ws,
          nullptr);
      if (i == master_idx) continue;
      band.master_csi[j] = Measure(
          master_paths_[i][j], fc, ev_master_rotor_[e * total_antennas + leg],
          ev_master_cfo_[e * num_anchors + i], assets,
          noise_root_.ForkKey({round_id, ch, node.id(), j, kLegMaster}), ws,
          &master_rx_[ch * total_antennas + leg]);
    }
  });
  fanout_span.End();

  for (anchor::AnchorNode& node : anchors) {
    anchor::CsiReport& report = node.mutable_report();
    for (std::size_t e = 0; e < num_events; ++e) {
      const anchor::MutableBand band = report.mutable_band(e);
      band.rssi_db =
          20.0 * std::log10(std::max(std::abs(band.tag_csi[0]), 1e-12));
    }
  }

  net::MeasurementRound round;
  round.round_id = round_id;
  for (const anchor::AnchorNode& node : anchors) {
    round.reports.push_back(node.report());
  }
  return round;
}

}  // namespace bloc::sim
