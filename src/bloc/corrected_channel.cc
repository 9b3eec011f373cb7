#include "bloc/corrected_channel.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

namespace bloc::core {

using anchor::BandMeasurement;
using anchor::CsiReport;
using dsp::cplx;

void RoundView::Begin(const net::MeasurementRound& r) {
  round = &r;
  num_reports_ = 0;
}

RoundView::ReportView& RoundView::Append(std::size_t report_index) {
  if (num_reports_ == pool_.size()) pool_.emplace_back();
  ReportView& rv = pool_[num_reports_++];
  rv.report_index = report_index;
  rv.bands.clear();
  return rv;
}

void RoundView::AssignAll(const net::MeasurementRound& r) {
  Begin(r);
  for (std::size_t i = 0; i < r.reports.size(); ++i) {
    ReportView& rv = Append(i);
    for (std::size_t k = 0; k < r.reports[i].band_count(); ++k) {
      rv.bands.push_back(k);
    }
  }
}

void ComputeCorrectedChannelsInto(const RoundView& view,
                                  CorrectedChannels& out) {
  std::size_t master_index = view.num_reports();
  for (std::size_t i = 0; i < view.num_reports(); ++i) {
    if (view.Report(i).is_master) {
      if (master_index != view.num_reports()) {
        throw std::invalid_argument("corrected channels: multiple masters");
      }
      master_index = i;
    }
  }
  if (master_index == view.num_reports()) {
    throw std::invalid_argument("corrected channels: no master report");
  }
  const CsiReport& master = view.Report(master_index);

  // band_of[i][channel]: the first kept band of report i on `channel`, or
  // -1. Built once per round so every lookup below is O(1). The scratch is
  // thread_local so per-round recomputation stays allocation-free; each
  // engine worker has its own copy.
  thread_local std::vector<std::array<std::int32_t, 256>> band_of;
  band_of.resize(view.num_reports());
  for (std::size_t i = 0; i < view.num_reports(); ++i) {
    band_of[i].fill(-1);
    const CsiReport& r = view.Report(i);
    for (std::size_t k : view.View(i).bands) {
      std::int32_t& slot = band_of[i][r.band(k).data_channel];
      if (slot < 0) slot = static_cast<std::int32_t>(k);
    }
  }
  const auto band_in = [&](std::size_t i, std::uint8_t channel) {
    return view.Report(i).band(static_cast<std::size_t>(band_of[i][channel]));
  };

  // Bands present in every kept report (channel hops can be lost to noise).
  thread_local std::vector<std::uint8_t> common;
  common.clear();
  for (std::size_t k : view.View(master_index).bands) {
    const std::uint8_t channel = master.band(k).data_channel;
    bool everywhere = true;
    for (std::size_t i = 0; i < view.num_reports(); ++i) {
      if (band_of[i][channel] < 0) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) common.push_back(channel);
  }
  if (common.empty()) {
    throw std::invalid_argument("corrected channels: no common bands");
  }
  std::sort(common.begin(), common.end(),
            [&](std::uint8_t a, std::uint8_t b) {
              return band_in(master_index, a).freq_hz <
                     band_in(master_index, b).freq_hz;
            });

  out.band_channels.assign(common.begin(), common.end());
  out.band_freqs_hz.clear();
  out.band_freqs_hz.reserve(common.size());
  for (std::uint8_t c : common) {
    out.band_freqs_hz.push_back(band_in(master_index, c).freq_hz);
  }

  out.anchors.resize(view.num_reports());
  for (std::size_t i = 0; i < view.num_reports(); ++i) {
    const CsiReport& r = view.Report(i);
    AnchorCorrected& ac = out.anchors[i];
    ac.anchor_id = r.anchor_id;
    ac.is_master = r.is_master;
    const std::size_t antennas =
        r.band(view.View(i).bands.front()).tag_csi.size();
    ac.alpha.resize(antennas);
    for (std::size_t j = 0; j < antennas; ++j) {
      ac.alpha[j].assign(common.size(), cplx{0, 0});
    }
    for (std::size_t k = 0; k < common.size(); ++k) {
      const BandMeasurement band = band_in(i, common[k]);
      const BandMeasurement mband = band_in(master_index, common[k]);
      if (mband.tag_csi.empty() || band.tag_csi.size() < antennas ||
          (!r.is_master && antennas > 0 && band.master_csi.empty())) {
        throw std::out_of_range("corrected channels: band CSI too short");
      }
      const cplx h00 = mband.tag_csi[0];
      for (std::size_t j = 0; j < antennas; ++j) {
        const cplx h_ij = band.tag_csi[j];
        if (r.is_master) {
          ac.alpha[j][k] = h_ij * std::conj(h00);
        } else {
          // Overheard master response, measured at this anchor's antenna 0.
          const cplx big_h_i0 = band.master_csi[0];
          ac.alpha[j][k] = h_ij * std::conj(big_h_i0) * std::conj(h00);
        }
      }
    }
  }
}

CorrectedChannels ComputeCorrectedChannels(
    const net::MeasurementRound& round) {
  RoundView view;
  view.AssignAll(round);
  CorrectedChannels out;
  ComputeCorrectedChannelsInto(view, out);
  return out;
}

}  // namespace bloc::core
