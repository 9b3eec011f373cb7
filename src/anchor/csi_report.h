// Measurement records an anchor ships to the central server (paper §3):
// for every hopped band, the CSI of the tag's packet on every antenna plus
// the CSI of the master anchor's response (the overheard side used for
// phase-offset cancellation).
//
// Storage: a report keeps all of its bands in ONE heap block, the band
// records first and every band's CSI after them:
//
//   [BandRecord x band capacity][tag CSI band 0][master CSI band 0][tag ...]
//
// so a 37-band frame is one allocation (not two vectors per band), a copy
// is one allocation plus a memcpy, and a move is a pointer swap. Bands are
// read through BandMeasurement views into that block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <ranges>
#include <span>

#include "dsp/types.h"

namespace bloc::anchor {

/// One hopped band of a report. As returned by CsiReport it is a view: the
/// spans point into the report's storage and stay valid until the report
/// is modified or destroyed. Built by hand (spans over caller-owned CSI)
/// it is the input of CsiReport::AddBand.
struct BandMeasurement {
  std::uint8_t data_channel = 0;
  double freq_hz = 0.0;
  /// CSI of the tag->anchor transmission, one entry per antenna (h-hat_ij).
  std::span<const dsp::cplx> tag_csi;
  /// CSI of the master->anchor transmission per antenna (H-hat_ij); on the
  /// master anchor itself this is empty (there is nothing to overhear).
  std::span<const dsp::cplx> master_csi;
  /// Received signal strength of the tag packet, dB (relative scale).
  double rssi_db = 0.0;
};

/// Writable slots of one band, for filling CSI in place (simulator, wire
/// decode, tests). Valid until the next AddBand/Reserve/ClearBands.
struct MutableBand {
  std::span<dsp::cplx> tag_csi;
  std::span<dsp::cplx> master_csi;
  double& rssi_db;
};

class CsiReport {
 public:
  std::uint32_t anchor_id = 0;
  bool is_master = false;
  /// Measurement round this report belongs to (one localization sweep).
  std::uint64_t round_id = 0;

  CsiReport() = default;
  CsiReport(const CsiReport& other);
  CsiReport& operator=(const CsiReport& other);
  CsiReport(CsiReport&& other) noexcept;
  CsiReport& operator=(CsiReport&& other) noexcept;
  ~CsiReport() = default;

  /// Random-access range of BandMeasurement views, in recording order.
  auto bands() const {
    return std::views::iota(std::size_t{0}, num_bands_) |
           std::views::transform([this](std::size_t k) { return band(k); });
  }
  std::size_t band_count() const { return num_bands_; }
  /// View of band `k` (k < band_count()).
  BandMeasurement band(std::size_t k) const {
    const BandRecord& rec = records()[k];
    const dsp::cplx* tag = values() + rec.offset;
    return {rec.data_channel, rec.freq_hz, {tag, rec.tag_count},
            {tag + rec.tag_count, rec.master_count}, rec.rssi_db};
  }
  /// The band entry for `data_channel`, if the report has one.
  std::optional<BandMeasurement> FindBand(std::uint8_t data_channel) const;

  /// Sizes the storage for `bands` bands holding `csi_values` complex
  /// values in total, so the AddBand calls that follow allocate nothing.
  void Reserve(std::size_t bands, std::size_t csi_values);
  /// Appends a band with zeroed CSI of the given lengths and returns its
  /// writable slots.
  MutableBand AddBand(std::uint8_t data_channel, double freq_hz,
                      std::size_t tag_antennas, std::size_t master_antennas);
  /// Appends a copy of `band` (its spans may point anywhere, this report's
  /// own storage included).
  void AddBand(const BandMeasurement& band);
  /// Writable slots of band `k`.
  MutableBand mutable_band(std::size_t k);
  /// Drops every band; keeps the storage for the next round.
  void ClearBands() {
    num_bands_ = 0;
    num_values_ = 0;
  }

  /// Value equality: ids, flags and every band field and CSI value.
  friend bool operator==(const CsiReport& a, const CsiReport& b);

 private:
  struct BandRecord {
    double freq_hz = 0.0;
    double rssi_db = 0.0;
    /// Index of the band's first tag CSI value in the value region; its
    /// master CSI follows the tag CSI.
    std::size_t offset = 0;
    std::uint32_t tag_count = 0;
    std::uint32_t master_count = 0;
    std::uint8_t data_channel = 0;
  };
  static_assert(alignof(BandRecord) % alignof(dsp::cplx) == 0);

  BandRecord* records() const {
    return reinterpret_cast<BandRecord*>(storage_.get());
  }
  dsp::cplx* values() const {
    return reinterpret_cast<dsp::cplx*>(storage_.get() +
                                        band_capacity_ * sizeof(BandRecord));
  }
  /// Reallocates to at least the given capacities, keeping the contents.
  /// Returns the old block so a caller copying from it can free it last.
  std::unique_ptr<std::byte[]> Grow(std::size_t bands, std::size_t values);

  std::unique_ptr<std::byte[]> storage_;
  std::size_t num_bands_ = 0;
  std::size_t band_capacity_ = 0;
  std::size_t num_values_ = 0;
  std::size_t value_capacity_ = 0;
};

}  // namespace bloc::anchor
