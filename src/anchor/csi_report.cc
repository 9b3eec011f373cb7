#include "anchor/csi_report.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace bloc::anchor {

CsiReport::CsiReport(const CsiReport& other)
    : anchor_id(other.anchor_id),
      is_master(other.is_master),
      round_id(other.round_id) {
  Reserve(other.num_bands_, other.num_values_);
  num_bands_ = other.num_bands_;
  num_values_ = other.num_values_;
  if (num_bands_ > 0) {
    std::memcpy(records(), other.records(), num_bands_ * sizeof(BandRecord));
  }
  if (num_values_ > 0) {
    std::memcpy(values(), other.values(), num_values_ * sizeof(dsp::cplx));
  }
}

CsiReport& CsiReport::operator=(const CsiReport& other) {
  if (this != &other) *this = CsiReport(other);
  return *this;
}

CsiReport::CsiReport(CsiReport&& other) noexcept
    : anchor_id(other.anchor_id),
      is_master(other.is_master),
      round_id(other.round_id),
      storage_(std::move(other.storage_)),
      num_bands_(std::exchange(other.num_bands_, 0)),
      band_capacity_(std::exchange(other.band_capacity_, 0)),
      num_values_(std::exchange(other.num_values_, 0)),
      value_capacity_(std::exchange(other.value_capacity_, 0)) {}

CsiReport& CsiReport::operator=(CsiReport&& other) noexcept {
  if (this == &other) return *this;
  anchor_id = other.anchor_id;
  is_master = other.is_master;
  round_id = other.round_id;
  storage_ = std::move(other.storage_);
  num_bands_ = std::exchange(other.num_bands_, 0);
  band_capacity_ = std::exchange(other.band_capacity_, 0);
  num_values_ = std::exchange(other.num_values_, 0);
  value_capacity_ = std::exchange(other.value_capacity_, 0);
  return *this;
}

std::optional<BandMeasurement> CsiReport::FindBand(
    std::uint8_t data_channel) const {
  for (std::size_t k = 0; k < num_bands_; ++k) {
    if (records()[k].data_channel == data_channel) return band(k);
  }
  return std::nullopt;
}

std::unique_ptr<std::byte[]> CsiReport::Grow(std::size_t bands,
                                             std::size_t values) {
  bands = std::max(bands, band_capacity_);
  values = std::max(values, value_capacity_);
  auto block = std::make_unique_for_overwrite<std::byte[]>(
      bands * sizeof(BandRecord) + values * sizeof(dsp::cplx));
  if (num_bands_ > 0) {
    std::memcpy(block.get(), records(), num_bands_ * sizeof(BandRecord));
  }
  if (num_values_ > 0) {
    std::memcpy(block.get() + bands * sizeof(BandRecord), this->values(),
                num_values_ * sizeof(dsp::cplx));
  }
  std::swap(storage_, block);
  band_capacity_ = bands;
  value_capacity_ = values;
  return block;
}

void CsiReport::Reserve(std::size_t bands, std::size_t csi_values) {
  if (bands > band_capacity_ || csi_values > value_capacity_) {
    Grow(bands, csi_values);
  }
}

MutableBand CsiReport::AddBand(std::uint8_t data_channel, double freq_hz,
                               std::size_t tag_antennas,
                               std::size_t master_antennas) {
  constexpr std::size_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
  if (tag_antennas > kMaxCount || master_antennas > kMaxCount) {
    throw std::length_error("CsiReport: band CSI too long");
  }
  const std::size_t n = tag_antennas + master_antennas;
  if (num_bands_ == band_capacity_ || num_values_ + n > value_capacity_) {
    // Geometric growth keeps incremental construction amortized O(1).
    Grow(num_bands_ == band_capacity_ ? std::max<std::size_t>(
                                            4, 2 * band_capacity_)
                                      : band_capacity_,
         std::max(num_values_ + n, 2 * value_capacity_));
  }
  BandRecord& rec = records()[num_bands_];
  rec = BandRecord{freq_hz, 0.0, num_values_,
                   static_cast<std::uint32_t>(tag_antennas),
                   static_cast<std::uint32_t>(master_antennas), data_channel};
  std::fill_n(values() + num_values_, n, dsp::cplx{0.0, 0.0});
  num_values_ += n;
  return mutable_band(num_bands_++);
}

void CsiReport::AddBand(const BandMeasurement& band) {
  // Grow by hand (not inside the AddBand above) so that `band` may view
  // this report's own storage: the old block is freed only after the copy.
  std::unique_ptr<std::byte[]> old;
  const std::size_t n = band.tag_csi.size() + band.master_csi.size();
  if (num_bands_ == band_capacity_ || num_values_ + n > value_capacity_) {
    old = Grow(std::max<std::size_t>(4, 2 * band_capacity_),
               std::max(num_values_ + n, 2 * value_capacity_));
  }
  const BandMeasurement src = band;  // spans still valid: `old` is alive
  MutableBand dst = AddBand(src.data_channel, src.freq_hz, src.tag_csi.size(),
                            src.master_csi.size());
  std::copy(src.tag_csi.begin(), src.tag_csi.end(), dst.tag_csi.begin());
  std::copy(src.master_csi.begin(), src.master_csi.end(),
            dst.master_csi.begin());
  dst.rssi_db = src.rssi_db;
}

MutableBand CsiReport::mutable_band(std::size_t k) {
  BandRecord& rec = records()[k];
  dsp::cplx* tag = values() + rec.offset;
  return {{tag, rec.tag_count},
          {tag + rec.tag_count, rec.master_count},
          rec.rssi_db};
}

bool operator==(const CsiReport& a, const CsiReport& b) {
  if (a.anchor_id != b.anchor_id || a.is_master != b.is_master ||
      a.round_id != b.round_id || a.num_bands_ != b.num_bands_) {
    return false;
  }
  for (std::size_t k = 0; k < a.num_bands_; ++k) {
    const BandMeasurement x = a.band(k);
    const BandMeasurement y = b.band(k);
    if (x.data_channel != y.data_channel || x.freq_hz != y.freq_hz ||
        x.rssi_db != y.rssi_db ||
        !std::equal(x.tag_csi.begin(), x.tag_csi.end(), y.tag_csi.begin(),
                    y.tag_csi.end()) ||
        !std::equal(x.master_csi.begin(), x.master_csi.end(),
                    y.master_csi.begin(), y.master_csi.end())) {
      return false;
    }
  }
  return true;
}

}  // namespace bloc::anchor
