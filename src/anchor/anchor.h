// An anchor node: array geometry + radio oscillator + report assembly.
// One anchor is designated master (it terminates the BLE connection with
// the tag); the others passively overhear both sides of every connection
// event (paper §3).
#pragma once

#include <cstdint>
#include <string>

#include "anchor/array.h"
#include "anchor/csi_report.h"
#include "channel/hardware.h"
#include "dsp/rng.h"

namespace bloc::anchor {

enum class AnchorRole : std::uint8_t { kMaster, kSlave };

class AnchorNode {
 public:
  AnchorNode(std::uint32_t id, AnchorRole role, const ArrayGeometry& geometry,
             const chan::ImpairmentConfig& impairments, dsp::Rng rng);

  std::uint32_t id() const { return id_; }
  AnchorRole role() const { return role_; }
  bool is_master() const { return role_ == AnchorRole::kMaster; }
  const ArrayGeometry& geometry() const { return geometry_; }

  /// The anchor's local oscillator (shared by all its antennas).
  chan::Oscillator& oscillator() { return oscillator_; }
  const chan::Oscillator& oscillator() const { return oscillator_; }

  /// Starts a new measurement round: clears band data, bumps the round id.
  void BeginRound(std::uint64_t round_id);

  /// The finished report for the current round.
  const CsiReport& report() const { return report_; }
  /// The report under construction, for filling band CSI in place.
  CsiReport& mutable_report() { return report_; }

 private:
  std::uint32_t id_;
  AnchorRole role_;
  ArrayGeometry geometry_;
  chan::Oscillator oscillator_;
  CsiReport report_;
};

}  // namespace bloc::anchor
