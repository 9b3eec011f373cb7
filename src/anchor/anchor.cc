#include "anchor/anchor.h"

namespace bloc::anchor {

AnchorNode::AnchorNode(std::uint32_t id, AnchorRole role,
                       const ArrayGeometry& geometry,
                       const chan::ImpairmentConfig& impairments,
                       dsp::Rng rng)
    : id_(id),
      role_(role),
      geometry_(geometry),
      oscillator_(impairments, rng.Fork("anchor-" + std::to_string(id)),
                  geometry.num_antennas) {
  report_.anchor_id = id_;
  report_.is_master = is_master();
}

void AnchorNode::BeginRound(std::uint64_t round_id) {
  report_.ClearBands();
  report_.round_id = round_id;
}

}  // namespace bloc::anchor
