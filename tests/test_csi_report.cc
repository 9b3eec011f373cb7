// Tests for anchor::CsiReport's single-block CSI storage: value semantics
// (copy, move, equality), every antenna count, master reports without
// master CSI, byte-identical wire and dataset encodings against golden
// bytes, and a constant allocation count for decoding a frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anchor/csi_report.h"
#include "net/collector.h"
#include "net/messages.h"
#include "sim/dataset_io.h"

// Counting global allocator for this test binary: every plain operator new
// on the current thread bumps the counter, so a test can count the heap
// blocks one call makes. Every matching delete is replaced too, so the
// sanitizers see consistent malloc/free pairs.
namespace {
thread_local std::size_t g_allocations = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bloc::anchor {
namespace {

using dsp::cplx;

/// Deterministic report: `bands` bands of `antennas` antennas, exact binary
/// fractions only, so its encoding is the same on every platform. Master
/// reports carry no master CSI.
CsiReport MakeReport(std::uint32_t id, bool master, std::uint64_t round,
                     int bands, int antennas) {
  CsiReport r;
  r.anchor_id = id;
  r.is_master = master;
  r.round_id = round;
  for (int b = 0; b < bands; ++b) {
    std::vector<cplx> tag;
    std::vector<cplx> overheard;
    for (int j = 0; j < antennas; ++j) {
      tag.push_back({0.25 * (j + 1) + b, -0.5 * (j + 1)});
      if (!master) overheard.push_back({0.125 * (b + 1), 0.75 - j});
    }
    r.AddBand({.data_channel = static_cast<std::uint8_t>(3 + 11 * b),
               .freq_hz = 2404e6 + 2e6 * b,
               .tag_csi = tag,
               .master_csi = overheard,
               .rssi_db = -40.5 - b});
  }
  return r;
}

std::string Hex(const net::Buffer& bytes) {
  std::string out;
  for (std::uint8_t c : bytes) {
    static const char* kDigits = "0123456789abcdef";
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

net::Buffer FromHex(const std::string& hex) {
  net::Buffer out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Golden encodings, captured from the layout before single-block storage
// (two vectors per band); the encodings must never change.
const std::string kTagFrameHex =
    "e50d0cb10d010000040008070605040302010200000000070000000000000002"
    "000000030000002044e9e14103000000000000000000d03f000000000000e0bf"
    "000000000000e03f000000000000f0bf000000000000e83f000000000000f8bf"
    "03000000000000000000c03f000000000000e83f000000000000c03f00000000"
    "0000d0bf000000000000c03f000000000000f4bf00000000004044c00e000000"
    "b014ede14103000000000000000000f43f000000000000e0bf000000000000f8"
    "3f000000000000f0bf000000000000fc3f000000000000f8bf03000000000000"
    "000000d03f000000000000e83f000000000000d03f000000000000d0bf000000"
    "000000d03f000000000000f4bf0000000000c044c062c1d545";
const std::string kMasterFrameHex =
    "e50d0cb1a5000000020001000000010700000000000000020000000300000020"
    "44e9e14103000000000000000000d03f000000000000e0bf000000000000e03f"
    "000000000000f0bf000000000000e83f000000000000f8bf0000000000000000"
    "004044c00e000000b014ede14103000000000000000000f43f000000000000e0"
    "bf000000000000f83f000000000000f0bf000000000000fc3f000000000000f8"
    "bf000000000000000000c044c0e42c6439";
const std::string kDatasetHex =
    "7ada0cb10200cdab341200000000010000000000000048020000000000000200"
    "0000010000000100000000000000000000000000000000000000000000000000"
    "0000000000b03f03000000020000000000000000000018400000000000000000"
    "000000000000f83f000000000000b03f03000000000000000000000000000000"
    "0000000000000000000018400000000000001440000000000000d03f00000000"
    "0000e03f000000000000f83f0000000000000240070000000000000002000000"
    "0100000001070000000000000002000000030000002044e9e141030000000000"
    "00000000d03f000000000000e0bf000000000000e03f000000000000f0bf0000"
    "00000000e83f000000000000f8bf0000000000000000004044c00e000000b014"
    "ede14103000000000000000000f43f000000000000e0bf000000000000f83f00"
    "0000000000f0bf000000000000fc3f000000000000f8bf000000000000000000"
    "c044c00200000000070000000000000002000000030000002044e9e141030000"
    "00000000000000d03f000000000000e0bf000000000000e03f000000000000f0"
    "bf000000000000e83f000000000000f8bf03000000000000000000c03f000000"
    "000000e83f000000000000c03f000000000000d0bf000000000000c03f000000"
    "000000f4bf00000000004044c00e000000b014ede14103000000000000000000"
    "f43f000000000000e0bf000000000000f83f000000000000f0bf000000000000"
    "fc3f000000000000f8bf03000000000000000000d03f000000000000e83f0000"
    "00000000d03f000000000000d0bf000000000000d03f000000000000f4bf0000"
    "000000c044c07d0794c9";

sim::Dataset GoldenDataset() {
  sim::Dataset d;
  core::AnchorPose master;
  master.id = 1;
  master.is_master = true;
  master.geometry.origin = {0, 0};
  master.geometry.axis_radians = 0;
  master.geometry.spacing_m = 0.0625;
  master.geometry.num_antennas = 3;
  core::AnchorPose slave = master;
  slave.id = 2;
  slave.is_master = false;
  slave.geometry.origin = {6, 0};
  slave.geometry.axis_radians = 1.5;
  d.deployment.anchors = {master, slave};
  d.truths = {{1.5, 2.25}};
  d.timestamps = {0.5};
  net::MeasurementRound round;
  round.round_id = 7;
  round.reports = {MakeReport(1, true, 7, 2, 3), MakeReport(2, false, 7, 2, 3)};
  d.rounds = {round};
  d.room_grid = {0, 0, 6, 5, 0.25};
  return d;
}

TEST(CsiReportStorage, BandsReadBackAsWritten) {
  const CsiReport r = MakeReport(2, false, 9, 3, 4);
  ASSERT_EQ(r.band_count(), 3u);
  for (std::size_t b = 0; b < r.band_count(); ++b) {
    const BandMeasurement band = r.band(b);
    EXPECT_EQ(band.data_channel, static_cast<std::uint8_t>(3 + 11 * b));
    EXPECT_EQ(band.freq_hz, 2404e6 + 2e6 * static_cast<double>(b));
    EXPECT_EQ(band.rssi_db, -40.5 - static_cast<double>(b));
    ASSERT_EQ(band.tag_csi.size(), 4u);
    ASSERT_EQ(band.master_csi.size(), 4u);
    EXPECT_EQ(band.tag_csi[3], (cplx{1.0 + static_cast<double>(b), -2.0}));
    EXPECT_EQ(band.master_csi[2], (cplx{0.125 * static_cast<double>(b + 1),
                                        -1.25}));
  }
  std::size_t seen = 0;
  for (const BandMeasurement& band : r.bands()) {
    EXPECT_EQ(band.data_channel, r.band(seen).data_channel);
    ++seen;
  }
  EXPECT_EQ(seen, 3u);
  ASSERT_TRUE(r.FindBand(14).has_value());
  EXPECT_EQ(r.FindBand(14)->freq_hz, 2406e6);
  EXPECT_FALSE(r.FindBand(4).has_value());
}

TEST(CsiReportStorage, CopyMoveAndEquality) {
  const CsiReport original = MakeReport(3, false, 11, 5, 4);
  CsiReport copy = original;
  EXPECT_TRUE(copy == original);
  EXPECT_NE(copy.band(0).tag_csi.data(), original.band(0).tag_csi.data());

  // Equality looks at every field and every value.
  copy.mutable_band(4).master_csi[3] += cplx{0, 1e-12};
  EXPECT_FALSE(copy == original);
  copy = original;
  copy.mutable_band(1).rssi_db = 0.0;
  EXPECT_FALSE(copy == original);
  copy = original;
  copy.round_id = 12;
  EXPECT_FALSE(copy == original);
  copy = original;
  EXPECT_TRUE(copy == original);

  // A move hands over the block: same storage, source left empty.
  const cplx* block = copy.band(0).tag_csi.data();
  CsiReport moved = std::move(copy);
  EXPECT_EQ(moved.band(0).tag_csi.data(), block);
  EXPECT_TRUE(moved == original);
  EXPECT_EQ(copy.band_count(), 0u);  // NOLINT(bugprone-use-after-move)
  CsiReport assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(assigned == original);
  EXPECT_EQ(moved.band_count(), 0u);  // NOLINT(bugprone-use-after-move)

  // Self-assignment keeps the contents.
  CsiReport& alias = assigned;
  assigned = alias;
  EXPECT_TRUE(assigned == original);

  // An empty report equals another empty report with the same ids.
  CsiReport a, b;
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(CsiReport(a) == b);
}

TEST(CsiReportStorage, AntennaCountsRoundTripTheWire) {
  for (const int antennas : {1, 3, 4, 8}) {
    SCOPED_TRACE(antennas);
    for (const bool master : {true, false}) {
      const CsiReport r = MakeReport(4, master, 5, 37, antennas);
      for (const BandMeasurement& band : r.bands()) {
        EXPECT_EQ(band.tag_csi.size(), static_cast<std::size_t>(antennas));
        EXPECT_EQ(band.master_csi.size(),
                  master ? 0u : static_cast<std::size_t>(antennas));
      }
      net::WireWriter w;
      net::EncodeCsiReport(r, w);
      net::WireReader reader(w.buffer());
      const CsiReport decoded = net::DecodeCsiReport(reader);
      EXPECT_TRUE(reader.AtEnd());
      EXPECT_TRUE(decoded == r);
    }
  }
}

TEST(CsiReportStorage, MixedBandLengthsAndIncrementalGrowth) {
  // Band lengths may differ; storage grows as bands are added.
  CsiReport r;
  std::vector<cplx> values;
  for (std::size_t b = 0; b < 40; ++b) {
    values.assign(b % 9, cplx{static_cast<double>(b), 1.0});
    r.AddBand({.data_channel = static_cast<std::uint8_t>(b),
               .tag_csi = values,
               .master_csi = std::span<const cplx>(values).first(b % 3 == 0
                                                                  ? 0
                                                                  : b % 9)});
  }
  ASSERT_EQ(r.band_count(), 40u);
  for (std::size_t b = 0; b < 40; ++b) {
    EXPECT_EQ(r.band(b).tag_csi.size(), b % 9);
    EXPECT_EQ(r.band(b).master_csi.size(), b % 3 == 0 ? 0 : b % 9);
    for (const cplx& v : r.band(b).tag_csi) {
      EXPECT_EQ(v, (cplx{static_cast<double>(b), 1.0}));
    }
  }
  net::WireWriter w;
  net::EncodeCsiReport(r, w);
  net::WireReader reader(w.buffer());
  EXPECT_TRUE(net::DecodeCsiReport(reader) == r);

  // A band copied from the report's own storage survives the growth that
  // appending it triggers.
  CsiReport self = MakeReport(1, false, 0, 4, 4);
  for (int i = 0; i < 6; ++i) self.AddBand(self.band(1));
  for (std::size_t b = 4; b < self.band_count(); ++b) {
    EXPECT_TRUE(std::ranges::equal(self.band(b).tag_csi,
                                   self.band(1).tag_csi));
    EXPECT_TRUE(std::ranges::equal(self.band(b).master_csi,
                                   self.band(1).master_csi));
  }

  // ClearBands keeps the block for the next round.
  const cplx* block = self.band(0).tag_csi.data();
  self.ClearBands();
  EXPECT_EQ(self.band_count(), 0u);
  self.AddBand(3, 2.41e9, 4, 4);
  EXPECT_EQ(self.band(0).tag_csi.data(), block);
  EXPECT_TRUE(std::ranges::all_of(self.band(0).tag_csi,
                                  [](const cplx& v) { return v == cplx{}; }));
}

TEST(CsiReportStorage, MasterReportWithEmptyMasterCsi) {
  const CsiReport master = MakeReport(1, true, 3, 37, 4);
  for (const BandMeasurement& band : master.bands()) {
    EXPECT_TRUE(band.master_csi.empty());
  }
  std::optional<net::Message> decoded;
  const net::Buffer frame = net::EncodeFrame(net::CsiReportMsg{master});
  ASSERT_EQ(net::DecodeFrame(frame, decoded), frame.size());
  EXPECT_TRUE(std::get<net::CsiReportMsg>(*decoded).report == master);
}

TEST(CsiReportStorage, WireEncodingMatchesGoldenBytes) {
  const CsiReport slave = MakeReport(2, false, 7, 2, 3);
  const CsiReport master = MakeReport(1, true, 7, 2, 3);
  const net::Buffer tag_frame =
      net::EncodeFrame(net::TagCsiReportMsg{0x0102030405060708ull, slave});
  EXPECT_EQ(Hex(tag_frame), kTagFrameHex);
  EXPECT_EQ(Hex(net::EncodeFrame(net::CsiReportMsg{master})),
            kMasterFrameHex);

  // Golden bytes decode to the same report and re-encode unchanged.
  std::optional<net::Message> decoded;
  const net::Buffer golden = FromHex(kTagFrameHex);
  ASSERT_EQ(net::DecodeFrame(golden, decoded), golden.size());
  const auto& msg = std::get<net::TagCsiReportMsg>(*decoded);
  EXPECT_EQ(msg.tag_id, 0x0102030405060708ull);
  EXPECT_TRUE(msg.report == slave);
  EXPECT_EQ(Hex(net::EncodeFrame(*decoded)), kTagFrameHex);
}

TEST(CsiReportStorage, DatasetEncodingMatchesGoldenBytes) {
  const sim::Dataset dataset = GoldenDataset();
  EXPECT_EQ(Hex(sim::EncodeDataset(dataset, 0x1234abcdull)), kDatasetHex);
  const sim::LoadedDataset loaded = sim::DecodeDataset(FromHex(kDatasetHex));
  EXPECT_EQ(loaded.fingerprint, 0x1234abcdull);
  ASSERT_EQ(loaded.dataset.rounds.size(), 1u);
  ASSERT_EQ(loaded.dataset.rounds[0].reports.size(), 2u);
  EXPECT_TRUE(loaded.dataset.rounds[0].reports[0] ==
              dataset.rounds[0].reports[0]);
  EXPECT_TRUE(loaded.dataset.rounds[0].reports[1] ==
              dataset.rounds[0].reports[1]);
}

/// Heap blocks allocated on this thread while running `fn`.
template <typename Fn>
std::size_t AllocationsDuring(Fn&& fn) {
  const std::size_t before = g_allocations;
  fn();
  return g_allocations - before;
}

TEST(CsiReportStorage, DecodingTakesAConstantNumberOfAllocations) {
  const CsiReport full = MakeReport(2, false, 1, 37, 4);
  const CsiReport single = MakeReport(2, false, 1, 1, 4);
  net::WireWriter w_full, w_single;
  net::EncodeCsiReport(full, w_full);
  net::EncodeCsiReport(single, w_single);

  // The report body: one block, whatever the band count.
  for (const net::WireWriter* w : {&w_full, &w_single}) {
    CsiReport decoded;
    EXPECT_EQ(AllocationsDuring([&] {
                net::WireReader r(w->buffer());
                decoded = net::DecodeCsiReport(r);
              }),
              1u);
  }

  // A whole 37-band frame decodes with as many allocations as a 1-band one.
  const net::Buffer frame_full =
      net::EncodeFrame(net::TagCsiReportMsg{9, full});
  const net::Buffer frame_single =
      net::EncodeFrame(net::TagCsiReportMsg{9, single});
  std::optional<net::Message> out;
  const std::size_t full_allocs =
      AllocationsDuring([&] { net::DecodeFrame(frame_full, out); });
  EXPECT_TRUE(std::get<net::TagCsiReportMsg>(*out).report == full);
  const std::size_t single_allocs =
      AllocationsDuring([&] { net::DecodeFrame(frame_single, out); });
  EXPECT_EQ(full_allocs, single_allocs);
  EXPECT_LE(full_allocs, 2u);

  // Copies take one block too; moves take none.
  EXPECT_EQ(AllocationsDuring([&] { CsiReport copy = full; }), 1u);
  CsiReport source = full;
  EXPECT_EQ(AllocationsDuring([&] { CsiReport moved = std::move(source); }),
            0u);
}

}  // namespace
}  // namespace bloc::anchor
