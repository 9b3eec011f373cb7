#include <gtest/gtest.h>

#include "net/wire.h"

namespace bloc::net {
namespace {

TEST(Wire, ScalarRoundTrips) {
  WireWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.F64(-3.14159);
  w.Bool(true);
  w.Bool(false);
  WireReader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.F64(), -3.14159);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, LittleEndianLayout) {
  WireWriter w;
  w.U32(0x01020304u);
  const Buffer& buf = w.buffer();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(Wire, F64PreservesSpecialValues) {
  WireWriter w;
  w.F64(0.0);
  w.F64(-0.0);
  w.F64(std::numeric_limits<double>::infinity());
  w.F64(std::numeric_limits<double>::denorm_min());
  WireReader r(w.buffer());
  EXPECT_EQ(r.F64(), 0.0);
  EXPECT_TRUE(std::signbit(r.F64()));
  EXPECT_TRUE(std::isinf(r.F64()));
  EXPECT_EQ(r.F64(), std::numeric_limits<double>::denorm_min());
}

TEST(Wire, ComplexAndVectors) {
  WireWriter w;
  w.Complex({1.5, -2.5});
  w.ComplexVector(dsp::CVec{{0, 1}, {2, 3}});
  w.String("hello");
  WireReader r(w.buffer());
  EXPECT_EQ(r.Complex(), (dsp::cplx{1.5, -2.5}));
  dsp::CVec v(r.ComplexCount());
  ASSERT_EQ(v.size(), 2u);
  r.Complexes(v);
  EXPECT_EQ(v[1], (dsp::cplx{2, 3}));
  EXPECT_EQ(r.String(), "hello");
}

TEST(Wire, EmptyContainers) {
  WireWriter w;
  w.ComplexVector({});
  w.String("");
  WireReader r(w.buffer());
  EXPECT_EQ(r.ComplexCount(), 0u);
  EXPECT_TRUE(r.String().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, TruncatedReadThrows) {
  WireWriter w;
  w.U32(42);
  WireReader r(w.buffer());
  r.U16();
  EXPECT_THROW(r.U32(), WireError);
}

TEST(Wire, BadLengthPrefixThrows) {
  WireWriter w;
  w.U32(1000);  // claims 1000 bytes follow, but none do
  WireReader r(w.buffer());
  EXPECT_THROW(r.Bytes(), WireError);
}

TEST(Wire, BadComplexVectorLengthThrows) {
  WireWriter w;
  w.U32(0xFFFFFFFu);
  WireReader r(w.buffer());
  EXPECT_THROW(r.ComplexCount(), WireError);
}

TEST(Crc32, KnownVector) {
  // The classic IEEE 802.3 check value for "123456789".
  const std::string s = "123456789";
  const auto crc = Crc32(std::span(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Crc32, EmptyInput) { EXPECT_EQ(Crc32({}), 0x00000000u); }

TEST(Crc32, DetectsCorruption) {
  Buffer data = {1, 2, 3, 4, 5};
  const auto crc = Crc32(data);
  data[2] ^= 0x01;
  EXPECT_NE(Crc32(data), crc);
}

}  // namespace
}  // namespace bloc::net
