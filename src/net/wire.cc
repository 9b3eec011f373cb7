#include "net/wire.h"

#include <array>
#include <bit>
#include <cstring>

namespace bloc::net {

void WireWriter::U8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::U16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::U32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::U64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::Bool(bool v) { U8(v ? 1 : 0); }

void WireWriter::Complex(const dsp::cplx& v) {
  F64(v.real());
  F64(v.imag());
}

void WireWriter::Bytes(std::span<const std::uint8_t> v) {
  U32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void WireWriter::String(const std::string& v) {
  Bytes(std::span(reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
}

void WireWriter::ComplexVector(std::span<const dsp::cplx> v) {
  U32(static_cast<std::uint32_t>(v.size()));
  for (const dsp::cplx& c : v) Complex(c);
}

void WireReader::Need(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw WireError("wire decode: truncated buffer");
  }
}

std::uint8_t WireReader::U8() {
  Need(1);
  return data_[pos_++];
}

std::uint16_t WireReader::U16() {
  Need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(v | (std::uint16_t{data_[pos_++]} << (8 * i)));
  }
  return v;
}

std::uint32_t WireReader::U32() {
  Need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_++]} << (8 * i);
  return v;
}

std::uint64_t WireReader::U64() {
  Need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_++]} << (8 * i);
  return v;
}

double WireReader::F64() { return std::bit_cast<double>(U64()); }

bool WireReader::Bool() { return U8() != 0; }

dsp::cplx WireReader::Complex() {
  const double re = F64();
  const double im = F64();
  return {re, im};
}

Buffer WireReader::Bytes() {
  const std::uint32_t n = U32();
  if (n > remaining()) throw WireError("wire decode: bad length prefix");
  Buffer out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string WireReader::String() {
  const Buffer b = Bytes();
  return std::string(b.begin(), b.end());
}

std::uint32_t WireReader::ComplexCount() {
  const std::uint32_t n = U32();
  if (static_cast<std::size_t>(n) * 16 > remaining()) {
    throw WireError("wire decode: bad complex vector length");
  }
  return n;
}

void WireReader::Complexes(std::span<dsp::cplx> out) {
  Need(out.size() * 16);
  for (dsp::cplx& c : out) c = Complex();
}

void WireReader::Skip(std::size_t n) {
  Need(n);
  pos_ += n;
}

namespace {

std::array<std::uint32_t, 256> MakeCrc32Table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = MakeCrc32Table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace bloc::net
