// Endian-safe binary wire codec. All multi-byte integers are little-endian
// on the wire; doubles are IEEE-754 bit patterns carried as u64.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/types.h"

namespace bloc::net {

using Buffer = std::vector<std::uint8_t>;

class WireWriter {
 public:
  void U8(std::uint8_t v);
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void F64(double v);
  void Bool(bool v);
  void Complex(const dsp::cplx& v);
  /// Length-prefixed (u32) byte string.
  void Bytes(std::span<const std::uint8_t> v);
  void String(const std::string& v);
  /// Length-prefixed (u32) complex values.
  void ComplexVector(std::span<const dsp::cplx> v);

  const Buffer& buffer() const { return buf_; }
  Buffer Take() { return std::move(buf_); }

 private:
  Buffer buf_;
};

/// Thrown when a decode runs past the end of the buffer or a length prefix
/// is implausible.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  double F64();
  bool Bool();
  dsp::cplx Complex();
  Buffer Bytes();
  std::string String();
  /// The u32 length prefix of a complex vector, checked against the bytes
  /// left; the values follow and are read with Complexes().
  std::uint32_t ComplexCount();
  /// Reads out.size() complex values straight into `out`.
  void Complexes(std::span<dsp::cplx> out);
  void Skip(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  void Need(std::size_t n) const;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected) used as the frame check sequence.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

}  // namespace bloc::net
