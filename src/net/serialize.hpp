// Byte-level message serialization.
//
// A compact, explicit wire format for the simulated Grid network:
// fixed-width little-endian integers, LEB128-style varints, and
// length-prefixed strings/bytes. Readers validate bounds and fail with
// Status instead of reading garbage — exactly what a real middleware
// marshalling layer must do.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace gm::net {

class Writer {
 public:
  void WriteU8(std::uint8_t v);
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI64(std::int64_t v);  // zigzag varint
  void WriteVarint(std::uint64_t v);
  void WriteDouble(double v);  // IEEE-754 bit pattern
  void WriteBool(bool v);
  void WriteString(std::string_view v);  // varint length + bytes
  void WriteBytes(const Bytes& v);

  const Bytes& data() const { return data_; }
  Bytes Take() { return std::move(data_); }

 private:
  Bytes data_;
};

class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data) {}

  Result<std::uint8_t> ReadU8();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<std::int64_t> ReadI64();
  Result<std::uint64_t> ReadVarint();
  Result<double> ReadDouble();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  Result<Bytes> ReadBytes();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(std::size_t n) const;

  const Bytes& data_;
  std::size_t pos_ = 0;
};

}  // namespace gm::net
