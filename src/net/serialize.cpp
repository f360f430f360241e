#include "net/serialize.hpp"

#include <cstring>

namespace gm::net {

void Writer::WriteU8(std::uint8_t v) { data_.push_back(v); }

void Writer::WriteU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    data_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::WriteU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    data_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::WriteVarint(std::uint64_t v) {
  while (v >= 0x80) {
    data_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  data_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::WriteI64(std::int64_t v) {
  // Zigzag: small magnitudes (positive or negative) encode small.
  const std::uint64_t zigzag =
      (static_cast<std::uint64_t>(v) << 1) ^
      static_cast<std::uint64_t>(v >> 63);
  WriteVarint(zigzag);
}

void Writer::WriteDouble(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void Writer::WriteBool(bool v) { WriteU8(v ? 1 : 0); }

void Writer::WriteString(std::string_view v) {
  WriteVarint(v.size());
  data_.insert(data_.end(), v.begin(), v.end());
}

void Writer::WriteBytes(const Bytes& v) {
  WriteVarint(v.size());
  data_.insert(data_.end(), v.begin(), v.end());
}

Status Reader::Need(std::size_t n) const {
  if (pos_ + n > data_.size())
    return Status::OutOfRange("reader: message truncated");
  return Status::Ok();
}

Result<std::uint8_t> Reader::ReadU8() {
  GM_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<std::uint32_t> Reader::ReadU32() {
  GM_RETURN_IF_ERROR(Need(4));
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<std::uint64_t> Reader::ReadU64() {
  GM_RETURN_IF_ERROR(Need(8));
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<std::uint64_t> Reader::ReadVarint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    GM_RETURN_IF_ERROR(Need(1));
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7e) != 0))
      return Status::InvalidArgument("varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

Result<std::int64_t> Reader::ReadI64() {
  GM_ASSIGN_OR_RETURN(const std::uint64_t zigzag, ReadVarint());
  return static_cast<std::int64_t>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
}

Result<double> Reader::ReadDouble() {
  GM_ASSIGN_OR_RETURN(const std::uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<bool> Reader::ReadBool() {
  GM_ASSIGN_OR_RETURN(const std::uint8_t v, ReadU8());
  if (v > 1) return Status::InvalidArgument("bool byte out of range");
  return v == 1;
}

Result<std::string> Reader::ReadString() {
  GM_ASSIGN_OR_RETURN(const std::uint64_t size, ReadVarint());
  GM_RETURN_IF_ERROR(Need(size));
  std::string out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + size));
  pos_ += size;
  return out;
}

Result<Bytes> Reader::ReadBytes() {
  GM_ASSIGN_OR_RETURN(const std::uint64_t size, ReadVarint());
  GM_RETURN_IF_ERROR(Need(size));
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + size));
  pos_ += size;
  return out;
}

}  // namespace gm::net
