#include "net/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace gm::net {
namespace {

TEST(SerializeTest, FixedWidthRoundTrip) {
  Writer w;
  w.WriteU8(0xab);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  Reader r(w.data());
  EXPECT_EQ(r.ReadU8().value(), 0xab);
  EXPECT_EQ(r.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, VarintSmallValuesAreOneByte) {
  Writer w;
  w.WriteVarint(0);
  w.WriteVarint(127);
  EXPECT_EQ(w.data().size(), 2u);
}

TEST(SerializeTest, VarintRoundTripBoundaries) {
  Writer w;
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  std::uint64_t{1} << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (auto v : values) w.WriteVarint(v);
  Reader r(w.data());
  for (auto v : values) EXPECT_EQ(r.ReadVarint().value(), v);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, VarintOverflowRejected) {
  // 11 bytes of continuation = more than 64 bits.
  Bytes bad(11, 0xff);
  Reader r(bad);
  EXPECT_FALSE(r.ReadVarint().ok());
}

TEST(SerializeTest, ZigzagI64RoundTrip) {
  Writer w;
  const std::int64_t values[] = {0, -1, 1, -2, 63, -64,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (auto v : values) w.WriteI64(v);
  Reader r(w.data());
  for (auto v : values) EXPECT_EQ(r.ReadI64().value(), v);
}

TEST(SerializeTest, ZigzagSmallNegativesAreCompact) {
  Writer w;
  w.WriteI64(-1);
  EXPECT_EQ(w.data().size(), 1u);
}

TEST(SerializeTest, DoubleRoundTripExact) {
  Writer w;
  const double values[] = {0.0, -0.0, 1.5, -3.14159e300, 5e-324,
                           std::numeric_limits<double>::infinity()};
  for (auto v : values) w.WriteDouble(v);
  w.WriteDouble(std::nan(""));
  Reader r(w.data());
  for (auto v : values) EXPECT_EQ(r.ReadDouble().value(), v);
  EXPECT_TRUE(std::isnan(r.ReadDouble().value()));
}

TEST(SerializeTest, BoolRoundTripAndValidation) {
  Writer w;
  w.WriteBool(true);
  w.WriteBool(false);
  w.WriteU8(7);  // invalid bool byte
  Reader r(w.data());
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_FALSE(r.ReadBool().value());
  EXPECT_FALSE(r.ReadBool().ok());
}

TEST(SerializeTest, StringRoundTrip) {
  Writer w;
  w.WriteString("");
  w.WriteString("hello grid");
  w.WriteString(std::string(1000, 'x'));
  Reader r(w.data());
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_EQ(r.ReadString().value(), "hello grid");
  EXPECT_EQ(r.ReadString().value(), std::string(1000, 'x'));
}

TEST(SerializeTest, BytesRoundTrip) {
  Writer w;
  w.WriteBytes({0x00, 0xff, 0x7f});
  Reader r(w.data());
  EXPECT_EQ(r.ReadBytes().value(), (Bytes{0x00, 0xff, 0x7f}));
}

TEST(SerializeTest, TruncatedReadsFail) {
  Writer w;
  w.WriteU64(42);
  Bytes truncated(w.data().begin(), w.data().begin() + 4);
  Reader r(truncated);
  EXPECT_FALSE(r.ReadU64().ok());
}

TEST(SerializeTest, StringLengthBeyondBufferFails) {
  Writer w;
  w.WriteVarint(1000);  // claims 1000 bytes follow
  w.WriteU8('x');
  Reader r(w.data());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(SerializeTest, MixedSequenceRemainingTracksPosition) {
  Writer w;
  w.WriteU32(1);
  w.WriteString("ab");
  Reader r(w.data());
  EXPECT_EQ(r.remaining(), w.data().size());
  ASSERT_TRUE(r.ReadU32().ok());
  EXPECT_EQ(r.remaining(), w.data().size() - 4);
  ASSERT_TRUE(r.ReadString().ok());
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace gm::net
