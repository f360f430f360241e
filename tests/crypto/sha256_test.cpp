#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>

namespace gm::crypto {
namespace {

// NIST FIPS 180-4 / well-known test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::HexDigest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::HexDigest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::HexDigest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk);
  const auto digest = hasher.Finalize();
  EXPECT_EQ(HexEncode(digest.data(), digest.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes == exactly one block; padding goes into a second block.
  const std::string block(64, 'x');
  EXPECT_EQ(Sha256::HexDigest(block),
            "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
  // 55 and 56 bytes straddle the padding boundary: 55 leaves room for
  // the length in the same block, 56 forces a new block.
  const std::string s55(55, 'y');
  const std::string s56(56, 'y');
  EXPECT_EQ(Sha256::HexDigest(s55),
            "fb66d40c3bfff05b0d5af8612d0abfbfacc6f5f26c330bc7ad634f1f44bc20ad");
  EXPECT_EQ(Sha256::HexDigest(s56),
            "4877e564e5e36e367c7c8d59670774becd3350610b6df4c399c9fa9b66da5813");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  // 333 bytes: five full blocks and a 13-byte tail. Chunk sizes around
  // the 55/56 padding edge and the 64-byte block size make the buffer
  // fill, flush and straddle blocks at every offset mix.
  std::string message;
  while (message.size() < 333)
    message +=
        "The quick brown fox jumps over the lazy dog, repeatedly and with "
        "great determination, across several update calls. ";
  message.resize(333);
  const std::string expected = Sha256::HexDigest(message);
  constexpr std::size_t kChunks[] = {7, 1, 55, 56, 63, 64, 65, 200};
  for (const std::size_t chunk : kChunks) {
    Sha256 streaming;
    for (std::size_t i = 0; i < message.size(); i += chunk)
      streaming.Update(std::string_view(message).substr(i, chunk));
    const auto digest = streaming.Finalize();
    EXPECT_EQ(HexEncode(digest.data(), digest.size()), expected)
        << "chunk " << chunk;
  }
}

TEST(Sha256Test, BytesAndStringAgree) {
  const std::string text = "token payload";
  EXPECT_EQ(Sha256::HexDigest(text), Sha256::HexDigest(ToBytes(text)));
}

TEST(Sha256Test, SingleBitChangesAvalanche) {
  const auto a = Sha256::Hash("payload0");
  const auto b = Sha256::Hash("payload1");
  int differing_bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint8_t diff = a[i] ^ b[i];
    while (diff != 0) {
      differing_bits += diff & 1;
      diff >>= 1;
    }
  }
  // Expect roughly half of 256 bits to differ.
  EXPECT_GT(differing_bits, 80);
  EXPECT_LT(differing_bits, 176);
}

TEST(Sha256Test, DigestToBytes) {
  const auto digest = Sha256::Hash("abc");
  const Bytes bytes = DigestToBytes(digest);
  ASSERT_EQ(bytes.size(), 32u);
  EXPECT_EQ(bytes[0], 0xba);
  EXPECT_EQ(bytes[31], 0xad);
}

}  // namespace
}  // namespace gm::crypto
