#include "crypto/schnorr.hpp"

#include <gtest/gtest.h>

namespace gm::crypto {
namespace {

class SchnorrTest : public ::testing::Test {
 protected:
  const SchnorrGroup& group_ = TestGroup();
  Rng rng_{12345};
};

TEST_F(SchnorrTest, SignVerifyRoundTrip) {
  const KeyPair keys = KeyPair::Generate(group_, rng_);
  const Signature sig = keys.Sign("pay the broker 500 dollars", rng_);
  EXPECT_TRUE(keys.public_key().Verify("pay the broker 500 dollars", sig));
}

TEST_F(SchnorrTest, VerifyRejectsWrongMessage) {
  const KeyPair keys = KeyPair::Generate(group_, rng_);
  const Signature sig = keys.Sign("amount=100", rng_);
  EXPECT_FALSE(keys.public_key().Verify("amount=1000", sig));
}

TEST_F(SchnorrTest, VerifyRejectsWrongKey) {
  const KeyPair alice = KeyPair::Generate(group_, rng_);
  const KeyPair mallory = KeyPair::Generate(group_, rng_);
  const Signature sig = alice.Sign("transfer", rng_);
  EXPECT_FALSE(mallory.public_key().Verify("transfer", sig));
}

TEST_F(SchnorrTest, VerifyRejectsTamperedSignature) {
  const KeyPair keys = KeyPair::Generate(group_, rng_);
  Signature sig = keys.Sign("message", rng_);
  sig.s = sig.s + U256::One();
  EXPECT_FALSE(keys.public_key().Verify("message", sig));
  sig = keys.Sign("message", rng_);
  sig.e = sig.e + U256::One();
  EXPECT_FALSE(keys.public_key().Verify("message", sig));
}

TEST_F(SchnorrTest, VerifyRejectsOutOfRangeComponents) {
  const KeyPair keys = KeyPair::Generate(group_, rng_);
  Signature sig = keys.Sign("message", rng_);
  sig.s = group_.q;  // s must be < q
  EXPECT_FALSE(keys.public_key().Verify("message", sig));
}

TEST_F(SchnorrTest, SignaturesAreRandomized) {
  const KeyPair keys = KeyPair::Generate(group_, rng_);
  const Signature a = keys.Sign("same message", rng_);
  const Signature b = keys.Sign("same message", rng_);
  EXPECT_FALSE(a == b);  // fresh nonce each time
  EXPECT_TRUE(keys.public_key().Verify("same message", a));
  EXPECT_TRUE(keys.public_key().Verify("same message", b));
}

// A derived nonce depends only on the key and the message: signing one
// message twice gives one signature, whatever state the caller is in.
TEST_F(SchnorrTest, DerivedNonceSignaturesAreDeterministicPerMessage) {
  const KeyPair keys = KeyPair::Generate(group_, rng_);
  const Signature a = keys.Sign("receipt 1");
  EXPECT_TRUE(a == keys.Sign("receipt 1"));
  EXPECT_TRUE(keys.public_key().Verify("receipt 1", a));
  const Signature b = keys.Sign("receipt 2");
  EXPECT_TRUE(keys.public_key().Verify("receipt 2", b));
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == KeyPair::Generate(group_, rng_).Sign("receipt 1"));
}

TEST_F(SchnorrTest, EmptyMessageSignable) {
  const KeyPair keys = KeyPair::Generate(group_, rng_);
  const Signature sig = keys.Sign("", rng_);
  EXPECT_TRUE(keys.public_key().Verify("", sig));
  EXPECT_FALSE(keys.public_key().Verify("x", sig));
}

TEST_F(SchnorrTest, SignatureEncodeDecodeRoundTrip) {
  const KeyPair keys = KeyPair::Generate(group_, rng_);
  const Signature sig = keys.Sign("encode me", rng_);
  const auto decoded = Signature::Decode(sig.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, sig);
  EXPECT_TRUE(keys.public_key().Verify("encode me", *decoded));
}

TEST_F(SchnorrTest, SignatureDecodeRejectsGarbage) {
  EXPECT_FALSE(Signature::Decode("no-colon").ok());
  EXPECT_FALSE(Signature::Decode("zz:11").ok());
  EXPECT_FALSE(Signature::Decode("11:zz").ok());
}

TEST_F(SchnorrTest, FingerprintStableAndKeyDependent) {
  const KeyPair a = KeyPair::Generate(group_, rng_);
  const KeyPair b = KeyPair::Generate(group_, rng_);
  EXPECT_EQ(a.public_key().Fingerprint(), a.public_key().Fingerprint());
  EXPECT_NE(a.public_key().Fingerprint(), b.public_key().Fingerprint());
  EXPECT_EQ(a.public_key().Fingerprint().size(), 64u);
}

TEST_F(SchnorrTest, HashToZqInRange) {
  for (int i = 0; i < 50; ++i) {
    const U256 r = U256::RandomBelow(group_.p, rng_);
    const U256 e = HashToZq(r, "message", group_.q);
    EXPECT_LT(e, group_.q);
  }
}

TEST_F(SchnorrTest, DefaultConstructedPublicKeyVerifiesNothing) {
  PublicKey empty;
  Signature sig{U256(1), U256(1)};
  EXPECT_FALSE(empty.Verify("anything", sig));
}

}  // namespace
}  // namespace gm::crypto
