#include "crypto/schnorr.hpp"

#include "common/strings.hpp"
#include "crypto/modmath.hpp"
#include "crypto/sha256.hpp"

namespace gm::crypto {

std::string Signature::Encode() const {
  return e.ToHex() + ":" + s.ToHex();
}

Result<Signature> Signature::Decode(std::string_view encoded) {
  const std::size_t colon = encoded.find(':');
  if (colon == std::string_view::npos)
    return Status::InvalidArgument("signature: missing ':' separator");
  GM_ASSIGN_OR_RETURN(const U256 e, U256::FromHex(encoded.substr(0, colon)));
  GM_ASSIGN_OR_RETURN(const U256 s, U256::FromHex(encoded.substr(colon + 1)));
  return Signature{e, s};
}

U256 HashToZq(const U256& r, std::string_view message, const U256& q) {
  Sha256 hasher;
  hasher.Update(r.ToBytes());
  hasher.Update(message);
  const Sha256::Digest digest = hasher.Finalize();
  const auto wide = U256::FromBytes(DigestToBytes(digest));
  GM_ASSERT(wide.ok(), "digest width mismatch");
  return Mod(*wide, q);
}

const SchnorrGroup& PublicKey::group() const {
  GM_ASSERT(group_ != nullptr, "PublicKey: empty key");
  return *group_;
}

bool PublicKey::Verify(std::string_view message,
                       const Signature& signature) const {
  if (group_ == nullptr) return false;
  const SchnorrGroup& g = *group_;
  if (signature.e >= g.q || signature.s >= g.q) return false;
  if (y_.IsZero() || y_ >= g.p) return false;
  // r' = g^s * y^(q - e) mod p  (y^q == 1, so y^(q-e) == y^(-e)).
  const U256 gs = ModExp(g.g, signature.s, g.p);
  const U256 ye = ModExp(y_, g.q - signature.e, g.p);
  const U256 r = ModMul(gs, ye, g.p);
  return HashToZq(r, message, g.q) == signature.e;
}

std::string PublicKey::Fingerprint() const {
  GM_ASSERT(group_ != nullptr, "PublicKey: empty key");
  Sha256 hasher;
  hasher.Update(group_->p.ToBytes());
  hasher.Update(group_->q.ToBytes());
  hasher.Update(group_->g.ToBytes());
  hasher.Update(y_.ToBytes());
  const Sha256::Digest digest = hasher.Finalize();
  return HexEncode(digest.data(), digest.size());
}

KeyPair KeyPair::Generate(const SchnorrGroup& group, Rng& rng) {
  // x uniform in [1, q).
  const U256 x = U256::RandomBelow(group.q - U256::One(), rng) + U256::One();
  const U256 y = ModExp(group.g, x, group.p);
  return KeyPair(&group, x, PublicKey(&group, y));
}

Signature KeyPair::SignWithNonce(
    std::string_view message, const std::function<U256()>& draw_nonce) const {
  const SchnorrGroup& g = *group_;
  for (;;) {
    const U256 k = draw_nonce();
    const U256 r = ModExp(g.g, k, g.p);
    const U256 e = HashToZq(r, message, g.q);
    if (e.IsZero()) continue;  // degenerate challenge; redraw nonce
    const U256 s = ModAdd(k, ModMul(x_, e, g.q), g.q);
    return Signature{e, s};
  }
}

Signature KeyPair::Sign(std::string_view message, Rng& rng) const {
  const U256 q_minus_one = group_->q - U256::One();
  // k uniform in [1, q).
  return SignWithNonce(message, [&] {
    return U256::RandomBelow(q_minus_one, rng) + U256::One();
  });
}

Signature KeyPair::Sign(std::string_view message) const {
  const U256 q_minus_one = group_->q - U256::One();
  std::uint8_t attempt = 0;
  // k = H(x || attempt || message) mod (q - 1) + 1: the 256-bit digest
  // reduced mod q - 1 is uniform to within 2^(|q| - 256).
  return SignWithNonce(message, [&] {
    Sha256 hasher;
    hasher.Update(x_.ToBytes());
    hasher.Update(&attempt, 1);
    hasher.Update(message);
    ++attempt;
    const auto wide = U256::FromBytes(DigestToBytes(hasher.Finalize()));
    GM_ASSERT(wide.ok(), "digest width mismatch");
    return Mod(*wide, q_minus_one) + U256::One();
  });
}

}  // namespace gm::crypto
