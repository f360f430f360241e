// Schnorr signatures over a prime-order subgroup.
//
// Sign:   k in [1, q) (random, or derived from x and the message),
//         r = g^k mod p,
//         e = H(r || message) mod q,  s = (k + x*e) mod q.
// Verify: r' = g^s * y^(-e) mod p,  accept iff H(r' || message) mod q == e.
//
// These signatures back the paper's transfer tokens: the bank signs
// transfer receipts and users sign (receipt || Grid DN) mappings.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/biguint.hpp"
#include "crypto/prime.hpp"

namespace gm::crypto {

struct Signature {
  U256 e;
  U256 s;

  /// Canonical "e:s" hex encoding (for embedding in tokens / messages).
  std::string Encode() const;
  static Result<Signature> Decode(std::string_view encoded);

  friend bool operator==(const Signature&, const Signature&) = default;
};

class PublicKey {
 public:
  PublicKey() = default;
  PublicKey(const SchnorrGroup* group, U256 y) : group_(group), y_(y) {}

  bool Verify(std::string_view message, const Signature& signature) const;

  const U256& y() const { return y_; }
  const SchnorrGroup& group() const;
  /// SHA-256 fingerprint of the group parameters and y (hex).
  std::string Fingerprint() const;

  friend bool operator==(const PublicKey& a, const PublicKey& b) {
    return a.y_ == b.y_ && a.group_ == b.group_;
  }

 private:
  const SchnorrGroup* group_ = nullptr;  // non-owning; groups are static
  U256 y_;
};

class KeyPair {
 public:
  /// Generate a fresh keypair in `group`. The group reference must outlive
  /// the keypair (library groups are process-static).
  static KeyPair Generate(const SchnorrGroup& group, Rng& rng);

  /// Sign with a nonce drawn from `rng`. Two signatures over different
  /// messages with one nonce reveal the private key, so `rng` must never
  /// repeat a stream this key has signed from.
  Signature Sign(std::string_view message, Rng& rng) const;
  /// Sign with a nonce derived from the private key and the message
  /// (RFC 6979 style): a signer that restarts from any state can never
  /// reuse a nonce for a different message.
  Signature Sign(std::string_view message) const;
  const PublicKey& public_key() const { return public_key_; }

 private:
  KeyPair(const SchnorrGroup* group, U256 x, PublicKey pub)
      : group_(group), x_(x), public_key_(pub) {}
  Signature SignWithNonce(std::string_view message,
                          const std::function<U256()>& draw_nonce) const;

  const SchnorrGroup* group_;
  U256 x_;  // private exponent
  PublicKey public_key_;
};

/// Hash a (group element, message) pair into Z_q.
U256 HashToZq(const U256& r, std::string_view message, const U256& q);

}  // namespace gm::crypto
