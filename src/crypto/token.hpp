// Money-transfer tokens: capability-based authorization (paper Section 3.1).
//
// Flow: the user transfers money into the resource broker's bank account;
// the bank returns a signed TransferReceipt. The user then signs
// (receipt || Grid DN) producing a TransferToken attached to the job.
// The resource side verifies (1) the bank's signature on the receipt,
// (2) that the receipt pays the expected broker account, (3) the owner's
// signature on the DN mapping, and (4) that the receipt id has not been
// spent before (TokenRegistry). No access control lists anywhere.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>

#include "common/status.hpp"
#include "common/units.hpp"
#include "crypto/schnorr.hpp"

namespace gm::crypto {

/// Signed proof that `amount` moved from `from_account` to `to_account`.
/// The bank issues one only for an owner-authorized transfer (the payment
/// into the broker); its moves between bank-managed accounts have none.
struct TransferReceipt {
  std::string receipt_id;    // unique id assigned by the bank
  std::string from_account;
  std::string to_account;
  Money amount;
  std::int64_t issued_at_us = 0;
  Signature bank_signature;

  /// Canonical byte string covered by the bank signature.
  std::string SigningPayload() const;

  friend bool operator==(const TransferReceipt&,
                         const TransferReceipt&) = default;
};

/// A receipt bound to a Grid identity by the paying account's owner.
struct TransferToken {
  TransferReceipt receipt;
  std::string grid_dn;       // canonical DN string of the Grid user
  Signature owner_signature; // over MappingPayload()

  /// Canonical byte string covered by the owner signature. Covers the whole
  /// receipt payload so neither the mapping nor the receipt can be swapped.
  std::string MappingPayload() const;
};

/// Build a token by signing the DN mapping with the payer's key.
TransferToken MintToken(const TransferReceipt& receipt,
                        const std::string& grid_dn, const KeyPair& owner_keys,
                        Rng& rng);

/// Structural verification against the bank's and owner's public keys.
/// `expected_recipient` is the broker account that must have been paid.
/// Does NOT consult the double-spend registry; callers combine this with
/// TokenRegistry::Claim.
Status VerifyToken(const TransferToken& token, const PublicKey& bank_key,
                   const PublicKey& owner_key,
                   const std::string& expected_recipient);

/// Replay protection: each receipt id may be claimed exactly once.
class TokenRegistry {
 public:
  /// Claims the id; AlreadyExists if it was spent before.
  Status Claim(const std::string& receipt_id);
  bool IsSpent(const std::string& receipt_id) const;
  std::size_t size() const { return spent_.size(); }

 private:
  std::unordered_set<std::string> spent_;
};

}  // namespace gm::crypto
