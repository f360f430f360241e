#include "grid/auth.hpp"

#include "common/strings.hpp"
#include "crypto/sha256.hpp"

namespace gm::grid {

TokenAuthorizer::TokenAuthorizer(bank::Bank& bank, std::string broker_account)
    : bank_(bank), broker_account_(std::move(broker_account)) {
  GM_ASSERT(bank_.HasAccount(broker_account_),
            "broker account must exist in the bank");
}

Status TokenAuthorizer::RegisterIdentity(
    const crypto::Certificate& certificate,
    const crypto::CertificateAuthority& ca, std::int64_t now_us) {
  GM_RETURN_IF_ERROR(ca.Verify(certificate, now_us));
  identities_[certificate.subject.ToString()] = certificate.subject_key;
  return Status::Ok();
}

bool TokenAuthorizer::KnowsIdentity(const std::string& dn) const {
  return identities_.find(dn) != identities_.end();
}

Result<AuthorizedFunds> TokenAuthorizer::Authorize(
    const crypto::TransferToken& token, std::int64_t now_us) {
  // (a) The Grid identity must have completed the PKI handshake.
  const auto identity = identities_.find(token.grid_dn);
  if (identity == identities_.end())
    return Status::Unauthenticated("unknown Grid identity: " + token.grid_dn);

  // (b) The payer's registered key must have signed the DN mapping — the
  // payer's key is the one the bank holds for the source account.
  GM_ASSIGN_OR_RETURN(const crypto::PublicKey payer_key,
                      bank_.OwnerKey(token.receipt.from_account));
  GM_RETURN_IF_ERROR(crypto::VerifyToken(token, bank_.public_key(), payer_key,
                                         broker_account_));

  // (c) The transfer must actually be in the bank ledger: the receipt must
  // equal the bank's signed copy. (b) has already verified its signature
  // once, so the bank compares bytes rather than verifying again.
  GM_RETURN_IF_ERROR(bank_.VerifyReceipt(token.receipt));

  // (d) First use of this receipt.
  GM_RETURN_IF_ERROR(registry_.Claim(token.receipt.receipt_id));

  // (e) Move the verified funds into a fresh sub-account for the job.
  const std::string digest =
      crypto::Sha256::HexDigest(token.grid_dn + "|" +
                                token.receipt.receipt_id)
          .substr(0, 10);
  const std::string sub_account = StrFormat(
      "%s/job-%04llu-%s", broker_account_.c_str(),
      static_cast<unsigned long long>(next_sub_++), digest.c_str());
  GM_RETURN_IF_ERROR(bank_.CreateSubAccount(broker_account_, sub_account));
  GM_RETURN_IF_ERROR(bank_.InternalTransfer(broker_account_, sub_account,
                                            token.receipt.amount, now_us));
  AuthorizedFunds funds;
  funds.sub_account = sub_account;
  funds.amount = token.receipt.amount;
  funds.grid_dn = token.grid_dn;
  return funds;
}

}  // namespace gm::grid
