#include "bank/bank.hpp"

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"

namespace gm::bank {
namespace {

class BankTest : public ::testing::Test {
 protected:
  BankTest()
      : bank_(crypto::TestGroup(), 42),
        alice_(crypto::KeyPair::Generate(crypto::TestGroup(), rng_)),
        bob_(crypto::KeyPair::Generate(crypto::TestGroup(), rng_)) {
    EXPECT_TRUE(bank_.CreateAccount("alice", alice_.public_key()).ok());
    EXPECT_TRUE(bank_.CreateAccount("bob", bob_.public_key()).ok());
    EXPECT_TRUE(bank_.Mint("alice", Money::Dollars(1000), 0).ok());
  }

  crypto::Signature Authorize(const crypto::KeyPair& keys,
                              const std::string& from, const std::string& to,
                              Money amount) {
    const auto nonce = bank_.TransferNonce(from);
    EXPECT_TRUE(nonce.ok());
    return keys.Sign(TransferAuthPayload(from, to, amount, *nonce), rng_);
  }

  Rng rng_{7};
  Bank bank_;
  crypto::KeyPair alice_;
  crypto::KeyPair bob_;
};

TEST_F(BankTest, CreateAndQueryAccounts) {
  EXPECT_TRUE(bank_.HasAccount("alice"));
  EXPECT_FALSE(bank_.HasAccount("carol"));
  EXPECT_EQ(bank_.Balance("alice").value(), Money::Dollars(1000));
  EXPECT_EQ(bank_.Balance("bob").value(), Money::Zero());
  EXPECT_FALSE(bank_.Balance("carol").ok());
}

TEST_F(BankTest, DuplicateAccountRejected) {
  EXPECT_EQ(bank_.CreateAccount("alice", alice_.public_key()).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(BankTest, EmptyAccountIdRejected) {
  EXPECT_FALSE(bank_.CreateAccount("", alice_.public_key()).ok());
}

TEST_F(BankTest, MintValidation) {
  EXPECT_FALSE(bank_.Mint("alice", Money::Zero(), 0).ok());
  EXPECT_FALSE(bank_.Mint("alice", Money::FromMicros(-5), 0).ok());
  EXPECT_FALSE(bank_.Mint("ghost", Money::FromMicros(100), 0).ok());
}

TEST_F(BankTest, AuthorizedTransferMovesMoney) {
  const Money amount = Money::Dollars(250);
  const auto auth = Authorize(alice_, "alice", "bob", amount);
  const auto receipt = bank_.Transfer("alice", "bob", amount, auth, 1000);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(bank_.Balance("alice").value(), Money::Dollars(750));
  EXPECT_EQ(bank_.Balance("bob").value(), Money::Dollars(250));
  EXPECT_EQ(receipt->from_account, "alice");
  EXPECT_EQ(receipt->to_account, "bob");
  EXPECT_EQ(receipt->amount, amount);
  EXPECT_EQ(receipt->issued_at_us, 1000);
  EXPECT_TRUE(bank_.CheckInvariants().ok());
}

TEST_F(BankTest, TransferRejectsWrongSigner) {
  const Money amount = Money::Dollars(100);
  const auto auth = Authorize(bob_, "alice", "bob", amount);  // bob signs
  const auto receipt = bank_.Transfer("alice", "bob", amount, auth, 0);
  EXPECT_EQ(receipt.status().code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(bank_.Balance("alice").value(), Money::Dollars(1000));
}

TEST_F(BankTest, TransferRejectsReplayedAuthorization) {
  const Money amount = Money::Dollars(100);
  const auto auth = Authorize(alice_, "alice", "bob", amount);
  ASSERT_TRUE(bank_.Transfer("alice", "bob", amount, auth, 0).ok());
  // Same signature again: nonce advanced, must fail.
  const auto replay = bank_.Transfer("alice", "bob", amount, auth, 0);
  EXPECT_EQ(replay.status().code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(bank_.Balance("bob").value(), amount);
}

TEST_F(BankTest, TransferRejectsInsufficientFunds) {
  const Money amount = Money::Dollars(5000);
  const auto auth = Authorize(alice_, "alice", "bob", amount);
  const auto receipt = bank_.Transfer("alice", "bob", amount, auth, 0);
  EXPECT_EQ(receipt.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(BankTest, TransferRejectsNonPositiveAmount) {
  const auto auth = Authorize(alice_, "alice", "bob", Money::Zero());
  EXPECT_FALSE(bank_.Transfer("alice", "bob", Money::Zero(), auth, 0).ok());
}

TEST_F(BankTest, SubAccountLifecycle) {
  ASSERT_TRUE(bank_.CreateSubAccount("bob", "bob/alice-job1").ok());
  EXPECT_TRUE(bank_.HasAccount("bob/alice-job1"));
  EXPECT_FALSE(bank_.CreateSubAccount("ghost", "x").ok());
  EXPECT_EQ(bank_.CreateSubAccount("bob", "bob/alice-job1").code(),
            StatusCode::kAlreadyExists);
}

TEST_F(BankTest, InternalTransferBetweenManagedAccounts) {
  ASSERT_TRUE(bank_.CreateSubAccount("bob", "bob/sub").ok());
  // Fund the sub-account from bob (bob is owner-keyed, needs signature).
  const auto auth = Authorize(bob_, "bob", "bob/sub", Money::Dollars(10));
  ASSERT_TRUE(bank_.Mint("bob", Money::Dollars(10), 0).ok());
  ASSERT_TRUE(
      bank_.Transfer("bob", "bob/sub", Money::Dollars(10), auth, 0).ok());
  // Sub-account to another managed account without signature.
  ASSERT_TRUE(bank_.CreateSubAccount("bob", "bob/host-1").ok());
  ASSERT_TRUE(
      bank_.InternalTransfer("bob/sub", "bob/host-1", Money::Dollars(4), 0)
          .ok());
  EXPECT_EQ(bank_.Balance("bob/host-1").value(), Money::Dollars(4));
  EXPECT_TRUE(bank_.CheckInvariants().ok());
}

TEST_F(BankTest, InternalTransferRejectedForOwnerKeyedAccount) {
  EXPECT_EQ(bank_.InternalTransfer("alice", "bob", Money::Dollars(1), 0).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(BankTest, SignedTransferRejectedForManagedAccount) {
  ASSERT_TRUE(bank_.CreateSubAccount("bob", "bob/sub").ok());
  const auto auth = Authorize(alice_, "bob/sub", "bob", Money::FromMicros(1));
  EXPECT_EQ(bank_.Transfer("bob/sub", "bob", Money::FromMicros(1), auth,
                           0).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(BankTest, ReceiptVerification) {
  const Money amount = Money::Dollars(100);
  const auto auth = Authorize(alice_, "alice", "bob", amount);
  const auto receipt = bank_.Transfer("alice", "bob", amount, auth, 0);
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(bank_.VerifyReceipt(*receipt).ok());

  crypto::TransferReceipt forged = *receipt;
  forged.amount += forged.amount;
  EXPECT_FALSE(bank_.VerifyReceipt(forged).ok());

  crypto::TransferReceipt unknown = *receipt;
  unknown.receipt_id = "rcpt-999999-deadbeef";
  EXPECT_EQ(bank_.VerifyReceipt(unknown).code(), StatusCode::kNotFound);
}

// An internal transfer signs nothing: the receipt the bank would have
// numbered for it is unknown to VerifyReceipt, yet it still takes a
// receipt number, so the next signed Transfer's id is unchanged.
TEST_F(BankTest, InternalTransferIssuesNoReceipt) {
  ASSERT_TRUE(bank_.CreateSubAccount("bob", "bob/sub").ok());
  ASSERT_TRUE(bank_.CreateSubAccount("bob", "bob/host-1").ok());
  ASSERT_TRUE(bank_.Mint("bob/sub", Money::Dollars(10), 0).ok());
  ASSERT_TRUE(
      bank_.InternalTransfer("bob/sub", "bob/host-1", Money::Dollars(4), 77)
          .ok());

  crypto::TransferReceipt rebuilt;
  rebuilt.receipt_id =
      "rcpt-000001-" +
      crypto::Sha256::HexDigest("bob/sub|bob/host-1|1").substr(0, 12);
  rebuilt.from_account = "bob/sub";
  rebuilt.to_account = "bob/host-1";
  rebuilt.amount = Money::Dollars(4);
  rebuilt.issued_at_us = 77;
  EXPECT_EQ(bank_.VerifyReceipt(rebuilt).code(), StatusCode::kNotFound);
  rebuilt.receipt_id.clear();
  EXPECT_EQ(bank_.VerifyReceipt(rebuilt).code(), StatusCode::kNotFound);

  const auto auth = Authorize(alice_, "alice", "bob", Money::Dollars(1));
  const auto signed_receipt =
      bank_.Transfer("alice", "bob", Money::Dollars(1), auth, 78);
  ASSERT_TRUE(signed_receipt.ok());
  EXPECT_EQ(signed_receipt->receipt_id.substr(0, 12), "rcpt-000002-");
  EXPECT_TRUE(bank_.VerifyReceipt(*signed_receipt).ok());
}

// Same payload, different signature bytes: the bank compares the presented
// receipt with its signed copy, so the altered one is refused.
TEST_F(BankTest, ReceiptWithAlteredSignatureIsRejected) {
  const Money amount = Money::Dollars(3);
  const auto auth = Authorize(alice_, "alice", "bob", amount);
  const auto receipt = bank_.Transfer("alice", "bob", amount, auth, 0);
  ASSERT_TRUE(receipt.ok());
  crypto::TransferReceipt altered = *receipt;
  altered.bank_signature.s = altered.bank_signature.s + crypto::U256(1);
  ASSERT_EQ(altered.SigningPayload(), receipt->SigningPayload());
  EXPECT_EQ(bank_.VerifyReceipt(altered).code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(bank_.VerifyReceipt(*receipt).ok());
}

TEST_F(BankTest, ReceiptIdsAreUnique) {
  const auto a = bank_.Transfer(
      "alice", "bob", Money::FromMicros(1),
      Authorize(alice_, "alice", "bob", Money::FromMicros(1)), 0);
  const auto b = bank_.Transfer(
      "alice", "bob", Money::FromMicros(1),
      Authorize(alice_, "alice", "bob", Money::FromMicros(1)), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->receipt_id, b->receipt_id);
}

TEST_F(BankTest, AuditLogRecordsOperations) {
  const auto auth = Authorize(alice_, "alice", "bob", Money::FromMicros(5));
  ASSERT_TRUE(
      bank_.Transfer("alice", "bob", Money::FromMicros(5), auth, 123).ok());
  const auto& log = bank_.audit_log();
  ASSERT_FALSE(log.empty());
  const AuditEntry& last = log.back();
  EXPECT_EQ(last.kind, "transfer");
  EXPECT_EQ(last.from, "alice");
  EXPECT_EQ(last.to, "bob");
  EXPECT_EQ(last.amount, Money::FromMicros(5));
  EXPECT_EQ(last.at_us, 123);
}

TEST_F(BankTest, ConservationHoldsAcrossManyOperations) {
  ASSERT_TRUE(bank_.CreateSubAccount("bob", "bob/s1").ok());
  for (int i = 0; i < 20; ++i) {
    const Money amount = Money::Dollars(1 + i);
    const auto auth = Authorize(alice_, "alice", "bob", amount);
    ASSERT_TRUE(bank_.Transfer("alice", "bob", amount, auth, i).ok());
    ASSERT_TRUE(bank_.CheckInvariants().ok());
  }
}

TEST(TransferAuthPayloadTest, CanonicalFormat) {
  EXPECT_EQ(TransferAuthPayload("a", "b", Money::FromMicros(42), 7),
            "auth|from=a|to=b|amount=42|nonce=7");
}

}  // namespace
}  // namespace gm::bank
