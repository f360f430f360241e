// gmlint fixture: must trigger the money-conservation rule — a hold
// settled through a virtual call whose overrides disagree. One override
// refunds, the other does not, so the hold stays open whenever the
// dispatch lands on the second.
#include "common/status.hpp"

namespace fixture {

class Bank {
 public:
  gm::Status PrepareDebit(const char* account);
  gm::Status Refund(const char* account);
};

class Settler {
 public:
  virtual ~Settler() = default;
  virtual gm::Status Settle(Bank& bank, const char* account) = 0;
};

class RefundingSettler : public Settler {
 public:
  gm::Status Settle(Bank& bank, const char* account) override {
    return bank.Refund(account);
  }
};

class LoggingSettler : public Settler {
 public:
  gm::Status Settle(Bank& bank, const char* account) override {
    (void)bank;
    (void)account;
    return gm::Status::Ok();
  }
};

gm::Status SettleThroughBase(Bank& bank, Settler& settler) {
  GM_RETURN_IF_ERROR(bank.PrepareDebit("alice"));
  // finding (x2): LoggingSettler::Settle leaves the hold open on this
  // exit and on the return below.
  GM_RETURN_IF_ERROR(settler.Settle(bank, "alice"));
  return gm::Status::Ok();
}  // finding: the hold is still open at the end

}  // namespace fixture
