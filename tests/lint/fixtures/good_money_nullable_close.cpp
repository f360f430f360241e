// gmlint fixture: must pass the money-conservation rule — a brace-less
// body guarded on the open's own result settles the hold at the outer
// level, and a brace-less failed-open check is an exempt exit, both
// exactly as in the braced form.
#include "common/status.hpp"

namespace fixture {

class Bank {
 public:
  gm::Status PrepareDebit(const char* account);
  gm::Status Refund(const char* account);
};

gm::Status SettleOnEitherOutcome(Bank& bank) {
  const auto hold = bank.PrepareDebit("alice");
  if (hold.ok()) (void)bank.Refund("alice");
  return gm::Status::Ok();
}

gm::Status GuardedOpen(Bank& bank) {
  const auto hold = bank.PrepareDebit("bob");
  if (!hold.ok()) return hold;  // the failed open holds no money
  return bank.Refund("bob");
}

}  // namespace fixture
