// gmlint fixture: must trigger the money-conservation rule — a close
// inside a brace-less conditional or loop body settles the hold only on
// the path that runs that body, exactly like its braced form.
#include "common/status.hpp"

namespace fixture {

class Bank {
 public:
  gm::Status PrepareDebit(const char* account);
  gm::Status Refund(const char* account);
};

gm::Status RefundThroughNullable(Bank& bank, Bank* refunder) {
  GM_RETURN_IF_ERROR(bank.PrepareDebit("alice"));
  if (refunder != nullptr) (void)refunder->Refund("alice");
  // finding: the hold is still open here when refunder is null
  return gm::Status::Ok();
}  // finding: and at the end of the function

gm::Status RefundPerRetry(Bank& bank, int retries) {
  GM_RETURN_IF_ERROR(bank.PrepareDebit("bob"));
  for (int i = 0; i < retries; ++i) (void)bank.Refund("bob");
  // finding: zero retries never refund
  return gm::Status::Ok();
}  // finding: and the hold outlives the function

}  // namespace fixture
