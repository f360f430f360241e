// gmlint fixture: checked under the scenario layer's rules via the
// directive below. Scenarios drive the economy through the core/ facade;
// reaching directly into host/, market/ or bank/ internals would let an
// adversary model bypass the surfaces it claims to attack.
// Not compiled — scanned by run_fixture_tests.py.
//
// gmlint: layer(scenario)
#include <string>

#include "core/grid_market.hpp"          // fine: the sanctioned facade
#include "market/auctioneer.hpp"         // market internals, forbidden
#include "bank/federation/router.hpp"    // bank internals, forbidden
#include "host/parallel_runner.hpp"      // host runtime, forbidden

namespace gm::scenario {

std::string DescribeViolation() {
  return "the scenario layer must not see host, market or bank internals";
}

}  // namespace gm::scenario
