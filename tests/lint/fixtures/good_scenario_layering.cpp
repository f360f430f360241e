// gmlint fixture: must pass include-layering under the scenario layer's
// rules. The scenario engine may drive the system through the core/
// facade, model load with math/, and read telemetry — all sanctioned
// dependencies.
//
// gmlint: layer(scenario)
#include <string>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/grid_market.hpp"
#include "math/distributions.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace gm::scenario {

std::string DescribeLayer() {
  return "scenarios attack the market through its public surfaces";
}

}  // namespace gm::scenario
