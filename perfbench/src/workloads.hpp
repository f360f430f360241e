// The benchmark's workload drivers. Each is built only from the
// program's public API, so every call into a layer can be timed from
// outside: a Span around it, an op sample for the user-facing call.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// The paper's fixed seed (HPDC'06); every workload's default.
inline constexpr std::uint64_t kPaperSeed = 20060619;

struct Options {
  std::uint64_t seed = kPaperSeed;
  int threads = 1;      // most threads a workload may run at once
  std::string out_dir;  // scratch space inside the checkout
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Distinct inputs drawn from the seed. A run cycles through them, so
  /// its timings average over this many draws of the workload.
  virtual int variants() const = 0;
  /// The set-up and timed phases of `variant`, recorded into `stats` with
  /// its step clock. Every iteration of a variant does the same work.
  virtual void Iteration(int variant, Tracer& tracer, RunStats& stats) = 0;
  /// Untimed output checks that compare iterations with a reference run
  /// (or a serial twin). Called once, after the last iteration.
  virtual void Finish(RunStats& stats) = 0;
  /// The steps that are the workload's user op (op_p50_us, op_tail_us,
  /// ops_per_s).
  virtual RunStats::StepKind op_kind() const {
    return RunStats::StepKind::kOp;
  }
};

std::unique_ptr<Workload> MakePaperTestbed(const Options& options);
std::unique_ptr<Workload> MakeOpenGrid(const Options& options);
std::unique_ptr<Workload> MakeFederationScale(const Options& options);

/// Add the program's registry counters that the per-layer catalog lists
/// ("reg.<name>") from a CollectMetrics snapshot.
void AddRegistryCounters(const std::map<std::string, std::uint64_t>& counters,
                         RunStats& stats);

/// FNV-1a over `text`, continuing from `hash`: the outcome digests.
std::uint64_t Fnv1a(const std::string& text,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

}  // namespace perfbench
