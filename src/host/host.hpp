// Physical host: capacity, VM lifecycle, proportional-share scheduling.
//
// Every allocation interval the auctioneer hands the host a weight per VM
// (the bid rates). The host converts weights into CPU capacity with a
// work-conserving water-fill: a single-vCPU VM is capped at one physical
// CPU, and capacity freed by capped or idle VMs is redistributed to the
// rest — Tycoon's work-conservation / no-starvation property.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "host/provision.hpp"
#include "host/vm.hpp"

namespace gm::host {

struct HostSpec {
  std::string id;
  int cpus = 2;  // paper testbed machines are dual-processor
  CyclesPerSecond cycles_per_cpu = GHz(3.0);
  double virtualization_overhead = 0.03;  // Xen: 1%-5%
  sim::SimDuration vm_boot_time = sim::Seconds(30);
  int max_vms = 15;  // paper: up to ~15 VMs per physical node
  /// Redistribute capacity freed by vCPU caps to the remaining VMs
  /// (Tycoon's work-conservation property). Disable for ablation only.
  bool work_conserving = true;
};

/// Per-interval allocation result for one VM.
struct AllocationSlice {
  /// The VM itself — valid until the next DestroyVm.
  VirtualMachine* vm = nullptr;
  double weight = 0.0;
  CyclesPerSecond granted = 0.0;  // capacity for the interval
  Cycles used = 0.0;              // cycles actually consumed
  double used_fraction = 0.0;     // used / (granted * dt)
};

class PhysicalHost {
 public:
  explicit PhysicalHost(HostSpec spec);

  const HostSpec& spec() const { return spec_; }
  const std::string& id() const { return spec_.id; }

  /// Effective total capacity after virtualization overhead.
  CyclesPerSecond TotalCapacity() const;
  /// Effective single-vCPU cap.
  CyclesPerSecond PerCpuCapacity() const;

  /// Create a VM for `owner`; ready after the boot latency.
  Result<VirtualMachine*> CreateVm(const std::string& vm_id,
                                   const std::string& owner,
                                   sim::SimTime now);
  Result<VirtualMachine*> GetVm(const std::string& vm_id);
  Status DestroyVm(const std::string& vm_id);
  /// The user's VM on this host if any (paper: one VM per user per host).
  VirtualMachine* FindVmByOwner(const std::string& owner);

  std::size_t vm_count() const { return vms_.size(); }
  std::vector<VirtualMachine*> vms();

  /// Advance one allocation interval: distribute capacity proportionally to
  /// the weights (e.g. bid rates) among runnable VMs with per-vCPU caps and
  /// work-conserving redistribution, then run the VMs. `weight_of(vm)` is
  /// asked once per runnable VM, in id order; VMs with a non-positive weight
  /// sit the interval out. Scratch vectors draw from `scratch` (reclaimed by
  /// the caller's Reset), and slices are appended to `out` — cleared first —
  /// so its capacity is reused across ticks.
  template <typename WeightOf>
  void AdvanceInterval(sim::SimTime start, sim::SimDuration dt,
                       WeightOf&& weight_of, Arena& scratch,
                       std::vector<AllocationSlice>& out) {
    auto participants = MakeArenaVector<VirtualMachine*>(scratch, vms_.size());
    auto weights = MakeArenaVector<double>(scratch, vms_.size());
    const sim::SimTime end = start + dt;
    for (auto& [id, vm] : vms_) {
      if (vm->destroyed()) continue;
      // A VM becoming ready mid-interval still participates for its tail.
      if (!vm->HasWork() || vm->ready_at() >= end) continue;
      const double w = weight_of(*vm);
      if (w <= 0) continue;
      participants.push_back(vm.get());
      weights.push_back(w);
    }
    RunParticipants(start, dt, participants.data(), weights.data(),
                    participants.size(), scratch, out);
  }

  /// Utilization over the host's lifetime: delivered / (capacity * time).
  double Utilization(sim::SimDuration elapsed) const;
  Cycles delivered_cycles() const { return delivered_cycles_; }

 private:
  /// Splits the capacity among the `n` participants by `weights` and runs
  /// each one for the interval, writing one slice per participant.
  void RunParticipants(sim::SimTime start, sim::SimDuration dt,
                       VirtualMachine* const* participants,
                       const double* weights, std::size_t n, Arena& scratch,
                       std::vector<AllocationSlice>& out);

  HostSpec spec_;
  std::map<std::string, std::unique_ptr<VirtualMachine>> vms_;
  std::uint64_t vms_created_ = 0;
  Cycles delivered_cycles_ = 0;
};

/// Water-filling proportional share with per-entity cap: splits `total`
/// among entities proportionally to weight, no entity above `cap`, excess
/// redistributed when `redistribute` (work conservation). Exposed for
/// direct testing; entities with non-positive weight get zero. Returns
/// granted capacity aligned with `weights`.
std::vector<double> ProportionalShareWithCap(const std::vector<double>& weights,
                                             double total, double cap,
                                             bool redistribute = true);

/// Allocation-free core of ProportionalShareWithCap: writes the granted
/// shares into `granted[0..n)` and draws its index scratch from `scratch`.
/// Same arithmetic, same order — bit-identical to the vector wrapper.
void ProportionalShareWithCapInto(const double* weights, std::size_t n,
                                  double total, double cap, bool redistribute,
                                  Arena& scratch, double* granted);

}  // namespace gm::host
