#include "host/host.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace gm::host {

void ProportionalShareWithCapInto(const double* weights, std::size_t n,
                                  double total, double cap, bool redistribute,
                                  Arena& scratch, double* granted) {
  for (std::size_t i = 0; i < n; ++i) granted[i] = 0.0;
  if (total <= 0 || cap <= 0) return;

  auto active = MakeArenaVector<std::size_t>(scratch, n);
  double active_weight = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] > 0) {
      active.push_back(i);
      active_weight += weights[i];
    }
  }
  if (!redistribute) {
    // Non-work-conserving: plain proportional shares, clipped at the cap;
    // capacity freed by the clip is wasted.
    for (const std::size_t i : active)
      granted[i] = std::min(cap, total * weights[i] / active_weight);
    return;
  }
  double remaining = total;
  // Iteratively cap entities whose proportional share exceeds the cap and
  // redistribute the freed capacity. Terminates in <= n iterations.
  while (!active.empty() && remaining > 1e-12) {
    bool capped_any = false;
    auto still_active = MakeArenaVector<std::size_t>(scratch, active.size());
    double still_weight = 0.0;
    for (const std::size_t i : active) {
      const double share = remaining * weights[i] / active_weight;
      if (share >= cap - granted[i]) {
        // This entity saturates its cap.
        granted[i] = cap;
        capped_any = true;
      } else {
        still_active.push_back(i);
        still_weight += weights[i];
      }
    }
    if (!capped_any) {
      for (const std::size_t i : still_active)
        granted[i] += remaining * weights[i] / still_weight;
      break;
    }
    // Recompute what remains after the caps taken this round.
    double taken = 0.0;
    for (std::size_t i = 0; i < n; ++i) taken += granted[i];
    remaining = total - taken;
    active = std::move(still_active);
    active_weight = still_weight;
  }
}

std::vector<double> ProportionalShareWithCap(const std::vector<double>& weights,
                                             double total, double cap,
                                             bool redistribute) {
  std::vector<double> granted(weights.size());
  ArenaScratch<2048> scratch;
  ProportionalShareWithCapInto(weights.data(), weights.size(), total, cap,
                               redistribute, scratch.arena, granted.data());
  return granted;
}

PhysicalHost::PhysicalHost(HostSpec spec) : spec_(std::move(spec)) {
  GM_ASSERT(spec_.cpus > 0, "host needs at least one CPU");
  GM_ASSERT(spec_.cycles_per_cpu > 0, "host needs positive capacity");
  GM_ASSERT(spec_.virtualization_overhead >= 0 &&
                spec_.virtualization_overhead < 1,
            "overhead must be in [0, 1)");
}

CyclesPerSecond PhysicalHost::TotalCapacity() const {
  return spec_.cpus * PerCpuCapacity();
}

CyclesPerSecond PhysicalHost::PerCpuCapacity() const {
  return spec_.cycles_per_cpu * (1.0 - spec_.virtualization_overhead);
}

Result<VirtualMachine*> PhysicalHost::CreateVm(const std::string& vm_id,
                                               const std::string& owner,
                                               sim::SimTime now) {
  if (vms_.size() >= static_cast<std::size_t>(spec_.max_vms))
    return Status::ResourceExhausted(
        StrFormat("host %s: VM limit %d reached", spec_.id.c_str(),
                  spec_.max_vms));
  if (vms_.find(vm_id) != vms_.end())
    return Status::AlreadyExists("vm exists: " + vm_id);
  auto vm = std::make_unique<VirtualMachine>(vm_id, owner,
                                             now + spec_.vm_boot_time);
  VirtualMachine* raw = vm.get();
  vms_.emplace(vm_id, std::move(vm));
  ++vms_created_;
  return raw;
}

Result<VirtualMachine*> PhysicalHost::GetVm(const std::string& vm_id) {
  const auto it = vms_.find(vm_id);
  if (it == vms_.end()) return Status::NotFound("vm: " + vm_id);
  return it->second.get();
}

Status PhysicalHost::DestroyVm(const std::string& vm_id) {
  const auto it = vms_.find(vm_id);
  if (it == vms_.end()) return Status::NotFound("vm: " + vm_id);
  it->second->Destroy();
  vms_.erase(it);
  return Status::Ok();
}

VirtualMachine* PhysicalHost::FindVmByOwner(const std::string& owner) {
  for (auto& [id, vm] : vms_) {
    if (vm->owner() == owner) return vm.get();
  }
  return nullptr;
}

std::vector<VirtualMachine*> PhysicalHost::vms() {
  std::vector<VirtualMachine*> out;
  out.reserve(vms_.size());
  for (auto& [id, vm] : vms_) out.push_back(vm.get());
  return out;
}

void PhysicalHost::RunParticipants(sim::SimTime start, sim::SimDuration dt,
                                   VirtualMachine* const* participants,
                                   const double* weights, std::size_t n,
                                   Arena& scratch,
                                   std::vector<AllocationSlice>& out) {
  out.clear();
  auto granted = MakeArenaVector<double>(scratch, n);
  granted.resize(n);
  ProportionalShareWithCapInto(weights, n, TotalCapacity(), PerCpuCapacity(),
                               spec_.work_conserving, scratch, granted.data());

  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AllocationSlice slice;
    slice.vm = participants[i];
    slice.weight = weights[i];
    slice.granted = granted[i];
    slice.used = participants[i]->Advance(start, dt, granted[i]);
    const Cycles offered = granted[i] * sim::ToSeconds(dt);
    slice.used_fraction = offered > 0 ? slice.used / offered : 0.0;
    delivered_cycles_ += slice.used;
    out.push_back(slice);
  }
}

double PhysicalHost::Utilization(sim::SimDuration elapsed) const {
  if (elapsed <= 0) return 0.0;
  const double offered = TotalCapacity() * sim::ToSeconds(elapsed);
  return offered > 0 ? delivered_cycles_ / offered : 0.0;
}

}  // namespace gm::host
