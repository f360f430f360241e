// Parameterized property sweeps over the host/VM substrate: capacity
// conservation across allocation intervals, completion-time monotonicity,
// and utilization bounds under randomized workloads.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "host/host.hpp"

namespace gm::host {
namespace {

struct HostCase {
  int cpus;
  int vms;
  bool work_conserving;
};

class HostAllocationProperty : public ::testing::TestWithParam<HostCase> {};

TEST_P(HostAllocationProperty, CapacityConservedAndBounded) {
  const HostCase param = GetParam();
  Rng rng(static_cast<std::uint64_t>(param.cpus) * 100 +
          static_cast<std::uint64_t>(param.vms));
  HostSpec spec;
  spec.id = "prop";
  spec.cpus = param.cpus;
  spec.cycles_per_cpu = 100.0;
  spec.virtualization_overhead = 0.0;
  spec.vm_boot_time = 0;
  spec.max_vms = param.vms + 1;
  spec.work_conserving = param.work_conserving;
  PhysicalHost host(spec);

  std::map<std::string, double> weights;
  std::vector<VirtualMachine*> vms;
  for (int v = 0; v < param.vms; ++v) {
    const std::string id = "vm-" + std::to_string(v);
    auto vm = host.CreateVm(id, "u" + std::to_string(v), 0);
    ASSERT_TRUE(vm.ok());
    vms.push_back(*vm);
    // Random finite workloads; some VMs may idle mid-run.
    (*vm)->Enqueue({1, rng.Uniform(500.0, 20000.0), nullptr});
    weights[id] = rng.Uniform(0.1, 10.0);
  }

  const sim::SimDuration interval = 10 * sim::kSecond;
  double delivered_total = 0.0;
  for (int tick = 0; tick < 30; ++tick) {
    ArenaScratch<2048> scratch;
    std::vector<AllocationSlice> slices;
    host.AdvanceInterval(
        tick * interval, interval,
        [&weights](const VirtualMachine& vm) { return weights.at(vm.id()); },
        scratch.arena, slices);
    double interval_used = 0.0;
    for (const AllocationSlice& slice : slices) {
      // No VM above its vCPU cap, nothing negative.
      EXPECT_GE(slice.granted, 0.0);
      EXPECT_LE(slice.granted, host.PerCpuCapacity() + 1e-9);
      EXPECT_GE(slice.used, 0.0);
      EXPECT_LE(slice.used,
                slice.granted * sim::ToSeconds(interval) + 1e-6);
      EXPECT_GE(slice.used_fraction, 0.0);
      EXPECT_LE(slice.used_fraction, 1.0 + 1e-9);
      interval_used += slice.used;
    }
    // Host-wide conservation per interval.
    EXPECT_LE(interval_used,
              host.TotalCapacity() * sim::ToSeconds(interval) + 1e-6);
    delivered_total += interval_used;
  }
  EXPECT_NEAR(host.delivered_cycles(), delivered_total, 1e-6);
  EXPECT_LE(host.Utilization(30 * interval), 1.0 + 1e-9);

  // Total work conservation: delivered == sum of what VMs consumed.
  double vm_total = 0.0;
  for (VirtualMachine* vm : vms) vm_total += vm->delivered_cycles();
  EXPECT_NEAR(vm_total, delivered_total, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HostAllocationProperty,
    ::testing::Values(HostCase{1, 1, true}, HostCase{1, 3, true},
                      HostCase{2, 2, true}, HostCase{2, 5, true},
                      HostCase{4, 10, true}, HostCase{2, 5, false},
                      HostCase{1, 4, false}),
    [](const auto& info) {
      return std::to_string(info.param.cpus) + "cpu" +
             std::to_string(info.param.vms) + "vm" +
             (info.param.work_conserving ? "_wc" : "_nowc");
    });

class VmWorkloadProperty : public ::testing::TestWithParam<int> {};

TEST_P(VmWorkloadProperty, CompletionsOrderedAndExact) {
  const int items = GetParam();
  Rng rng(static_cast<std::uint64_t>(items) * 7 + 1);
  VirtualMachine vm("vm", "owner", 0);
  std::vector<sim::SimTime> completions;
  double total_cycles = 0.0;
  for (int i = 0; i < items; ++i) {
    const double cycles = rng.Uniform(10.0, 500.0);
    total_cycles += cycles;
    vm.Enqueue({static_cast<std::uint64_t>(i), cycles,
                [&](sim::SimTime t) { completions.push_back(t); }});
  }
  // Drive with randomly sized intervals and capacities until drained.
  sim::SimTime now = 0;
  int guard = 0;
  while (vm.HasWork() && ++guard < 10000) {
    const sim::SimDuration dt = sim::Seconds(rng.Uniform(0.5, 5.0));
    vm.Advance(now, dt, rng.Uniform(5.0, 50.0));
    now += dt;
  }
  ASSERT_EQ(completions.size(), static_cast<std::size_t>(items));
  for (std::size_t i = 1; i < completions.size(); ++i)
    EXPECT_LE(completions[i - 1], completions[i]);  // FIFO order
  EXPECT_NEAR(vm.delivered_cycles(), total_cycles, 1e-6);
  EXPECT_EQ(vm.completed_items(), static_cast<std::uint64_t>(items));
}

INSTANTIATE_TEST_SUITE_P(Sweep, VmWorkloadProperty,
                         ::testing::Values(1, 2, 5, 20, 100));

}  // namespace
}  // namespace gm::host
