#include "host/host.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace gm::host {
namespace {

using sim::Seconds;

HostSpec TestSpec() {
  HostSpec spec;
  spec.id = "h1";
  spec.cpus = 2;
  spec.cycles_per_cpu = 100.0;  // tiny numbers keep tests readable
  spec.virtualization_overhead = 0.0;
  spec.vm_boot_time = 0;
  spec.max_vms = 4;
  return spec;
}

// One 10 s interval from `start`, weighted by `weight_of(vm)`.
template <typename WeightOf>
std::vector<AllocationSlice> Advance(PhysicalHost& host, sim::SimTime start,
                                     WeightOf weight_of) {
  ArenaScratch<2048> scratch;
  std::vector<AllocationSlice> slices;
  host.AdvanceInterval(start, Seconds(10), weight_of, scratch.arena, slices);
  return slices;
}

double WeightOne(const VirtualMachine&) { return 1.0; }

TEST(ProportionalShareTest, EqualWeightsEqualShares) {
  const auto granted = ProportionalShareWithCap({1.0, 1.0}, 200.0, 100.0);
  EXPECT_DOUBLE_EQ(granted[0], 100.0);
  EXPECT_DOUBLE_EQ(granted[1], 100.0);
}

TEST(ProportionalShareTest, ProportionalToWeights) {
  const auto granted = ProportionalShareWithCap({3.0, 1.0}, 100.0, 100.0);
  EXPECT_DOUBLE_EQ(granted[0], 75.0);
  EXPECT_DOUBLE_EQ(granted[1], 25.0);
}

TEST(ProportionalShareTest, CapBindsAndRedistributes) {
  // Proportional would be 150/50 but the cap is 100: excess flows to the
  // other entity (work conservation).
  const auto granted = ProportionalShareWithCap({3.0, 1.0}, 200.0, 100.0);
  EXPECT_DOUBLE_EQ(granted[0], 100.0);
  EXPECT_DOUBLE_EQ(granted[1], 100.0);
}

TEST(ProportionalShareTest, CascadingCaps) {
  const auto granted =
      ProportionalShareWithCap({10.0, 5.0, 1.0}, 300.0, 120.0);
  EXPECT_DOUBLE_EQ(granted[0], 120.0);
  EXPECT_DOUBLE_EQ(granted[1], 120.0);
  EXPECT_DOUBLE_EQ(granted[2], 60.0);
  EXPECT_DOUBLE_EQ(std::accumulate(granted.begin(), granted.end(), 0.0),
                   300.0);
}

TEST(ProportionalShareTest, ZeroAndNegativeWeightsExcluded) {
  const auto granted =
      ProportionalShareWithCap({0.0, 2.0, -1.0}, 100.0, 100.0);
  EXPECT_DOUBLE_EQ(granted[0], 0.0);
  EXPECT_DOUBLE_EQ(granted[1], 100.0);
  EXPECT_DOUBLE_EQ(granted[2], 0.0);
}

TEST(ProportionalShareTest, SingleEntityTakesCapOnly) {
  const auto granted = ProportionalShareWithCap({5.0}, 200.0, 100.0);
  EXPECT_DOUBLE_EQ(granted[0], 100.0);
}

TEST(ProportionalShareTest, EmptyOrDegenerateInputs) {
  EXPECT_TRUE(ProportionalShareWithCap({}, 100.0, 50.0).empty());
  const auto zero_total = ProportionalShareWithCap({1.0}, 0.0, 50.0);
  EXPECT_DOUBLE_EQ(zero_total[0], 0.0);
}

TEST(ProportionalShareTest, NeverExceedsTotalOrCap) {
  const std::vector<double> weights{7.0, 3.0, 2.0, 1.0, 0.5};
  for (double total : {10.0, 100.0, 1000.0}) {
    for (double cap : {5.0, 50.0, 500.0}) {
      const auto granted = ProportionalShareWithCap(weights, total, cap);
      double sum = 0.0;
      for (double g : granted) {
        EXPECT_LE(g, cap + 1e-9);
        sum += g;
      }
      EXPECT_LE(sum, total + 1e-9);
    }
  }
}

TEST(PhysicalHostTest, CapacityAccounting) {
  HostSpec spec = TestSpec();
  spec.virtualization_overhead = 0.05;
  PhysicalHost host(spec);
  EXPECT_DOUBLE_EQ(host.PerCpuCapacity(), 95.0);
  EXPECT_DOUBLE_EQ(host.TotalCapacity(), 190.0);
}

TEST(PhysicalHostTest, VmLifecycle) {
  PhysicalHost host(TestSpec());
  const auto vm = host.CreateVm("vm-1", "alice", 0);
  ASSERT_TRUE(vm.ok());
  EXPECT_EQ(host.vm_count(), 1u);
  EXPECT_EQ(host.FindVmByOwner("alice"), *vm);
  EXPECT_EQ(host.FindVmByOwner("bob"), nullptr);
  EXPECT_FALSE(host.CreateVm("vm-1", "bob", 0).ok());  // duplicate id
  EXPECT_TRUE(host.DestroyVm("vm-1").ok());
  EXPECT_EQ(host.vm_count(), 0u);
  EXPECT_FALSE(host.DestroyVm("vm-1").ok());
}

TEST(PhysicalHostTest, VmLimitEnforced) {
  PhysicalHost host(TestSpec());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        host.CreateVm("vm-" + std::to_string(i), "u", 0).ok());
  }
  const auto overflow = host.CreateVm("vm-4", "u", 0);
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
}

TEST(PhysicalHostTest, AdvanceIntervalSharesByWeight) {
  PhysicalHost host(TestSpec());  // 2 CPUs x 100 = 200 total, cap 100
  auto a = host.CreateVm("vm-a", "alice", 0);
  auto b = host.CreateVm("vm-b", "bob", 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  (*a)->Enqueue({1, 1e9, nullptr});
  (*b)->Enqueue({2, 1e9, nullptr});
  const auto slices = Advance(host, 0, [](const VirtualMachine& vm) {
    return vm.id() == "vm-a" ? 3.0 : 1.0;
  });
  ASSERT_EQ(slices.size(), 2u);
  // Proportional 150/50 capped at 100 -> redistribute -> 100/100.
  for (const auto& slice : slices) {
    EXPECT_DOUBLE_EQ(slice.granted, 100.0);
    EXPECT_DOUBLE_EQ(slice.used, 1000.0);
    EXPECT_DOUBLE_EQ(slice.used_fraction, 1.0);
  }
}

TEST(PhysicalHostTest, IdleVmExcludedFromAllocation) {
  PhysicalHost host(TestSpec());
  auto a = host.CreateVm("vm-a", "alice", 0);
  auto b = host.CreateVm("vm-b", "bob", 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  (*a)->Enqueue({1, 1e9, nullptr});
  // vm-b has no work: all weighted capacity flows to vm-a (up to its cap).
  const auto slices = Advance(host, 0, [](const VirtualMachine& vm) {
    return vm.id() == "vm-a" ? 1.0 : 9.0;
  });
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].vm->id(), "vm-a");
  EXPECT_DOUBLE_EQ(slices[0].granted, 100.0);  // single-vCPU cap
}

TEST(PhysicalHostTest, ZeroWeightVmGetsNothing) {
  PhysicalHost host(TestSpec());
  auto a = host.CreateVm("vm-a", "alice", 0);
  ASSERT_TRUE(a.ok());
  (*a)->Enqueue({1, 1e9, nullptr});
  const auto slices =
      Advance(host, 0, [](const VirtualMachine&) { return 0.0; });
  EXPECT_TRUE(slices.empty());
}

TEST(PhysicalHostTest, UsedFractionBelowOneWhenQueueDrains) {
  PhysicalHost host(TestSpec());
  auto a = host.CreateVm("vm-a", "alice", 0);
  ASSERT_TRUE(a.ok());
  (*a)->Enqueue({1, 50.0, nullptr});  // needs 0.5s at 100/s
  const auto slices = Advance(host, 0, WeightOne);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_DOUBLE_EQ(slices[0].used, 50.0);
  EXPECT_NEAR(slices[0].used_fraction, 0.05, 1e-12);
}

TEST(PhysicalHostTest, BootingVmExcludedUntilReady) {
  HostSpec spec = TestSpec();
  spec.vm_boot_time = Seconds(30);
  PhysicalHost host(spec);
  auto a = host.CreateVm("vm-a", "alice", 0);
  ASSERT_TRUE(a.ok());
  (*a)->Enqueue({1, 1e9, nullptr});
  EXPECT_TRUE(Advance(host, 0, WeightOne).empty());
  // Once ready, it runs.
  const auto slices = Advance(host, Seconds(30), WeightOne);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_GT(slices[0].used, 0.0);
}

TEST(PhysicalHostTest, UtilizationTracksDeliveredCycles) {
  PhysicalHost host(TestSpec());
  auto a = host.CreateVm("vm-a", "alice", 0);
  ASSERT_TRUE(a.ok());
  (*a)->Enqueue({1, 500.0, nullptr});
  Advance(host, 0, WeightOne);
  // 500 cycles delivered out of 200 * 10 = 2000 offered.
  EXPECT_NEAR(host.Utilization(Seconds(10)), 0.25, 1e-12);
}

TEST(PackageCatalogTest, InstallTimeIncludesDependenciesOnce) {
  PackageCatalog catalog = PackageCatalog::Default();
  std::map<std::string, bool> installed;
  const auto blast_time = catalog.InstallTime("blast", installed);
  ASSERT_TRUE(blast_time.ok());
  EXPECT_TRUE(installed["glibc"]);
  EXPECT_TRUE(installed["perl"]);
  EXPECT_TRUE(installed["blast"]);
  // glibc (30) + perl (40) + blast (120) at 10 MB/s + 3 x 2s overhead.
  EXPECT_EQ(*blast_time, sim::Seconds(19.0 + 6.0));

  // Re-installing on the same VM is free for shared deps.
  const auto python_time = catalog.InstallTime("python", installed);
  ASSERT_TRUE(python_time.ok());
  EXPECT_EQ(*python_time, sim::Seconds(8.0 + 2.0));  // python only
}

TEST(PackageCatalogTest, UnknownPackageFails) {
  PackageCatalog catalog = PackageCatalog::Default();
  std::map<std::string, bool> installed;
  EXPECT_FALSE(catalog.InstallTime("matlab", installed).ok());
}

TEST(PackageCatalogTest, DependencyCycleDetected) {
  PackageCatalog catalog;
  catalog.Add({"a", 1.0, {"b"}});
  catalog.Add({"b", 1.0, {"a"}});
  std::map<std::string, bool> installed;
  const auto status = catalog.InstallTime("a", installed);
  EXPECT_EQ(status.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PackageCatalogTest, HasAndGet) {
  PackageCatalog catalog = PackageCatalog::Default();
  EXPECT_TRUE(catalog.Has("blast"));
  EXPECT_FALSE(catalog.Has("matlab"));
  EXPECT_DOUBLE_EQ(catalog.Get("blast")->size_mb, 120.0);
}

}  // namespace
}  // namespace gm::host
