// Virtual machine model (Xen-style paravirtualization, paper Section 2.2).
//
// A VM belongs to one user on one physical host, boots with a latency,
// installs runtime environments, and then executes a FIFO queue of
// CPU-bound work items. CPU is delivered by the host in allocation
// intervals; the VM consumes cycles front-to-back and fires completion
// callbacks with sub-interval-accurate completion times.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/time.hpp"

namespace gm::host {

enum class VmState : std::uint8_t {
  kBooting = 0,
  kProvisioning,  // installing runtime environments
  kReady,         // idle, no queued work
  kRunning,
  kDestroyed,
};

const char* VmStateName(VmState state);

struct WorkItem {
  std::uint64_t id = 0;
  Cycles required = 0;
  /// Called with the (interpolated) simulated completion time.
  std::function<void(sim::SimTime)> on_complete;
};

class VirtualMachine {
 public:
  VirtualMachine(std::string id, std::string owner, sim::SimTime ready_at);

  const std::string& id() const { return id_; }
  const std::string& owner() const { return owner_; }

  /// The owner's account slot in this host's auctioneer, bound once by
  /// the auctioneer that creates the VM. A VM created on the host
  /// directly keeps the all-ones default, market::BidTable::kNoSlot.
  std::uint32_t market_slot() const { return market_slot_; }
  void BindMarketSlot(std::uint32_t slot) { market_slot_ = slot; }

  /// State as of `now` (resolves boot/provisioning deadlines).
  VmState state(sim::SimTime now) const;
  bool Runnable(sim::SimTime now) const;

  /// Extend the not-ready-before deadline (provisioning after boot).
  void ExtendProvisioning(sim::SimDuration extra);
  sim::SimTime ready_at() const { return ready_at_; }

  void MarkRuntimeInstalled(const std::string& name);
  bool HasRuntime(const std::string& name) const;

  void Enqueue(WorkItem item);
  std::size_t queue_length() const { return queue_.size(); }
  bool HasWork() const { return !queue_.empty(); }
  /// Cycles still owed across the whole queue.
  Cycles PendingCycles() const;

  /// Deliver `capacity` cycles/s for `dt` starting at `start`; consumes
  /// queued work, firing completions at interpolated times. Returns the
  /// cycles actually used (< capacity*dt if the queue drains).
  Cycles Advance(sim::SimTime start, sim::SimDuration dt,
                 CyclesPerSecond capacity);

  void Destroy();
  bool destroyed() const { return destroyed_; }

  /// Lifetime accounting.
  Cycles delivered_cycles() const { return delivered_cycles_; }
  std::uint64_t completed_items() const { return completed_items_; }

 private:
  std::string id_;
  std::string owner_;
  std::uint32_t market_slot_ = ~std::uint32_t{0};
  sim::SimTime ready_at_;
  bool provisioning_ = false;
  bool destroyed_ = false;
  std::set<std::string> runtimes_;
  std::deque<WorkItem> queue_;
  Cycles front_progress_ = 0;
  Cycles delivered_cycles_ = 0;
  std::uint64_t completed_items_ = 0;
};

}  // namespace gm::host
