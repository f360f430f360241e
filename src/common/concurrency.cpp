#include "common/concurrency.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/status.hpp"

namespace gm {
namespace {

struct HeldLock {
  const Mutex* mu;
  const char* name;
  int rank;
};

// Per-thread stack of locks currently held, in acquisition order. The
// vector is tiny (lock chains in this codebase are <= 6 deep) and only
// touched by its own thread, so the bookkeeping is a few nanoseconds.
thread_local std::vector<HeldLock> held_locks;

std::atomic<bool> checking_enabled{true};

// The pool whose WorkerLoop runs on this thread, if any.
thread_local const ThreadPool* current_pool = nullptr;

[[noreturn]] void DieOnRankInversion(const Mutex& acquiring) {
  std::fprintf(stderr,
               "gm::Mutex lock-rank inversion: acquiring '%s' (rank %d)\n"
               "while the thread already holds, in acquisition order:\n",
               acquiring.name(), acquiring.rank());
  for (const HeldLock& held : held_locks) {
    std::fprintf(stderr, "  '%s' (rank %d)%s\n", held.name, held.rank,
                 held.rank >= acquiring.rank() ? "   <-- conflicts" : "");
  }
  std::fprintf(stderr,
               "locks must be acquired in strictly increasing rank order"
               " (see gm::lockrank in common/concurrency.hpp)\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace

bool SetLockRankCheckingEnabled(bool enabled) {
  return checking_enabled.exchange(enabled, std::memory_order_relaxed);
}

bool LockRankCheckingEnabled() {
  return checking_enabled.load(std::memory_order_relaxed);
}

int HeldLockCount() { return static_cast<int>(held_locks.size()); }

// The lock-rank DAG as data, one row per gm::lockrank constant in
// ascending rank order. Names must match the constants verbatim —
// gmstatic's lock-order rule fails the build when this table and the
// lockrank namespace drift apart.
constexpr LockRankEntry kLockRankTable[] = {
    {"kRpcClient", lockrank::kRpcClient},
    {"kRpcServer", lockrank::kRpcServer},
    {"kBus", lockrank::kBus},
    {"kSls", lockrank::kSls},
    {"kAuctioneer", lockrank::kAuctioneer},
    {"kBankReconciler", lockrank::kBankReconciler},
    {"kBankRouter", lockrank::kBankRouter},
    {"kBankShard", lockrank::kBankShard},
    {"kBank", lockrank::kBank},
    {"kPriceHistory", lockrank::kPriceHistory},
    {"kStore", lockrank::kStore},
    {"kWal", lockrank::kWal},
    {"kMetricsRegistry", lockrank::kMetricsRegistry},
    {"kMetric", lockrank::kMetric},
    {"kTracer", lockrank::kTracer},
    {"kThreadPool", lockrank::kThreadPool},
    {"kLogger", lockrank::kLogger},
};

const LockRankEntry* LockRankTable(std::size_t* size) {
  *size = sizeof(kLockRankTable) / sizeof(kLockRankTable[0]);
  return kLockRankTable;
}

void Mutex::Lock() {
  const bool checking = checking_enabled.load(std::memory_order_relaxed);
  if (checking) {
    // The abort must fire before we block on mu_: aborting with both
    // stacks printed beats deadlocking with neither.
    for (const HeldLock& held : held_locks) {
      if (held.rank >= rank_) DieOnRankInversion(*this);
    }
  }
  mu_.lock();
  if (checking) held_locks.push_back({this, name_, rank_});
}

void Mutex::Unlock() {
  if (checking_enabled.load(std::memory_order_relaxed)) {
    // Erase the newest record for this mutex. Scanning backwards keeps
    // non-LIFO unlock orders correct (MutexLock is LIFO, but manual
    // Lock/Unlock pairs need not be).
    for (auto it = held_locks.rbegin(); it != held_locks.rend(); ++it) {
      if (it->mu == this) {
        held_locks.erase(std::next(it).base());
        break;
      }
    }
  }
  mu_.unlock();
}

void CondVar::Wait(Mutex& mu) {
  // Adopt the already-held native mutex so condition_variable can release
  // and reacquire it; release() hands ownership back without unlocking.
  // The held-lock record for `mu` intentionally stays in place: a thread
  // blocked in Wait holds no *new* locks, and on wakeup it once again
  // genuinely holds `mu`.
  std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
  cv_.wait(native);
  native.release();
}

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  workers_.clear();  // gm::Thread joins on destruction
}

void ThreadPool::Submit(std::function<void()> task) {
  GM_ASSERT(task != nullptr, "null pool task");
  {
    MutexLock lock(&mu_);
    GM_ASSERT(!stop_, "submit on stopped pool");
    queue_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  GM_ASSERT(current_pool != this,
            "ThreadPool::WaitIdle called from one of its own workers");
  MutexLock lock(&mu_);
  while (!queue_.empty() || active_ > 0) idle_cv_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  mu_.Lock();
  for (;;) {
    while (!stop_ && queue_.empty()) work_cv_.Wait(mu_);
    if (queue_.empty()) break;  // stop requested and nothing left to drain
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    mu_.Unlock();
    // The task runs with no pool lock held: it may take any component
    // mutex.
    task();
    mu_.Lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.NotifyAll();
  }
  mu_.Unlock();
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) pool->Submit([&fn, i] { fn(i); });
  pool->WaitIdle();
}

}  // namespace gm
