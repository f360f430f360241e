// Statically-checked concurrency primitives.
//
// Every lock in the codebase is a gm::Mutex, annotated with Clang's
// thread-safety capability attributes: under clang, `-Wthread-safety`
// proves at compile time that every access to a GM_GUARDED_BY field
// happens with the right mutex held (promoted to a build break under
// GM_WERROR). Under other compilers the attributes expand to nothing and
// the wrappers cost one virtual-free branch over std::mutex.
//
// On top of the static proof sits a runtime lock-rank registry: every
// Mutex carries a name and a rank (see gm::lockrank), and acquiring a
// mutex whose rank is not strictly greater than every rank already held
// by the thread aborts immediately with both lock stacks printed. Ranks
// order the global acquisition DAG — a rank inversion is a potential
// deadlock even if this particular run got lucky with timing. The check
// runs before the acquisition blocks, so the abort fires instead of the
// deadlock.
//
// gmlint's `raw-threading` rule bans bare std::mutex / std::thread /
// std::lock_guard outside this file, so these wrappers are the only way
// to write concurrent code in the tree.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

// -- Clang thread-safety capability attributes (no-ops elsewhere) --

#if defined(__clang__)
#define GM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GM_THREAD_ANNOTATION(x)
#endif

#define GM_CAPABILITY(x) GM_THREAD_ANNOTATION(capability(x))
#define GM_SCOPED_CAPABILITY GM_THREAD_ANNOTATION(scoped_lockable)
/// Field/variable is protected by the given mutex.
#define GM_GUARDED_BY(x) GM_THREAD_ANNOTATION(guarded_by(x))
/// Pointed-to data is protected by the given mutex.
#define GM_PT_GUARDED_BY(x) GM_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function may only be called with the given mutex(es) held.
#define GM_REQUIRES(...) GM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the mutex and returns with it held.
#define GM_ACQUIRE(...) GM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the mutex.
#define GM_RELEASE(...) GM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function must NOT be called with the given mutex held (re-entry guard).
#define GM_EXCLUDES(...) GM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Escape hatch for externally-serialized paths (recovery callbacks); the
/// justification comment is mandatory at every use site.
#define GM_NO_THREAD_SAFETY_ANALYSIS \
  GM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gm {

// Lock ranks: a thread may only acquire mutexes in strictly increasing
// rank order. The constants encode the global acquisition DAG — e.g. an
// auctioneer tick (kAuctioneer) journals a price (kPriceHistory) into a
// durable store (kStore) whose WAL (kWal) samples an append-latency
// histogram (kMetric), and anything may log (kLogger, the maximum).
// Adding a lock means picking its place in this order, deliberately.
namespace lockrank {
inline constexpr int kSls = 20;
inline constexpr int kAuctioneer = 25;
// Bank federation: the reconciler sweeps shards (and reads the router's
// settlement registry) while holding its own lock, and the router claims
// settlement ids after shard calls return, so reconciler < router < shard.
// Shards journal into stores (kStore) like the central bank does.
inline constexpr int kBankReconciler = 26;
inline constexpr int kBankRouter = 27;
inline constexpr int kBankShard = 28;
inline constexpr int kBank = 30;
inline constexpr int kPriceHistory = 35;
inline constexpr int kStore = 45;
inline constexpr int kWal = 50;
inline constexpr int kMetricsRegistry = 60;
inline constexpr int kMetric = 62;
inline constexpr int kTracer = 65;
// A leaf: workers take it holding nothing and run tasks with it released,
// so a caller may Submit/WaitIdle under any component lock (e.g. the
// reconciler's, while it audits the federation on a lent pool).
inline constexpr int kThreadPool = 68;
inline constexpr int kLogger = 70;
}  // namespace lockrank

/// Annotated mutex with a name and a lock rank. Non-recursive.
class GM_CAPABILITY("mutex") Mutex {
 public:
  Mutex(const char* name, int rank) : name_(name), rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GM_ACQUIRE();
  void Unlock() GM_RELEASE();

  const char* name() const { return name_; }
  int rank() const { return rank_; }

  /// Underlying handle for CondVar only.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
  const char* name_;
  int rank_;
};

/// RAII scoped lock over a gm::Mutex.
class GM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) GM_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() GM_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable usable with gm::Mutex. Wait() must be called with
/// the mutex held; the held-lock bookkeeping treats the waiter as still
/// holding it (the lock is reacquired before Wait returns, and a blocked
/// thread cannot acquire anything else anyway).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) GM_REQUIRES(mu);

  /// Loop-on-predicate wait; `pred` is evaluated with the mutex held.
  template <typename Pred>
  void WaitUntil(Mutex& mu, Pred pred) GM_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Minimal joining thread wrapper (joins on destruction). The only
/// sanctioned way to start an OS thread outside common/concurrency.
class Thread {
 public:
  Thread() = default;
  explicit Thread(std::function<void()> fn) : thread_(std::move(fn)) {}
  Thread(Thread&&) = default;
  Thread& operator=(Thread&& other) {
    Join();
    thread_ = std::move(other.thread_);
    return *this;
  }
  ~Thread() { Join(); }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  bool joinable() const { return thread_.joinable(); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

/// Fixed-size pool of gm::Thread workers draining a task queue. Tasks run
/// with no pool lock held, so they may acquire any component mutex.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);
  /// Block until the queue is empty and every worker is idle. This is a
  /// barrier: after it returns, all effects of submitted tasks
  /// happen-before the caller's next read. Calling it from one of this
  /// pool's own workers is a GM_ASSERT (it would wait on itself).
  void WaitIdle();

  int thread_count() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  mutable Mutex mu_{"common.thread_pool", lockrank::kThreadPool};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ GM_GUARDED_BY(mu_);
  int active_ GM_GUARDED_BY(mu_) = 0;
  bool stop_ GM_GUARDED_BY(mu_) = false;
  std::vector<Thread> workers_;
};

/// Run fn(0) .. fn(n-1): as n tasks on `pool` followed by its WaitIdle
/// barrier, or inline in index order when `pool` is null. Callers that
/// must match the inline result write per-index slots and combine them
/// in index order after the call.
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

// -- Lock-rank registry (debug discipline, on by default) --

/// Toggle the per-thread rank bookkeeping (e.g. off for a microbenchmark
/// that measures raw lock cost). Returns the previous setting.
bool SetLockRankCheckingEnabled(bool enabled);
bool LockRankCheckingEnabled();

/// Number of locks the calling thread currently holds (test hook).
int HeldLockCount();

/// One row of the machine-readable lock-rank DAG: a lockrank constant's
/// name exactly as written in gm::lockrank, and its value.
struct LockRankEntry {
  const char* name;
  int rank;
};

/// The full lock-rank DAG as data, defined in concurrency.cpp next to
/// the runtime registry. gmstatic's lock-order rule cross-checks this
/// table against the gm::lockrank constants, so the static analyzer,
/// runtime diagnostics and documentation can never drift apart.
const LockRankEntry* LockRankTable(std::size_t* size);

}  // namespace gm
