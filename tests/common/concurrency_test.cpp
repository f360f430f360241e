#include "common/concurrency.hpp"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

namespace gm {
namespace {

TEST(MutexTest, LockUnlockTracksHeldCount) {
  Mutex mu("test.mutex", lockrank::kBank);
  EXPECT_EQ(HeldLockCount(), 0);
  {
    MutexLock lock(&mu);
    EXPECT_EQ(HeldLockCount(), 1);
  }
  EXPECT_EQ(HeldLockCount(), 0);
}

TEST(MutexTest, AscendingRankOrderPasses) {
  Mutex low("test.low", lockrank::kBus);
  Mutex mid("test.mid", lockrank::kBank);
  Mutex high("test.high", lockrank::kLogger);
  MutexLock a(&low);
  MutexLock b(&mid);
  MutexLock c(&high);
  EXPECT_EQ(HeldLockCount(), 3);
}

TEST(MutexTest, NonLifoUnlockIsSupported) {
  Mutex a("test.a", lockrank::kSls);
  Mutex b("test.b", lockrank::kStore);
  a.Lock();
  b.Lock();
  a.Unlock();  // release out of acquisition order
  EXPECT_EQ(HeldLockCount(), 1);
  b.Unlock();
  EXPECT_EQ(HeldLockCount(), 0);
}

TEST(MutexRankDeathTest, InversionAbortsWithBothLockNames) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex bank("death.bank.ledger", lockrank::kBank);
        Mutex bus("death.net.bus", lockrank::kBus);
        MutexLock first(&bank);
        // Deliberate inversion. gmlint: allow(lock-order)
        MutexLock second(&bus);  // kBus < kBank
      },
      "death.net.bus.*death.bank.ledger");
}

TEST(MutexRankDeathTest, EqualRankAbortsToo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two metrics-rank locks held together would deadlock a concurrent
  // Merge in the other direction; equal rank is an inversion by rule.
  EXPECT_DEATH(
      {
        Mutex a("death.metric.a", lockrank::kMetric);
        Mutex b("death.metric.b", lockrank::kMetric);
        MutexLock first(&a);
        // Deliberate inversion. gmlint: allow(lock-order)
        MutexLock second(&b);
      },
      "death.metric.b.*death.metric.a");
}

TEST(MutexRankTest, DisabledCheckingAllowsInversion) {
  const bool was = SetLockRankCheckingEnabled(false);
  EXPECT_TRUE(was);  // checking defaults to on
  {
    Mutex high("test.high", lockrank::kBank);
    Mutex low("test.low", lockrank::kBus);
    MutexLock first(&high);
    // Deliberate inversion, tolerated while checking is disabled.
    // gmlint: allow(lock-order)
    MutexLock second(&low);
  }
  EXPECT_FALSE(SetLockRankCheckingEnabled(true));
  EXPECT_TRUE(LockRankCheckingEnabled());
}

TEST(ThreadTest, RunsAndJoinsOnDestruction) {
  std::atomic<int> ran{0};
  {
    Thread t([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 1);
}

TEST(CondVarTest, NotifyWakesWaiter) {
  Mutex mu("test.cv", lockrank::kBank);
  CondVar cv;
  bool ready = false;
  Thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.Join();
  SUCCEED();
}

TEST(ConcurrencyTest, ManyThreadsContendOnOneMutex) {
  Mutex mu("test.contend", lockrank::kBank);
  int counter = 0;
  std::vector<Thread> threads;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  threads.clear();  // join all
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i)
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
  // The pool is reusable after a barrier.
  for (int i = 0; i < 50; ++i)
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 150);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();
  SUCCEED();
}

TEST(ThreadPoolTest, SubmitAndWaitUnderAComponentLock) {
  // The pool's rank is a leaf: a caller holding a component lock (here
  // the reconciler's, as during a federation sweep) may fan work out. The
  // tasks start holding nothing, so they may even take a lock that ranks
  // below the caller's.
  ThreadPool pool(3);
  Mutex outer("test.reconciler", lockrank::kBankReconciler);
  Mutex inner("test.bus", lockrank::kBus);
  std::atomic<int> ran{0};
  {
    MutexLock hold(&outer);
    ParallelFor(&pool, 8, [&](std::size_t) {
      MutexLock lock(&inner);
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, ParallelForWithoutPoolRunsInIndexOrder) {
  std::vector<std::size_t> order;
  ParallelFor(nullptr, 5, [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolDeathTest, WaitIdleFromOwnWorkerAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Submit([&pool] { pool.WaitIdle(); });
        pool.WaitIdle();
      },
      "WaitIdle called from one of its own workers");
}

TEST(LockRankTableTest, AscendingAndMatchingConstants) {
  std::size_t size = 0;
  const LockRankEntry* table = LockRankTable(&size);
  ASSERT_GT(size, 0u);
  // Strictly ascending: the table is the DAG in acquisition order.
  for (std::size_t i = 1; i < size; ++i) {
    EXPECT_LT(table[i - 1].rank, table[i].rank)
        << table[i - 1].name << " vs " << table[i].name;
  }
  // Endpoints pin the table to the lockrank constants.
  EXPECT_STREQ(table[0].name, "kRpcClient");
  EXPECT_EQ(table[0].rank, lockrank::kRpcClient);
  EXPECT_STREQ(table[size - 1].name, "kLogger");
  EXPECT_EQ(table[size - 1].rank, lockrank::kLogger);
}

}  // namespace
}  // namespace gm
