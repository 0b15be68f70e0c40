// Positive runtime tests for gems::sync and the AccessGuard built on it.
// The negative side — code that must NOT compile — lives in
// tests/sync_negative/ and only runs under clang; these tests run under
// every compiler (and are the intended TSan workload for the layer).
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/sync.hpp"
#include "server/access.hpp"

namespace gems {
namespace {

using server::AccessGuard;
using server::ExclusiveAccessLock;

TEST(SyncMutex, GuardsCounterAcrossThreads) {
  sync::Mutex mu;
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        sync::MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  sync::MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SyncMutexLock, EarlyUnlockAndRelock) {
  sync::Mutex mu;
  sync::MutexLock lock(mu);
  lock.unlock();
  EXPECT_TRUE(mu.try_lock());  // provably released
  mu.unlock();
  lock.lock();  // destructor releases the re-acquired hold
}

TEST(SyncCondVar, ExplicitLoopWakesOnNotify) {
  sync::Mutex mu;
  sync::CondVar cv;
  bool ready = false;
  int observed = 0;

  std::thread waiter([&] {
    sync::MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    observed = 1;
  });
  {
    sync::MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_EQ(observed, 1);
}

TEST(SyncCondVar, WaitForReportsTimeout) {
  sync::Mutex mu;
  sync::CondVar cv;
  sync::MutexLock lock(mu);
  // Nobody notifies: the wait must come back with `false` (timed out)
  // and the mutex re-held (destructor unlock would abort otherwise).
  EXPECT_FALSE(cv.wait_for(mu, std::chrono::milliseconds(5)));
}

TEST(SyncCondVar, WaitUntilHonorsDeadline) {
  sync::Mutex mu;
  sync::CondVar cv;
  sync::MutexLock lock(mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_FALSE(cv.wait_until(mu, deadline));
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

TEST(AccessGuardTest, ExclusiveExcludesEverything) {
  AccessGuard guard;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  int inside = 0;  // deliberately unsynchronized: the guard is the lock
  std::atomic<int> violations{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        const ExclusiveAccessLock lock(guard);
        guard.assert_exclusive_held();
        if (++inside != 1) violations.fetch_add(1);
        std::this_thread::yield();
        --inside;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);

  const auto snap = guard.snapshot();
  EXPECT_EQ(snap.exclusive_acquired,
            static_cast<std::uint64_t>(kThreads * kRounds));
}

TEST(AccessGuardTest, AssertExclusiveHeldChecksTheOwner) {
  AccessGuard guard;
  guard.assert_exclusive_held();  // unheld: the single-threaded tooling mode
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread owner([&] {
    const ExclusiveAccessLock lock(guard);
    guard.assert_exclusive_held();  // held by the calling thread
    // A helper task acting for the holder, which waits for it to finish
    // (what plan::run_scheduled does for a parallel level).
    std::thread helper([&guard, holder = std::this_thread::get_id()] {
      const sync::ScopedActingThread acting(holder);
      guard.assert_exclusive_held();
    });
    helper.join();
    held.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!held.load()) std::this_thread::yield();
  // Held by another thread: the assertion must fail, not pass vacuously.
  EXPECT_DEATH(guard.assert_exclusive_held(), "");
  EXPECT_DEATH(
      {
        // Acting for a thread that does not hold the lock changes nothing.
        const sync::ScopedActingThread acting(std::this_thread::get_id());
        guard.assert_exclusive_held();
      },
      "");
  release.store(true);
  owner.join();
  guard.assert_exclusive_held();  // released again
}

TEST(AccessGuardTest, MetricsMeterWaitAndHold) {
  AccessGuard guard;
  {
    const ExclusiveAccessLock lock(guard);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::atomic<bool> held{false};
  std::thread holder([&] {
    const ExclusiveAccessLock lock(guard);
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  while (!held.load()) std::this_thread::yield();
  {
    const ExclusiveAccessLock lock(guard);  // waits out the holder
  }
  holder.join();
  const auto snap = guard.snapshot();
  EXPECT_EQ(snap.exclusive_acquired, 3u);
  EXPECT_GE(snap.exclusive_held_us, 9000u);
  EXPECT_GT(snap.exclusive_wait_us, 0u);
  // No shared mode: the snapshot's shared-side fields stay zero.
  EXPECT_EQ(snap.shared_acquired, 0u);
  EXPECT_EQ(snap.shared_held_us, 0u);
  EXPECT_EQ(snap.peak_concurrent_shared, 0u);
  EXPECT_FALSE(snap.to_string().empty());
}

}  // namespace
}  // namespace gems
