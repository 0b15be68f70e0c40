// The database's writer lock: mutating scripts, the catalog fold of a
// read-only script's `into` results, and checkpoint capture windows take
// brief *exclusive* access. Read-only scripts never touch it — they pin
// an immutable gems::mvcc epoch and execute against a script-local copy
// of its context (DESIGN.md §5g).
//
// The guard meters itself: acquisition count, time spent blocked waiting
// for the lock and time spent holding it. Those counters surface in
// Database metrics, the net `stats` verb, and the shell's `\accessstats`.
//
// Lock order (see DESIGN.md §5j): the access guard is always the
// *outermost* database lock; `stats_mutex_` and `wal_mutex_` are only
// ever taken while it is held, and never the other way around. That
// order is encoded with GEMS_ACQUIRED_BEFORE in database.hpp so clang's
// thread safety analysis rejects inversions at compile time.
//
// AccessGuard itself is a GEMS_CAPABILITY: members the guard protects
// can be declared GEMS_GUARDED_BY(access_), functions that require it
// held GEMS_REQUIRES(access_). Acquisition goes through the scoped
// holder ExclusiveAccessLock — there is no movable hold object, because
// the analysis cannot track capabilities through moves.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "common/sync.hpp"

namespace gems::server {

/// Point-in-time view of the guard's counters. All durations are
/// microseconds, aggregated since database open.
///
/// The shared-side fields (shared_acquired, shared_wait_us,
/// shared_held_us, peak_concurrent_shared) are always 0: the guard has no
/// shared mode any more. They stay so the snapshot type and the `kStats`
/// wire block keep their layout; read concurrency shows in the epoch
/// block (mvcc::EpochMetricsSnapshot::pins_taken, peak_pinned_readers).
struct AccessMetricsSnapshot {
  std::uint64_t shared_acquired = 0;
  std::uint64_t exclusive_acquired = 0;
  std::uint64_t shared_wait_us = 0;
  std::uint64_t exclusive_wait_us = 0;  // total time blocked acquiring
  std::uint64_t shared_held_us = 0;
  std::uint64_t exclusive_held_us = 0;  // total time held
  std::uint64_t peak_concurrent_shared = 0;

  /// Human-readable `\accessstats` rendering.
  std::string to_string() const;
};

/// An exclusive lock with wait/hold-time accounting and owner tracking.
/// Counter updates are relaxed atomics: they order nothing, they only
/// have to add up.
class GEMS_CAPABILITY("AccessGuard") AccessGuard {
 public:
  using Clock = std::chrono::steady_clock;

  AccessGuard() = default;
  AccessGuard(const AccessGuard&) = delete;
  AccessGuard& operator=(const AccessGuard&) = delete;

  /// Blocks until sole access is granted. Prefer ExclusiveAccessLock.
  void lock() GEMS_ACQUIRE();
  void unlock() GEMS_RELEASE();

  /// Runtime-verified assertion that the caller has sole use of the
  /// guarded state: either the calling thread holds the lock — directly,
  /// or as a statement-pool task acting for the holder
  /// (sync::ScopedActingThread, set by plan::run_scheduled) — or nobody
  /// does (the documented single-threaded tooling mode that drives
  /// `Database::context()` directly). Held by any other thread fails. For
  /// closures (the live context's planner hook) that run under exclusive
  /// access but where the analysis cannot see the caller's capability
  /// across the std::function boundary.
  void assert_exclusive_held() const GEMS_ASSERT_CAPABILITY(this);

  AccessMetricsSnapshot snapshot() const;

 private:
  mutable sync::Mutex mutex_;
  sync::CondVar cv_;
  std::thread::id owner_ GEMS_GUARDED_BY(mutex_){};  // default id: unheld
  Clock::time_point acquired_at_ GEMS_GUARDED_BY(mutex_){};

  std::atomic<std::uint64_t> acquired_{0};
  std::atomic<std::uint64_t> wait_us_{0};
  std::atomic<std::uint64_t> held_us_{0};
};

/// Scoped exclusive hold on an AccessGuard.
class GEMS_SCOPED_CAPABILITY [[nodiscard]] ExclusiveAccessLock {
 public:
  explicit ExclusiveAccessLock(AccessGuard& guard) GEMS_ACQUIRE(guard)
      : guard_(guard) {
    guard_.lock();
  }
  ~ExclusiveAccessLock() GEMS_RELEASE() { guard_.unlock(); }

  ExclusiveAccessLock(const ExclusiveAccessLock&) = delete;
  ExclusiveAccessLock& operator=(const ExclusiveAccessLock&) = delete;

 private:
  AccessGuard& guard_;
};

}  // namespace gems::server
