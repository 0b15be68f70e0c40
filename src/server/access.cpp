#include "server/access.hpp"

#include <sstream>

#include "common/check.hpp"

namespace gems::server {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

std::string AccessMetricsSnapshot::to_string() const {
  auto avg = [](std::uint64_t total_us, std::uint64_t n) {
    return n == 0 ? 0ull : total_us / n;
  };
  std::ostringstream out;
  out << "access  exclusive: " << exclusive_acquired
      << " acquisitions, avg wait "
      << avg(exclusive_wait_us, exclusive_acquired) << " us, avg hold "
      << avg(exclusive_held_us, exclusive_acquired) << " us\n";
  return out.str();
}

void AccessGuard::lock() {
  const Clock::time_point requested = Clock::now();
  {
    sync::MutexLock lk(mutex_);
    while (owner_ != std::thread::id{}) cv_.wait(mutex_);
    owner_ = std::this_thread::get_id();
    acquired_at_ = Clock::now();
    wait_us_.fetch_add(elapsed_us(requested, acquired_at_),
                       std::memory_order_relaxed);
  }
  acquired_.fetch_add(1, std::memory_order_relaxed);
}

void AccessGuard::unlock() {
  {
    sync::MutexLock lk(mutex_);
    held_us_.fetch_add(elapsed_us(acquired_at_, Clock::now()),
                       std::memory_order_relaxed);
    owner_ = std::thread::id{};
  }
  cv_.notify_one();
}

void AccessGuard::assert_exclusive_held() const {
  sync::MutexLock lk(mutex_);
  // Unheld covers single-threaded tooling that drives the live context
  // without going through the guard; a hold by a thread the caller does
  // not act for means the caller races that writer.
  GEMS_CHECK(owner_ == std::thread::id{} ||
             owner_ == sync::acting_thread_id());
}

AccessMetricsSnapshot AccessGuard::snapshot() const {
  AccessMetricsSnapshot snap;
  snap.exclusive_acquired = acquired_.load(std::memory_order_relaxed);
  snap.exclusive_wait_us = wait_us_.load(std::memory_order_relaxed);
  snap.exclusive_held_us = held_us_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace gems::server
