#include "common/sync.hpp"

namespace gems::sync {

namespace {

// Default id: the thread acts for itself.
thread_local std::thread::id t_acting_for{};

}  // namespace

void CondVar::wait(Mutex& mu) {
  // The caller's MutexLock (or annotated lock()) owns the capability; the
  // adopt/release pair below moves the *native* mutex through the wait
  // without ever transferring ownership as far as RAII is concerned.
  std::unique_lock<std::mutex> native(mu.mutex_, std::adopt_lock);
  cv_.wait(native);
  native.release();
}

std::thread::id acting_thread_id() noexcept {
  return t_acting_for == std::thread::id{} ? std::this_thread::get_id()
                                           : t_acting_for;
}

ScopedActingThread::ScopedActingThread(std::thread::id principal) noexcept
    : previous_(t_acting_for) {
  t_acting_for = principal;
}

ScopedActingThread::~ScopedActingThread() { t_acting_for = previous_; }

}  // namespace gems::sync
