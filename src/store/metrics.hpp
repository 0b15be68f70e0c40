// Per-operation metrics for the durability layer: WAL append latency
// (p50/p99 via the shared log-scale histogram), snapshot sizes and write
// times, and recovery replay counts. Reported under the `store.` names of
// the field list below by the net `stats` verb and the shell's `\stats`.
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "common/sync.hpp"

namespace gems::store {

/// Plain-value view of the metrics, safe to read without the lock.
struct StoreMetricsSnapshot {
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  LatencyHistogram wal_append_us;

  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshot_bytes_last = 0;
  LatencyHistogram snapshot_write_us;

  bool recovered = false;
  bool recovered_from_snapshot = false;
  std::uint64_t recovery_snapshot_bytes = 0;
  double recovery_snapshot_seconds = 0.0;
  std::uint64_t recovery_records_applied = 0;
  std::uint64_t recovery_records_skipped = 0;
  std::uint64_t recovery_truncated_bytes = 0;
  double recovery_replay_seconds = 0.0;

  bool operator==(const StoreMetricsSnapshot&) const = default;
};

template <MetricsOf<StoreMetricsSnapshot> Self, class F>
void for_each_metric(Self& s, F&& f) {
  f("store.wal_records", s.wal_records);
  f("store.wal_bytes", s.wal_bytes);
  f("store.wal_append_us", s.wal_append_us);
  f("store.snapshots_written", s.snapshots_written);
  f("store.snapshot_bytes_last", s.snapshot_bytes_last);
  f("store.snapshot_write_us", s.snapshot_write_us);
  f("store.recovered", s.recovered);
  f("store.recovered_from_snapshot", s.recovered_from_snapshot);
  f("store.recovery_snapshot_bytes", s.recovery_snapshot_bytes);
  f("store.recovery_snapshot_seconds", s.recovery_snapshot_seconds);
  f("store.recovery_records_applied", s.recovery_records_applied);
  f("store.recovery_records_skipped", s.recovery_records_skipped);
  f("store.recovery_truncated_bytes", s.recovery_truncated_bytes);
  f("store.recovery_replay_seconds", s.recovery_replay_seconds);
}

/// Thread-safe accumulator. Writers are the Database's statement path
/// (WAL appends) and checkpoint path; readers are the shell/server stats
/// commands, possibly from other threads.
class StoreMetrics {
 public:
  void record_wal_append(std::uint64_t bytes, std::uint64_t us) {
    sync::MutexLock lock(mutex_);
    ++data_.wal_records;
    data_.wal_bytes += bytes;
    data_.wal_append_us.record(us);
  }

  void record_snapshot(std::uint64_t bytes, std::uint64_t us) {
    sync::MutexLock lock(mutex_);
    ++data_.snapshots_written;
    data_.snapshot_bytes_last = bytes;
    data_.snapshot_write_us.record(us);
  }

  void record_recovery(bool from_snapshot, std::uint64_t snapshot_bytes,
                       double snapshot_seconds, std::uint64_t applied,
                       std::uint64_t skipped, std::uint64_t truncated_bytes,
                       double replay_seconds) {
    sync::MutexLock lock(mutex_);
    data_.recovered = true;
    data_.recovered_from_snapshot = from_snapshot;
    data_.recovery_snapshot_bytes = snapshot_bytes;
    data_.recovery_snapshot_seconds = snapshot_seconds;
    data_.recovery_records_applied = applied;
    data_.recovery_records_skipped = skipped;
    data_.recovery_truncated_bytes = truncated_bytes;
    data_.recovery_replay_seconds = replay_seconds;
  }

  StoreMetricsSnapshot snapshot() const {
    sync::MutexLock lock(mutex_);
    return data_;
  }

 private:
  mutable sync::Mutex mutex_;
  StoreMetricsSnapshot data_ GEMS_GUARDED_BY(mutex_);
};

}  // namespace gems::store
