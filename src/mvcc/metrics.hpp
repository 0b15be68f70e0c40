// Epoch lifecycle counters (gems::mvcc), exposed through
// Database::epoch_metrics() and, under the `epoch.` names of the field
// list below, the net `stats` verb and the shell's `\stats`. Small
// standalone header so src/net can embed a snapshot in its
// MetricsSnapshot without pulling in the epoch machinery.
#pragma once

#include <cstdint>

#include "common/histogram.hpp"

namespace gems::mvcc {

struct EpochMetricsSnapshot {
  std::uint64_t published = 0;       // epochs made current
  std::uint64_t retired = 0;         // superseded while still pinned
  std::uint64_t freed = 0;           // retired epochs whose pins drained
  std::uint64_t live = 0;            // current + still-pinned retired
  std::uint64_t pins_taken = 0;      // EpochPins ever handed out
  std::uint64_t pinned_readers = 0;  // pins currently outstanding
  std::uint64_t peak_pinned_readers = 0;
  std::uint64_t oldest_pin_age_us = 0;  // age of the longest-held pin
  std::uint64_t delta_ingests = 0;      // incremental CSR maintenance runs
  std::uint64_t full_rebuilds = 0;      // fallback full graph rebuilds
  std::uint64_t delta_build_ns = 0;     // total ns in delta maintenance
  std::uint64_t rebuild_ns = 0;         // total ns in fallback rebuilds
  std::uint64_t current_epoch = 0;      // id of the current epoch

  bool operator==(const EpochMetricsSnapshot&) const = default;
};

template <MetricsOf<EpochMetricsSnapshot> Self, class F>
void for_each_metric(Self& s, F&& f) {
  f("epoch.published", s.published);
  f("epoch.retired", s.retired);
  f("epoch.freed", s.freed);
  f("epoch.live", s.live);
  f("epoch.pins_taken", s.pins_taken);
  f("epoch.pinned_readers", s.pinned_readers);
  f("epoch.peak_pinned_readers", s.peak_pinned_readers);
  f("epoch.oldest_pin_age_us", s.oldest_pin_age_us);
  f("epoch.delta_ingests", s.delta_ingests);
  f("epoch.full_rebuilds", s.full_rebuilds);
  f("epoch.delta_build_ns", s.delta_build_ns);
  f("epoch.rebuild_ns", s.rebuild_ns);
  f("epoch.current_epoch", s.current_epoch);
}

}  // namespace gems::mvcc
