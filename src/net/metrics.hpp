// Per-request server metrics (request counters by verb and outcome, bytes
// in/out, and latency histograms split into queue-wait vs. execute time),
// and the one aggregate of every metrics block the system keeps. A
// snapshot travels over the wire in response to a `stats` request, so a
// remote bench can report *server-side* tail latency rather than inferring
// it from client round-trips.
//
// Every snapshot struct declares its metrics once, in a `for_each_metric`
// field list beside it (see MetricsOf in common/histogram.hpp). The wire
// codec and the renderer below are written once over those lists; the
// recording paths never touch them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/histogram.hpp"
#include "common/sync.hpp"
#include "exec/matcher.hpp"
#include "mvcc/metrics.hpp"
#include "net/wire.hpp"
#include "server/access.hpp"
#include "server/cluster_metrics.hpp"
#include "store/metrics.hpp"

namespace gems::net {

/// The log-scale latency histogram now lives in common/histogram.hpp so
/// the durability layer (src/store) can meter with the same type; this
/// alias keeps the wire layer's established spelling.
using LatencyHistogram = ::gems::LatencyHistogram;

/// Counters for one request verb.
struct VerbMetrics {
  std::uint64_t requests = 0;   // everything that arrived, any outcome
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;     // non-OK statuses other than the two below
  std::uint64_t overloaded = 0; // rejected by admission control
  std::uint64_t expired = 0;    // deadline passed before execution
  std::uint64_t cancelled = 0;
  std::uint64_t bytes_in = 0;   // request frame bytes (header + payload)
  std::uint64_t bytes_out = 0;  // response frame bytes
  LatencyHistogram queue_wait;  // enqueue -> dequeue
  LatencyHistogram execute;     // dequeue -> response written

  bool operator==(const VerbMetrics&) const = default;
};

/// Field names within one verb; the snapshot list below qualifies them as
/// `net.<verb>.<name>`.
template <MetricsOf<VerbMetrics> Self, class F>
void for_each_metric(Self& s, F&& f) {
  f("requests", s.requests);
  f("ok", s.ok);
  f("errors", s.errors);
  f("overloaded", s.overloaded);
  f("expired", s.expired);
  f("cancelled", s.cancelled);
  f("bytes_in", s.bytes_in);
  f("bytes_out", s.bytes_out);
  f("queue_wait_us", s.queue_wait);
  f("execute_us", s.execute);
}

/// `net.<verb>.` with the verb's wire name, '-' spelled '_'
/// (`net.run_script.`).
std::string verb_metric_prefix(Verb verb);

/// Copyable point-in-time view of every metrics block; also the wire
/// payload of a `stats` response. The server fills `verbs` from its
/// registry; database_metrics() fills the rest.
struct MetricsSnapshot {
  std::array<VerbMetrics, kNumVerbs> verbs{};
  /// Database writer-lock counters; read concurrency shows in `epoch`.
  server::AccessMetricsSnapshot access{};
  /// Per-rank BSP traffic; num_ranks == 0 when no cluster is attached.
  server::ClusterMetricsSnapshot cluster{};
  /// gems::mvcc epoch lifecycle (publish/pin/retire, delta vs. rebuild).
  mvcc::EpochMetricsSnapshot epoch{};
  /// gems::store durability (zero for an in-memory database).
  store::StoreMetricsSnapshot store{};
  /// Matcher fixpoint and parallel-task activity.
  exec::MatcherMetricsSnapshot matcher{};

  const VerbMetrics& verb(Verb v) const {
    return verbs[static_cast<std::size_t>(v)];
  }

  /// Aggregate over all verbs.
  VerbMetrics total() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

template <MetricsOf<MetricsSnapshot> Self, class F>
void for_each_metric(Self& s, F&& f) {
  for (std::size_t i = 0; i < kNumVerbs; ++i) {
    const std::string prefix = verb_metric_prefix(static_cast<Verb>(i));
    for_each_metric(s.verbs[i], [&](std::string_view name, auto& field) {
      f(prefix + std::string(name), field);
    });
  }
  for_each_metric(s.access, f);
  for_each_metric(s.cluster, f);
  for_each_metric(s.epoch, f);
  for_each_metric(s.store, f);
  for_each_metric(s.matcher, f);
}

/// The database's five blocks (everything but `verbs`). The server's
/// `stats` answer and the shell's local `\stats` are both built on it.
MetricsSnapshot database_metrics(const server::Database& db);

/// The `stats` payload: a u32 sample count, then per field of the lists
/// above a `(name, kind, value)` sample — kind u64 (also u32 and bool
/// fields), f64, or histogram (count, sum, max, bucket list).
void encode_metrics(const MetricsSnapshot& snap,
                    std::vector<std::uint8_t>& out);

/// Fills a snapshot by sample name; unknown names are skipped, so a newer
/// peer's extra metrics decode. Counts and lengths are checked against
/// the remaining bytes, and cluster rank indexes against
/// `cluster.num_ranks` (sent before the ranks) and a fixed cap, before
/// anything is allocated; errors carry the byte offset of the offending
/// sample.
Result<MetricsSnapshot> decode_metrics(std::span<const std::uint8_t> bytes);

/// One `name value` line per metric whose name starts with `prefix`.
/// Histograms print as `count/p50/p99/max` (microseconds). Zero values and
/// empty histograms are skipped, so absent subsystems print nothing.
std::string render(const MetricsSnapshot& snap, std::string_view prefix = {});

/// Thread-safe registry the server records into. One mutex is plenty: a
/// record is a dozen integer adds, far below the cost of the request it
/// describes.
class MetricsRegistry {
 public:
  struct Outcome {
    StatusCode code = StatusCode::kOk;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t queue_wait_us = 0;
    std::uint64_t execute_us = 0;
  };

  void record(Verb verb, const Outcome& outcome);

  MetricsSnapshot snapshot() const;

 private:
  mutable sync::Mutex mutex_;
  MetricsSnapshot state_ GEMS_GUARDED_BY(mutex_);
};

}  // namespace gems::net
