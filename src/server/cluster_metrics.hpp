// Cluster observability snapshot: per-rank BSP communication counters the
// coordinator accumulates from rank kJobDone reports (src/cluster), plus
// coordinator-side job/sync totals. Lives in server/ (not cluster/) so the
// net layer can ship it through the stats verb without depending on the
// cluster subsystem — net already links server.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"

namespace gems::server {

struct ClusterRankMetrics {
  bool connected = false;
  std::uint64_t jobs = 0;           // distributed matches this rank ran
  std::uint64_t messages = 0;       // BSP messages sent (excl. self-sends)
  std::uint64_t payload_bytes = 0;  // BSP payload bytes (sim-comparable)
  std::uint64_t wire_bytes = 0;     // frame bytes incl. headers
  std::uint64_t supersteps = 0;     // counted on rank 0 only
  std::uint64_t stall_us = 0;       // blocked waiting on the wire

  bool operator==(const ClusterRankMetrics&) const = default;
};

/// Field names within one rank; the cluster list below qualifies them as
/// `cluster.rank.<r>.<name>`.
template <MetricsOf<ClusterRankMetrics> Self, class F>
void for_each_metric(Self& s, F&& f) {
  f("connected", s.connected);
  f("jobs", s.jobs);
  f("messages", s.messages);
  f("payload_bytes", s.payload_bytes);
  f("wire_bytes", s.wire_bytes);
  f("supersteps", s.supersteps);
  f("stall_us", s.stall_us);
}

struct ClusterMetricsSnapshot {
  std::uint32_t num_ranks = 0;  // 0 = no cluster attached
  std::uint64_t jobs = 0;       // distributed matches completed
  std::uint64_t fallbacks = 0;  // networks declined (ran locally)
  std::uint64_t syncs = 0;      // state images shipped to ranks
  std::uint64_t sync_bytes = 0;
  std::vector<ClusterRankMetrics> ranks;  // one per rank, num_ranks long

  bool operator==(const ClusterMetricsSnapshot&) const = default;
};

inline constexpr std::string_view kClusterRankPrefix = "cluster.rank.";

template <MetricsOf<ClusterMetricsSnapshot> Self, class F>
void for_each_metric(Self& s, F&& f) {
  f("cluster.num_ranks", s.num_ranks);
  f("cluster.jobs", s.jobs);
  f("cluster.fallbacks", s.fallbacks);
  f("cluster.syncs", s.syncs);
  f("cluster.sync_bytes", s.sync_bytes);
  for (std::size_t r = 0; r < s.ranks.size(); ++r) {
    const std::string prefix =
        std::string(kClusterRankPrefix) + std::to_string(r) + ".";
    for_each_metric(s.ranks[r], [&](std::string_view name, auto& field) {
      f(prefix + std::string(name), field);
    });
  }
}

}  // namespace gems::server
