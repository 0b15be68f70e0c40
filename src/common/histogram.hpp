// Log-scale latency histogram, shared by the wire layer's per-request
// metrics (src/net) and the durability layer's per-operation metrics
// (src/store). Bucket i counts samples whose latency in microseconds has
// bit-width i (i.e. [2^(i-1), 2^i)). 40 buckets cover up to ~12.7 days,
// so nothing ever clips.
//
// Also home of MetricsOf, the constraint every snapshot's metric field
// list uses (see net/metrics.hpp for the codec and renderer built on
// those lists).
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace gems {

struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 40;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::uint64_t max_us = 0;

  void record(std::uint64_t us);

  /// Quantile estimate (q in [0,1]) in microseconds: the upper edge of the
  /// bucket holding the q-th sample. 0 when empty.
  std::uint64_t quantile_us(double q) const;

  double mean_us() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_us) / count;
  }

  /// Merges another histogram into this one.
  void merge(const LatencyHistogram& other);

  bool operator==(const LatencyHistogram&) const = default;
};

/// A metrics snapshot declares its fields once, as
///   template <MetricsOf<Snap> Self, class F>
///   void for_each_metric(Self& s, F&& f)  // f("epoch.live", s.live) ...
/// Self is Snap or const Snap, so one list serves the const walks (encode,
/// render) and the mutable one (decode). Field types are std::uint64_t,
/// std::uint32_t, bool, double or LatencyHistogram.
template <class Self, class Snap>
concept MetricsOf = std::same_as<std::remove_const_t<Self>, Snap>;

}  // namespace gems
