#include "net/metrics.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <limits>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <variant>

namespace gems::net {

std::string verb_metric_prefix(Verb verb) {
  std::string prefix = "net." + std::string(verb_name(verb)) + ".";
  for (char& c : prefix) {
    if (c == '-') c = '_';
  }
  return prefix;
}

VerbMetrics MetricsSnapshot::total() const {
  VerbMetrics t;
  for (const auto& v : verbs) {
    t.requests += v.requests;
    t.ok += v.ok;
    t.errors += v.errors;
    t.overloaded += v.overloaded;
    t.expired += v.expired;
    t.cancelled += v.cancelled;
    t.bytes_in += v.bytes_in;
    t.bytes_out += v.bytes_out;
    t.queue_wait.merge(v.queue_wait);
    t.execute.merge(v.execute);
  }
  return t;
}

MetricsSnapshot database_metrics(const server::Database& db) {
  MetricsSnapshot snap;
  snap.access = db.access_metrics();
  snap.cluster = db.cluster_metrics();
  snap.epoch = db.epoch_metrics();
  snap.store = db.store_metrics();
  snap.matcher = db.match_metrics();
  return snap;
}

namespace {

enum class MetricKind : std::uint8_t { kU64 = 0, kF64 = 1, kHistogram = 2 };

/// u32 and bool fields travel as u64.
template <class T>
constexpr MetricKind kind_of() {
  if constexpr (std::is_same_v<T, LatencyHistogram>) {
    return MetricKind::kHistogram;
  } else if constexpr (std::is_same_v<T, double>) {
    return MetricKind::kF64;
  } else {
    return MetricKind::kU64;
  }
}

/// Decoder bound on `cluster.rank.<r>.*` indexes besides
/// `cluster.num_ranks`, which is peer-supplied too.
constexpr std::size_t kMaxRanks = 4096;

/// One field of the snapshot being decoded.
using Slot = std::variant<std::uint64_t*, std::uint32_t*, bool*, double*,
                          LatencyHistogram*>;

template <class T>
void encode_value(ByteWriter& w, const T& field) {
  w.u8(static_cast<std::uint8_t>(kind_of<T>()));
  if constexpr (std::is_same_v<T, LatencyHistogram>) {
    w.u64(field.count);
    w.u64(field.sum_us);
    w.u64(field.max_us);
    w.u32(static_cast<std::uint32_t>(LatencyHistogram::kBuckets));
    for (const std::uint64_t b : field.buckets) w.u64(b);
  } else if constexpr (std::is_same_v<T, double>) {
    w.u64(std::bit_cast<std::uint64_t>(field));
  } else {
    w.u64(static_cast<std::uint64_t>(field));
  }
}

/// Reads the value of a sample of `kind` into `field`, whose type must
/// carry that kind.
template <class T>
Status decode_value(ByteReader& r, MetricKind kind, T& field,
                    const std::string& name, std::size_t at) {
  if (kind != kind_of<T>()) return r.error("metric " + name + " kind", at);
  if constexpr (std::is_same_v<T, LatencyHistogram>) {
    GEMS_ASSIGN_OR_RETURN(field.count, r.u64());
    GEMS_ASSIGN_OR_RETURN(field.sum_us, r.u64());
    GEMS_ASSIGN_OR_RETURN(field.max_us, r.u64());
    GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("histogram buckets", 8));
    for (std::uint32_t i = 0; i < n; ++i) {
      GEMS_ASSIGN_OR_RETURN(std::uint64_t b, r.u64());
      // Tolerate a peer with more/fewer buckets: clamp into ours.
      field.buckets[std::min<std::size_t>(i, LatencyHistogram::kBuckets - 1)] +=
          b;
    }
  } else {
    GEMS_ASSIGN_OR_RETURN(std::uint64_t bits, r.u64());
    if constexpr (std::is_same_v<T, double>) {
      field = std::bit_cast<double>(bits);
    } else if constexpr (std::is_same_v<T, bool>) {
      field = bits != 0;
    } else {
      if (bits > std::numeric_limits<T>::max()) {
        return r.error("metric " + name + " out of range", at);
      }
      field = static_cast<T>(bits);
    }
  }
  return Status::ok();
}

/// `cluster.rank.<r>.<field>`: checks r against `cluster.num_ranks` (which
/// the encoder sends first) and kMaxRanks, grows the rank vector to hold
/// it, and returns the field — no slot for an unknown field name.
Result<std::optional<Slot>> rank_slot(server::ClusterMetricsSnapshot& cluster,
                                      std::string_view name,
                                      const ByteReader& reader,
                                      std::size_t at) {
  name.remove_prefix(server::kClusterRankPrefix.size());
  const char* const last = name.data() + name.size();
  std::size_t r = 0;
  const auto [dot, ec] = std::from_chars(name.data(), last, r);
  if (ec == std::errc::invalid_argument || dot == last || *dot != '.') {
    return std::optional<Slot>{};
  }
  if (ec != std::errc{} ||
      r >= std::min<std::size_t>(cluster.num_ranks, kMaxRanks)) {
    return reader.error("cluster rank index " +
                            std::string(name.data(), dot) +
                            " out of range (cluster.num_ranks " +
                            std::to_string(cluster.num_ranks) + ", cap " +
                            std::to_string(kMaxRanks) + ")",
                        at);
  }
  if (r >= cluster.ranks.size()) cluster.ranks.resize(r + 1);
  const std::string_view field_name(dot + 1, last);
  std::optional<Slot> slot;
  for_each_metric(cluster.ranks[r], [&](std::string_view n, auto& field) {
    if (n == field_name) slot = &field;
  });
  return slot;
}

}  // namespace

void encode_metrics(const MetricsSnapshot& snap,
                    std::vector<std::uint8_t>& out) {
  std::uint32_t n = 0;
  for_each_metric(snap, [&](std::string_view, const auto&) { ++n; });
  ByteWriter w;
  w.u32(n);
  for_each_metric(snap, [&](std::string_view name, const auto& field) {
    w.str(name);
    encode_value(w, field);
  });
  out.insert(out.end(), w.buffer().begin(), w.buffer().end());
}

Result<MetricsSnapshot> decode_metrics(std::span<const std::uint8_t> bytes) {
  MetricsSnapshot snap;
  // Every fixed field by name. Rank fields are resolved per sample: the
  // rank vector is still empty here and grows as rank samples arrive.
  std::unordered_map<std::string, Slot> slots;
  for_each_metric(snap, [&](std::string_view name, auto& field) {
    slots.emplace(name, &field);
  });
  ByteReader r(bytes, "stats");
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("metric samples"));
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t at = r.position();
    GEMS_ASSIGN_OR_RETURN(std::string name, r.str("metric name"));
    GEMS_ASSIGN_OR_RETURN(std::uint8_t kind_byte, r.u8("metric kind"));
    const auto kind = static_cast<MetricKind>(kind_byte);
    if (kind_byte > static_cast<std::uint8_t>(MetricKind::kHistogram)) {
      return r.error("unknown metric kind " + std::to_string(kind_byte), at);
    }
    std::optional<Slot> slot;
    if (const auto it = slots.find(name); it != slots.end()) {
      slot = it->second;
    } else if (name.starts_with(server::kClusterRankPrefix)) {
      GEMS_ASSIGN_OR_RETURN(slot, rank_slot(snap.cluster, name, r, at));
    }
    // An unknown name still has to be read past: into a scratch field of
    // the sample's own kind.
    std::uint64_t u64_scratch = 0;
    double f64_scratch = 0;
    LatencyHistogram histogram_scratch;
    if (!slot) {
      slot = kind == MetricKind::kU64   ? Slot(&u64_scratch)
             : kind == MetricKind::kF64 ? Slot(&f64_scratch)
                                        : Slot(&histogram_scratch);
    }
    GEMS_RETURN_IF_ERROR(std::visit(
        [&](auto* field) { return decode_value(r, kind, *field, name, at); },
        *slot));
  }
  if (!r.at_end()) {
    return r.error(std::to_string(r.remaining()) + " trailing bytes",
                   r.position());
  }
  return snap;
}

std::string render(const MetricsSnapshot& snap, std::string_view prefix) {
  std::string out;
  for_each_metric(snap, [&](std::string_view name, const auto& field) {
    using T = std::remove_cvref_t<decltype(field)>;
    if (!name.starts_with(prefix)) return;
    char value[96];
    if constexpr (std::is_same_v<T, LatencyHistogram>) {
      if (field.count == 0) return;
      std::snprintf(value, sizeof(value), "%llu/%llu/%llu/%llu",
                    static_cast<unsigned long long>(field.count),
                    static_cast<unsigned long long>(field.quantile_us(0.5)),
                    static_cast<unsigned long long>(field.quantile_us(0.99)),
                    static_cast<unsigned long long>(field.max_us));
    } else if constexpr (std::is_same_v<T, double>) {
      if (field == 0.0) return;
      std::snprintf(value, sizeof(value), "%g", field);
    } else {
      if (field == 0) return;
      std::snprintf(value, sizeof(value), "%llu",
                    static_cast<unsigned long long>(field));
    }
    out.append(name).append(" ").append(value).append("\n");
  });
  return out;
}

void MetricsRegistry::record(Verb verb, const Outcome& outcome) {
  sync::MutexLock lock(mutex_);
  VerbMetrics& v = state_.verbs[static_cast<std::size_t>(verb)];
  ++v.requests;
  switch (outcome.code) {
    case StatusCode::kOk:
      ++v.ok;
      break;
    case StatusCode::kOverloaded:
      ++v.overloaded;
      break;
    case StatusCode::kDeadlineExceeded:
      ++v.expired;
      break;
    case StatusCode::kCancelled:
      ++v.cancelled;
      break;
    default:
      ++v.errors;
      break;
  }
  v.bytes_in += outcome.bytes_in;
  v.bytes_out += outcome.bytes_out;
  if (outcome.code == StatusCode::kOk ||
      outcome.code == StatusCode::kDeadlineExceeded ||
      outcome.code == StatusCode::kCancelled) {
    v.queue_wait.record(outcome.queue_wait_us);
  }
  if (outcome.code == StatusCode::kOk) v.execute.record(outcome.execute_us);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  sync::MutexLock lock(mutex_);
  return state_;
}

}  // namespace gems::net
