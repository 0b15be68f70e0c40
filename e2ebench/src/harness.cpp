#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include <sys/resource.h>


namespace e2e {

// ---- Seeded choices ------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) { return next() % bound; }

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return rng.next();
}

std::vector<std::size_t> shuffled_deck(std::size_t n, Rng& rng) {
  std::vector<std::size_t> deck(n);
  for (std::size_t i = 0; i < n; ++i) deck[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(deck[i - 1], deck[rng.below(i)]);
  }
  return deck;
}

// ---- Latency summaries ---------------------------------------------------

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // The epsilon keeps q * n exact for products like 0.9 * 100 that binary
  // floating point rounds just above an integer.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

Tail tail_of_sorted(const std::vector<double>& sorted) {
  static constexpr double kLadder[] = {0.5,  0.75,  0.9,   0.95,
                                       0.99, 0.999, 0.9999};
  Tail tail;
  if (sorted.empty()) return tail;
  for (const double q : kLadder) {
    const std::size_t beyond = sorted.size() - nearest_rank(sorted.size(), q);
    if (beyond < 10 && q != 0.5) break;
    tail.quantile = q;
    tail.value = percentile_sorted(sorted, q);
    tail.beyond = beyond;
  }
  return tail;
}

Tail tail_at_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return Tail{};
  const std::size_t beyond = sorted.size() - nearest_rank(sorted.size(), q);
  if (beyond < 10) return tail_of_sorted(sorted);
  return Tail{q, percentile_sorted(sorted, q), beyond};
}

LatencySummary summarize(std::vector<double> samples, double tail_q) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 0.5);
  s.tail = tail_at_sorted(samples, tail_q);
  return s;
}

double median_of_kind_p50s(const std::vector<std::vector<double>>& by_kind) {
  std::vector<double> p50s;
  for (std::vector<double> kind : by_kind) {
    if (kind.empty()) continue;
    std::sort(kind.begin(), kind.end());
    p50s.push_back(percentile_sorted(kind, 0.5));
  }
  return median(std::move(p50s));
}

double per(double amount, double count) {
  return count > 0 ? amount / count : 0;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double histogram_quantile_ms(const gems::LatencyHistogram& h, double q) {
  if (h.count == 0) return 0;
  const double target = q * static_cast<double>(h.count);
  double seen = 0;
  for (std::size_t i = 0; i < gems::LatencyHistogram::kBuckets; ++i) {
    const auto in_bucket = static_cast<double>(h.buckets[i]);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= target) {
      // Bucket i holds latencies of bit-width i: [2^(i-1), 2^i) us, and
      // bucket 0 holds exact zeros.
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double frac = (target - seen) / in_bucket;
      return (lo + frac * (hi - lo)) / 1000.0;
    }
    seen += in_bucket;
  }
  return static_cast<double>(h.max_us) / 1000.0;
}

gems::LatencyHistogram histogram_delta(const gems::LatencyHistogram& after,
                                       const gems::LatencyHistogram& before) {
  gems::LatencyHistogram d;
  for (std::size_t i = 0; i < gems::LatencyHistogram::kBuckets; ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  d.count = after.count - before.count;
  d.sum_us = after.sum_us - before.sum_us;
  d.max_us = after.max_us;
  return d;
}

// ---- Open loop -------------------------------------------------------------

double due_time_ms(std::size_t i, double rate_per_s) {
  return static_cast<double>(i) * 1000.0 / rate_per_s;
}

double due_latency_ms(const OpenLoopSample& s) { return s.done_ms - s.due_ms; }

double lateness_ms(const OpenLoopSample& s) {
  return std::max(0.0, s.sent_ms - s.due_ms);
}

// ---- Spans -------------------------------------------------------------------

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int32_t Tracer::begin(const char* name, std::uint64_t request_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request_id = request_id;
  span.parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::end(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close innermost-first (ScopedSpan), so `id` is the top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void append_spans(std::vector<Span>& dst, const std::vector<Span>& src,
                  std::uint64_t request_offset) {
  const auto base = static_cast<std::int32_t>(dst.size());
  for (Span s : src) {
    if (s.parent >= 0) s.parent += base;
    s.request_id += request_offset;
    dst.push_back(s);
  }
}

std::int64_t covered_ns(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;  // everything before `reach` is counted
  for (const auto& [s, e] : intervals) {
    const std::int64_t lo = std::max(s, reach);
    const std::int64_t hi = std::min(e, end);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return covered;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns() -
              covered_ns(spans[i].start_ns, spans[i].end_ns,
                         std::move(children[i]));
  }
  return self;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.duration_ns()) / 1e6);
  }
  return out;
}

double unattributed_pct(const std::vector<Span>& spans,
                        const std::string& root) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  double total = 0;
  double unattributed = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != -1 || root != spans[i].name) continue;
    total += static_cast<double>(spans[i].duration_ns());
    unattributed += static_cast<double>(self[i]);
  }
  return total > 0 ? 100.0 * unattributed / total : 0.0;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  const std::vector<std::int64_t> self = self_times_ns(spans);
  out << "request\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.request_id << '\t' << i << '\t' << s.parent << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << self[i] << '\n';
  }
  return out.good();
}

// ---- Derived per-layer metrics --------------------------------------------

double materialize_ms_p50(const std::vector<GraphQueryParts>& parts) {
  std::vector<double> rest;
  for (const GraphQueryParts& p : parts) {
    rest.push_back(p.total_ms - p.lower_ms - p.match_ms - p.enumerate_ms);
  }
  return median(std::move(rest));
}

double ingest_self_ms_per_batch(const std::vector<IngestParts>& parts) {
  if (parts.empty()) return 0;
  double sum = 0;
  for (const IngestParts& p : parts) {
    sum += p.execute_ms - p.delta_ms - p.wal_ms - p.parse_ms;
  }
  return sum / static_cast<double>(parts.size());
}

double job_overhead_ms_p50(const std::vector<ClusterRequestParts>& parts) {
  std::vector<double> overhead;
  for (const ClusterRequestParts& p : parts) {
    overhead.push_back(p.round_trip_ms - p.sim_match_ms);
  }
  return median(std::move(overhead));
}

// ---- Output check ------------------------------------------------------------

namespace {

bool same_value(const gems::storage::Value& a, const gems::storage::Value& b) {
  using gems::storage::TypeKind;
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case TypeKind::kBool:
      return a.as_bool() == b.as_bool();
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return a.as_int64() == b.as_int64();
    case TypeKind::kDouble: {
      const double x = a.as_double();
      const double y = b.as_double();
      return std::memcmp(&x, &y, sizeof x) == 0;
    }
    case TypeKind::kVarchar:
      return a.as_string() == b.as_string();
  }
  return false;
}

bool same_table(const gems::storage::Table& a, const gems::storage::Table& b,
                std::string* why) {
  if (a.name() != b.name()) {
    *why = "table name " + b.name() + ", expected " + a.name();
    return false;
  }
  if (!(a.schema().columns() == b.schema().columns())) {
    *why = "schema of " + a.name() + " differs";
    return false;
  }
  if (a.num_rows() != b.num_rows()) {
    *why = a.name() + " has " + std::to_string(b.num_rows()) +
           " rows, expected " + std::to_string(a.num_rows());
    return false;
  }
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    for (std::size_t c = 0; c < a.num_columns(); ++c) {
      const auto col = static_cast<gems::storage::ColumnIndex>(c);
      if (!same_value(a.value_at(r, col), b.value_at(r, col))) {
        *why = a.name() + " row " + std::to_string(r) + " column " +
               std::to_string(c) + ": " + b.value_at(r, col).to_string() +
               ", expected " + a.value_at(r, col).to_string();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool same_results(const std::vector<gems::exec::StatementResult>& expected,
                  const std::vector<gems::exec::StatementResult>& got,
                  std::string* why) {
  if (expected.size() != got.size()) {
    *why = std::to_string(got.size()) + " results, expected " +
           std::to_string(expected.size());
    return false;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& e = expected[i];
    const auto& g = got[i];
    if (e.kind != g.kind || e.truncated != g.truncated || e.into != g.into ||
        e.into_name != g.into_name || e.message != g.message) {
      *why = "statement " + std::to_string(i) + ": \"" + g.message +
             "\", expected \"" + e.message + "\"";
      return false;
    }
    if ((e.table == nullptr) != (g.table == nullptr)) {
      *why = "statement " + std::to_string(i) + ": table presence differs";
      return false;
    }
    if (e.table != nullptr && !same_table(*e.table, *g.table, why)) {
      *why = "statement " + std::to_string(i) + ": " + *why;
      return false;
    }
  }
  return true;
}

// ---- Report --------------------------------------------------------------------

void Report::merge(const Report& other, const std::vector<std::string>& take) {
  correct = correct && other.correct;
  attempted += other.attempted;
  failed += other.failed;
  problems.insert(problems.end(), other.problems.begin(), other.problems.end());
  for (const Metric& m : other.metrics) {
    if (std::find(take.begin(), take.end(), m.name) == take.end()) continue;
    for (Metric& mine : metrics) {
      if (mine.name == m.name) mine = m;
    }
  }
}

std::string report_json(const Report& report) {
  std::ostringstream out;
  out << std::setprecision(12);
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::pair<double, double> machine_canary_ms() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 1;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const Clock::time_point t1 = Clock::now();
  std::vector<std::uint64_t> block(std::size_t{8} << 20, x);
  std::uint64_t sum = 0;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < block.size(); i += 8) {
      sum += block[i];
      block[i] = sum;
    }
  }
  const Clock::time_point t2 = Clock::now();
  // Keep the results observable so neither loop is optimized away.
  if (sum == 42 && x == 42) std::fputs("", stderr);
  return {ms_since(t0, t1), ms_since(t1, t2)};
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

}  // namespace e2e
