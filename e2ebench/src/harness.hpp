// The benchmark's own arithmetic and instruments: seeded choices, latency
// summaries, open-loop due-time accounting, the in-memory span recorder
// with self-time attribution, the derived per-layer metrics, the output
// check's result encoding, and the JSON report. Everything here is pure
// or self-contained so tests/selftest.cpp can check it without a server.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "exec/executor.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// ---- Seeded choices ------------------------------------------------------

/// SplitMix64. The benchmark draws every input from its own generator, so
/// a change to the program's PRNG cannot change the benchmark's requests.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed for `stream` (session, role, ...).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// A random permutation of 0..n-1 (one "deck": every request kind once).
std::vector<std::size_t> shuffled_deck(std::size_t n, Rng& rng);

// ---- Latency summaries ---------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank ceil(q * n). Requires a non-empty sample and q in (0, 1].
double percentile_sorted(const std::vector<double>& sorted, double q);

/// The tail a sample supports: the highest percentile of the ladder
/// {p50, p75, p90, p95, p99, p99.9, p99.99} with at least ten samples
/// ranked beyond it. A sample too small for any ladder step reports p50.
struct Tail {
  double quantile = 0.5;
  double value = 0;
  std::size_t beyond = 0;  // samples ranked after the reported one
};
Tail tail_of_sorted(const std::vector<double>& sorted);

/// The tail at a fixed percentile `q` when the sample supports it (at
/// least ten samples beyond), else tail_of_sorted's.
Tail tail_at_sorted(const std::vector<double>& sorted, double q);

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0;
  Tail tail;
};
/// p50 and the tail at `tail_q` (see tail_at_sorted).
LatencySummary summarize(std::vector<double> samples, double tail_q);

/// The median over request kinds of each kind's nearest-rank p50. With
/// equal weights per kind this is the p50 of the mix, but it does not move
/// when concurrent kinds widen each other's spread: the pooled p50 of a
/// mix sits where the kinds' distributions overlap.
double median_of_kind_p50s(const std::vector<std::vector<double>>& by_kind);

/// amount / count, or 0 when count is 0.
double per(double amount, double count);

/// Median of a sample (the mean of the two middle values for even n).
double median(std::vector<double> samples);

/// Quantile of a log2-bucketed histogram, interpolated linearly inside
/// the bucket that holds the q-th sample; in milliseconds. 0 when empty.
double histogram_quantile_ms(const gems::LatencyHistogram& h, double q);

/// after - before, bucket by bucket (both from one monotone counter).
gems::LatencyHistogram histogram_delta(const gems::LatencyHistogram& after,
                                       const gems::LatencyHistogram& before);

// ---- Open loop -------------------------------------------------------------

/// One open-loop request: when it was due, when the generator sent it and
/// when its reply arrived, in ms since the schedule started.
struct OpenLoopSample {
  double due_ms = 0;
  double sent_ms = 0;
  double done_ms = 0;
};

/// Due time of request i at `rate_per_s` requests per second.
double due_time_ms(std::size_t i, double rate_per_s);

/// Latency charged from the due time, so a stall also charges every
/// request queued behind it.
double due_latency_ms(const OpenLoopSample& s);

/// How late the generator sent the request (0 when on time).
double lateness_ms(const OpenLoopSample& s);

// ---- Spans -------------------------------------------------------------------

struct Span {
  const char* name = "";
  std::uint64_t request_id = 0;
  std::int32_t parent = -1;  // index into the span list, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span recorder for one thread. Disabled, it records nothing,
/// so the same call sequence can run with and without tracing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::int32_t begin(const char* name, std::uint64_t request_id);
  void end(std::int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request_id)
      : tracer_(tracer), id_(tracer.begin(name, request_id)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Appends `src` to `dst`, shifting its parent indices to their new
/// positions and its request ids by `request_offset`.
void append_spans(std::vector<Span>& dst, const std::vector<Span>& src,
                  std::uint64_t request_offset);

/// Length of [start, end) covered by the union of `intervals` (clipped).
std::int64_t covered_ns(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>>
                            intervals);

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Durations in ms of every span named `name`.
std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name);

/// Share (in %) of the time of root spans named `root` covered by no child.
double unattributed_pct(const std::vector<Span>& spans,
                        const std::string& root);

/// Writes the spans as tab-separated lines (request, index, parent, name,
/// start_ns, end_ns, self_ns). Returns false on an I/O error.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

// ---- Derived per-layer metrics --------------------------------------------

/// exec.materialize: execute_graph_query minus its lower, match and
/// enumerate parts, per statement; the p50 over statements.
struct GraphQueryParts {
  double total_ms = 0;
  double lower_ms = 0;
  double match_ms = 0;
  double enumerate_ms = 0;
};
double materialize_ms_p50(const std::vector<GraphQueryParts>& parts);

/// storage.ingest_self: ingest execute minus graph delta, WAL append and
/// CSV parse, averaged per batch.
struct IngestParts {
  double execute_ms = 0;
  double delta_ms = 0;
  double wal_ms = 0;
  double parse_ms = 0;
};
double ingest_self_ms_per_batch(const std::vector<IngestParts>& parts);

/// cluster.job_overhead: a clustered request's round trip minus the
/// simulated 2-rank match of the same networks; the p50 over requests.
struct ClusterRequestParts {
  double round_trip_ms = 0;
  double sim_match_ms = 0;
};
double job_overhead_ms_p50(const std::vector<ClusterRequestParts>& parts);

// ---- Output check ------------------------------------------------------------

/// Whether `got` equals `expected` as a client receives results: the same
/// statements with the same kind, flags, `into` name and message, and the
/// same tables — name, schema, row count and every cell, doubles compared
/// bit for bit. Subgraph results compare by their message (clients get a
/// summary). `why` receives the first difference.
bool same_results(const std::vector<gems::exec::StatementResult>& expected,
                  const std::vector<gems::exec::StatementResult>& got,
                  std::string* why);

// ---- Report --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }

  /// Folds in a second run of the same process: its outcome and checks,
  /// and the values of the metrics named in `take`.
  void merge(const Report& other, const std::vector<std::string>& take);
};

/// The one-line result object: correct, attempted, failed, metrics.
std::string report_json(const Report& report);

/// Times two fixed loops, one compute-bound (integer hashing) and one
/// memory-bound (a pass over 64 MiB), in ms. Printed with every run, not a
/// metric: it tells a slow machine from a slow commit.
std::pair<double, double> machine_canary_ms();

/// Peak resident set of this process (getrusage ru_maxrss), in MB.
double peak_rss_mb();

}  // namespace e2e
