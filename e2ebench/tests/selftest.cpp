// Self-tests of the benchmark's own arithmetic and output check. Exits
// non-zero when any expectation fails; run.py runs it before every
// benchmark run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "storage/table.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void tail_percentile() {
  // n = 100: p90 is rank 90 with exactly 10 samples beyond; p95 has 5.
  e2e::Tail t = e2e::tail_of_sorted(one_to(100));
  EXPECT(near(t.quantile, 0.9) && near(t.value, 90) && t.beyond == 10);
  // n = 99: p90 would leave 9 beyond, so the tail falls back to p75.
  t = e2e::tail_of_sorted(one_to(99));
  EXPECT(near(t.quantile, 0.75) && near(t.value, 75) && t.beyond == 24);
  // n = 1000: p99 is rank 990, 10 beyond; p99.9 would leave 1.
  t = e2e::tail_of_sorted(one_to(1000));
  EXPECT(near(t.quantile, 0.99) && near(t.value, 990) && t.beyond == 10);
  // Too small for any step above p50: p50 with what lies beyond it.
  t = e2e::tail_of_sorted(one_to(15));
  EXPECT(near(t.quantile, 0.5) && near(t.value, 8) && t.beyond == 7);
  // A fixed tail percentile holds while the sample supports it...
  t = e2e::tail_at_sorted(one_to(1000), 0.95);
  EXPECT(near(t.quantile, 0.95) && near(t.value, 950) && t.beyond == 50);
  // ...and falls back to the highest supported one when it does not.
  t = e2e::tail_at_sorted(one_to(150), 0.95);
  EXPECT(near(t.quantile, 0.9) && near(t.value, 135) && t.beyond == 15);
  // The summary sorts, and p50 is the nearest-rank median.
  const e2e::LatencySummary s = e2e::summarize({5, 1, 4, 2, 3}, 0.99);
  EXPECT(s.count == 5 && near(s.p50, 3) && near(s.tail.quantile, 0.5));
  EXPECT(near(e2e::median({4, 1, 3, 2}), 2.5));
  // The kinds' p50s are 2, 20 and 5 (the empty kind is skipped): the
  // median kind's p50 is 5, though the pooled p50 of the mix is 10.
  EXPECT(near(e2e::median_of_kind_p50s({{1, 2, 30}, {10, 20, 31}, {}, {4, 5, 32}}),
              5));
}

void histogram_quantile() {
  gems::LatencyHistogram h;
  for (int i = 0; i < 4; ++i) h.record(3);    // bucket [2, 4) us
  for (int i = 0; i < 4; ++i) h.record(100);  // bucket [64, 128) us
  // Half the samples lie at or below the top of the first bucket.
  EXPECT(near(e2e::histogram_quantile_ms(h, 0.5), 0.004));
  // 3/4: halfway into [64, 128).
  EXPECT(near(e2e::histogram_quantile_ms(h, 0.75), 0.096));
  gems::LatencyHistogram before;
  for (int i = 0; i < 4; ++i) before.record(3);
  const gems::LatencyHistogram d = e2e::histogram_delta(h, before);
  EXPECT(d.count == 4 && near(e2e::histogram_quantile_ms(d, 0.5), 0.096));
}

void open_loop() {
  // 5 requests per second: request 3 is due at 600 ms.
  EXPECT(near(e2e::due_time_ms(3, 5.0), 600));
  // Sent 50 ms late behind a stall, answered 100 ms after it was due: the
  // stall is charged to the latency.
  const e2e::OpenLoopSample late{600, 650, 700};
  EXPECT(near(e2e::due_latency_ms(late), 100));
  EXPECT(near(e2e::lateness_ms(late), 50));
  // Sent on time (the clock read before the due time): no lateness.
  const e2e::OpenLoopSample on_time{200, 199.5, 230};
  EXPECT(near(e2e::lateness_ms(on_time), 0));
  EXPECT(near(e2e::due_latency_ms(on_time), 30));
}

e2e::Span span(const char* name, std::int32_t parent, std::int64_t start,
               std::int64_t end) {
  e2e::Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void self_time() {
  // A root [0, 100) with overlapping children [10, 40) and [30, 60) and a
  // child running past its end, [90, 120): covered = [10, 60) + [90, 100).
  std::vector<e2e::Span> spans = {
      span("server.request", -1, 0, 100), span("a", 0, 10, 40),
      span("b", 0, 30, 60),               span("c", 0, 90, 120),
      span("a.inner", 1, 15, 35),
  };
  const std::vector<std::int64_t> self = e2e::self_times_ns(spans);
  EXPECT(self[0] == 40);
  EXPECT(self[1] == 10);  // a minus its own child
  EXPECT(self[2] == 30 && self[3] == 30 && self[4] == 20);
  EXPECT(near(e2e::unattributed_pct(spans, "server.request"), 40.0));
  EXPECT(e2e::covered_ns(0, 10, {{2, 4}, {3, 6}, {8, 20}}) == 6);

  // The recorder nests spans by scope and records nothing when off.
  e2e::Tracer on(true);
  {
    e2e::ScopedSpan root(on, "server.request", 7);
    e2e::ScopedSpan child(on, "graql.parse", 7);
  }
  EXPECT(on.spans().size() == 2 && on.spans()[1].parent == 0 &&
         on.spans()[0].request_id == 7);
  EXPECT(on.spans()[0].end_ns >= on.spans()[1].end_ns);
  // Appending re-bases parents to their new positions and offsets ids.
  std::vector<e2e::Span> merged = {span("x", -1, 0, 1)};
  e2e::append_spans(merged, on.spans(), 100);
  EXPECT(merged.size() == 3 && merged[1].parent == -1 &&
         merged[2].parent == 1 && merged[2].request_id == 107);
  e2e::Tracer off(false);
  { e2e::ScopedSpan root(off, "server.request", 1); }
  EXPECT(off.spans().empty());
}

void derived_metrics() {
  // execute_graph_query minus lower, match and enumerate; p50 of three.
  EXPECT(near(e2e::materialize_ms_p50({{10, 1, 5, 2}, {4, 1, 1, 1}, {20, 2, 3, 5}}),
              2));
  // ingest execute minus delta, WAL and parse, per batch.
  EXPECT(near(e2e::ingest_self_ms_per_batch({{100, 60, 10, 5}, {50, 30, 5, 5}}),
              17.5));
  EXPECT(near(e2e::ingest_self_ms_per_batch({}), 0));
  // round trip minus simulated match, p50 over requests.
  EXPECT(near(e2e::job_overhead_ms_p50({{6, 1}, {9, 2}, {20, 4}}), 7));
}

void output_check() {
  gems::StringPool pool;
  auto schema = gems::storage::Schema::create(
      {{"id", gems::storage::DataType::varchar(10)},
       {"price", gems::storage::DataType::float64()}});
  EXPECT(schema.is_ok());
  auto make = [&](double second_price) {
    auto table = std::make_shared<gems::storage::Table>("T", *schema, pool);
    std::vector<gems::storage::Value> row = {gems::storage::Value::varchar("o1"),
                                             gems::storage::Value::float64(5.5)};
    table->append_row_unchecked(row);
    row = {gems::storage::Value::varchar("o2"),
           gems::storage::Value::float64(second_price)};
    table->append_row_unchecked(row);
    gems::exec::StatementResult r;
    r.kind = gems::exec::StatementResult::Kind::kTable;
    r.table = table;
    r.message = "T: 2 rows";
    return std::vector<gems::exec::StatementResult>{r};
  };
  const auto expected = make(7.25);
  std::string why;
  EXPECT(e2e::same_results(expected, make(7.25), &why));
  // One corrupted cell must fail the check, with the cell named.
  EXPECT(!e2e::same_results(expected, make(7.5), &why));
  EXPECT(why.find("row 1 column 1") != std::string::npos);
  // So must -0.0 for 0.0: cells are compared bit for bit.
  EXPECT(!e2e::same_results(make(0.0), make(-0.0), &why));
  // And a lost row, and a changed message.
  auto short_result = make(7.25);
  auto shorter = std::make_shared<gems::storage::Table>("T", *schema, pool);
  std::vector<gems::storage::Value> row = {gems::storage::Value::varchar("o1"),
                                           gems::storage::Value::float64(5.5)};
  shorter->append_row_unchecked(row);
  short_result[0].table = shorter;
  EXPECT(!e2e::same_results(expected, short_result, &why));
  auto renamed = make(7.25);
  renamed[0].message = "T: 3 rows";
  EXPECT(!e2e::same_results(expected, renamed, &why));
}

void seeded_inputs() {
  e2e::Rng a(42), b(42), c(43);
  const auto da = e2e::shuffled_deck(9, a);
  EXPECT(da == e2e::shuffled_deck(9, b));
  EXPECT(da != e2e::shuffled_deck(9, c));
  std::vector<bool> seen(9, false);
  for (const std::size_t k : da) seen[k] = true;
  EXPECT(std::all_of(seen.begin(), seen.end(), [](bool s) { return s; }));
  EXPECT(e2e::mix_seed(1, 100) != e2e::mix_seed(1, 101));
}

}  // namespace

int main() {
  tail_percentile();
  histogram_quantile();
  open_loop();
  self_time();
  derived_metrics();
  output_check();
  seeded_inputs();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d expectation(s) failed\n", failures);
    return 1;
  }
  std::puts("selftest: ok");
  return 0;
}
