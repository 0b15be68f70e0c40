// E-T1 / E-VEC — Table I: every relational operation GraQL supports, as a
// conformance + throughput sweep over the generated Offers table
// (select/projection, order by, group by, distinct, count, avg, min, max,
// sum, top n, aliasing), plus the end-to-end table_scan workload's
// top n / min-max / grouped top n shapes. Every op runs under both
// execution engines — `/vec` (the vectorized batch kernels, the default)
// and `/row` (the row-at-a-time oracle) — so BENCH_vectorized.json
// carries the speedup of the vectorization refactor per operator (E-VEC
// measures selection and group-by at >= 5x on the 20k scale).
#include "bench_common.hpp"

#include <string_view>

#include "relational/bound_expr.hpp"
#include "relational/operators.hpp"

namespace gems::bench {
namespace {

struct Op {
  const char* name;
  const char* query;
};

constexpr Op kOps[] = {
    {"select_where",
     "select id, price from table Offers where price > 500.0"},
    {"projection_alias", "select id as offer, price as cost from table "
                         "Offers"},
    {"order_by", "select id, price from table Offers order by price desc"},
    {"group_by_count",
     "select product, count(*) as n from table Offers group by product"},
    {"distinct", "select distinct vendor from table Offers"},
    {"count_star", "select count(*) as n from table Offers"},
    {"avg", "select avg(price) as mean from table Offers"},
    {"min_max", "select min(price) as lo, max(price) as hi, min(validFrom) "
                "as first from table Offers"},
    {"sum", "select sum(deliveryDays) as days from table Offers"},
    {"top_n", "select top 10 id, price from table Offers order by price"},
    {"full_pipeline",
     "select top 5 vendor, count(*) as n, avg(price) as mean from table "
     "Offers where deliveryDays <= 7 group by vendor order by mean desc"},
    // The shapes of the end-to-end table_scan workload (e2ebench/):
    // a two-key top n, four typed min/max, and a top n over ~20k groups.
    {"top_n_e2e",
     "select top 10 id, price from table Offers order by price, id"},
    {"min_max_e2e",
     "select min(price) as lo, max(price) as hi, min(validFrom) as first, "
     "max(validTo) as last from table Offers"},
    {"reviews_top",
     "select top 10 reviewFor, avg(ratings_1) as score, count(*) as n "
     "from table Reviews group by reviewFor order by score desc, "
     "reviewFor"},
};

void BM_Table1_Op(benchmark::State& state) {
  const Op& op = kOps[state.range(0)];
  const bool vectorized = state.range(2) != 0;
  server::Database& db = berlin_db(static_cast<std::size_t>(state.range(1)),
                                   /*seed=*/42, vectorized);
  const auto params = berlin_params();
  const std::string_view query = op.query;
  const double input_rows = static_cast<double>(
      (*db.table(query.find("table Reviews") != std::string_view::npos
                     ? "Reviews"
                     : "Offers"))
          ->num_rows());
  std::size_t out_rows = 0;
  for (auto _ : state) {
    auto r = must_run(db, op.query, params);
    out_rows = r.table->num_rows();
    benchmark::DoNotOptimize(r.table);
  }
  state.SetLabel(op.name);
  state.counters["input_rows"] = input_rows;
  state.counters["output_rows"] = static_cast<double>(out_rows);
  state.counters["rows_per_sec"] = benchmark::Counter(
      input_rows, benchmark::Counter::kIsIterationInvariantRate);
}

void register_ops() {
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    for (const std::size_t scale : {2000, 20000}) {
      // /vec = batch kernel engine (production default), /row = the
      // row-at-a-time oracle. Same queries, same data: the pairwise time
      // ratio is the vectorization speedup.
      for (const bool vectorized : {true, false}) {
        benchmark::RegisterBenchmark(
            (std::string("BM_Table1_") + kOps[i].name +
             (vectorized ? "/vec" : "/row"))
                .c_str(),
            BM_Table1_Op)
            ->Args({static_cast<long>(i), static_cast<long>(scale),
                    vectorized ? 1 : 0})
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

// ---- E-VEC operator-level benches ----------------------------------------
//
// The end-to-end sweep above carries costs the engines share (parse,
// planning, result materialization), which dilutes the operator ratio.
// These benches time the two acceptance-gated operators directly:
// selection (filter_rows) and group-by, vectorized vs row oracle over the
// same Offers table.

void BM_VecOp_Selection(benchmark::State& state) {
  server::Database& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  const storage::TablePtr offers = *db.table("Offers");
  const relational::BatchPolicy policy =
      state.range(1) != 0 ? relational::BatchPolicy{}
                          : relational::BatchPolicy::row_engine();
  relational::TableScope scope(*offers);
  auto pred = relational::bind_predicate(
      relational::Expr::make_binary(
          relational::BinaryOp::kGt,
          relational::Expr::make_column("", "price"),
          relational::Expr::make_literal(storage::Value::float64(500.0))),
      scope, {}, offers->pool());
  GEMS_CHECK_MSG(pred.is_ok(), pred.status().to_string().c_str());
  std::size_t out_rows = 0;
  for (auto _ : state) {
    auto rows = relational::filter_rows(*offers, **pred, policy);
    out_rows = rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["input_rows"] = static_cast<double>(offers->num_rows());
  state.counters["output_rows"] = static_cast<double>(out_rows);
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(offers->num_rows()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_VecOp_GroupBy(benchmark::State& state) {
  server::Database& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  const storage::TablePtr offers = *db.table("Offers");
  const relational::BatchPolicy policy =
      state.range(1) != 0 ? relational::BatchPolicy{}
                          : relational::BatchPolicy::row_engine();
  const std::vector<storage::ColumnIndex> keys{
      *offers->schema().find("product")};
  const std::vector<relational::AggSpec> aggs{
      {relational::AggKind::kCountStar, 0, "n"},
      {relational::AggKind::kSum, *offers->schema().find("price"), "total"}};
  std::size_t out_rows = 0;
  for (auto _ : state) {
    auto g = relational::group_by(*offers, keys, aggs, "G", policy);
    GEMS_CHECK(g.is_ok());
    out_rows = (*g)->num_rows();
    benchmark::DoNotOptimize(*g);
  }
  state.counters["input_rows"] = static_cast<double>(offers->num_rows());
  state.counters["output_rows"] = static_cast<double>(out_rows);
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(offers->num_rows()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void register_vec_ops() {
  for (const std::size_t scale : {2000, 20000}) {
    for (const bool vectorized : {true, false}) {
      const char* suffix = vectorized ? "/vec" : "/row";
      benchmark::RegisterBenchmark(
          (std::string("BM_VecOp_selection") + suffix).c_str(),
          BM_VecOp_Selection)
          ->Args({static_cast<long>(scale), vectorized ? 1 : 0})
          ->Unit(benchmark::kMicrosecond);
      benchmark::RegisterBenchmark(
          (std::string("BM_VecOp_group_by") + suffix).c_str(),
          BM_VecOp_GroupBy)
          ->Args({static_cast<long>(scale), vectorized ? 1 : 0})
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

const int kRegistered = (register_ops(), register_vec_ops(), 0);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
