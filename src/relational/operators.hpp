// Relational operators — the complete surface of paper Table I:
// select (selection + projection), order by, group by, distinct,
// count/avg/min/max/sum, top n, and aliasing (handled by output names).
// Joins implement the edge-creation semantics of Eq. 2 and the implicit
// joins of many-to-one declarations (Figs. 4-5).
//
// All operators materialize new tables; intermediate results are the same
// Table type users query, which is what makes GraQL's "results as tables"
// composition (paper Sec. II-C1) free.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "relational/batch.hpp"
#include "relational/bound_expr.hpp"
#include "storage/table.hpp"

namespace gems::relational {

using storage::ColumnIndex;
using storage::RowIndex;
using storage::Table;
using storage::TablePtr;

// ---- Selection ---------------------------------------------------------
//
// Operators taking a BatchPolicy run the vectorized kernel engine
// (vector_eval.hpp) by default and fall back to the row-at-a-time
// interpreter when the policy disables batching (BatchPolicy::row_engine)
// or the expression is not vectorizable. Both paths are bit-identical for
// every batch size and null pattern (property-tested; the row path is the
// oracle).

/// Row indices of `table` satisfying `predicate` (ascending order).
std::vector<RowIndex> filter_rows(const Table& table,
                                  const BoundExpr& predicate,
                                  const BatchPolicy& policy = {});

/// Parallel selection over the intra-node thread pool (the shared-memory
/// half of the paper's "massively parallel execution"): the table is
/// chunked, chunks filter independently (each worker with its own kernel
/// scratch), results concatenate in order. Bit-identical to filter_rows
/// (property-tested).
std::vector<RowIndex> filter_rows_parallel(const Table& table,
                                           const BoundExpr& predicate,
                                           ThreadPool& pool,
                                           const BatchPolicy& policy = {});

/// Copies `rows` × `cols` of `src` into a new table named `name`, keeping
/// the source column names unless `rename` provides one per output column.
TablePtr materialize(const Table& src, std::span<const RowIndex> rows,
                     std::span<const ColumnIndex> cols, std::string name,
                     const std::vector<std::string>* rename = nullptr);

// ---- Projection with computed expressions -------------------------------

struct OutputColumn {
  std::string name;  // output name (covers `as x` aliasing)
  BoundExprPtr expr;  // bound against a single-source TableScope
};

/// Evaluates each output expression for each listed row. Vectorized:
/// expressions compile to kernels once and evaluate per batch, appending
/// whole lane windows into the output columns.
TablePtr project(const Table& src, std::span<const RowIndex> rows,
                 std::span<const OutputColumn> outputs, std::string name,
                 const BatchPolicy& policy = {});

// ---- Join ---------------------------------------------------------------

/// Equi-join row pairs: every (l, r) with left[l][left_keys] ==
/// right[r][right_keys]. Rows with NULL in any key never match (SQL
/// semantics). Key columns must be pairwise comparable (checked).
Result<std::vector<std::pair<RowIndex, RowIndex>>> hash_join_pairs(
    const Table& left, std::span<const ColumnIndex> left_keys,
    const Table& right, std::span<const ColumnIndex> right_keys,
    const BatchPolicy& policy = {});

struct JoinOutput {
  enum Side { kLeft, kRight } side;
  ColumnIndex column;
  std::string name;
};

/// Materializing equi-join.
Result<TablePtr> hash_join(const Table& left,
                           std::span<const ColumnIndex> left_keys,
                           const Table& right,
                           std::span<const ColumnIndex> right_keys,
                           std::span<const JoinOutput> outputs,
                           std::string name,
                           const BatchPolicy& policy = {});

// ---- Aggregation ----------------------------------------------------------

enum class AggKind { kCountStar, kCount, kSum, kAvg, kMin, kMax };

std::string_view agg_kind_name(AggKind kind) noexcept;

struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  ColumnIndex input = 0;  // ignored for kCountStar
  std::string output_name;
};

/// One output column of aggregate(): group key `index` (into its keys)
/// or aggregate `index` (into its aggs), under `name`.
struct GroupOutput {
  enum Source { kKey, kAgg } source = kKey;
  std::size_t index = 0;
  std::string name;
};

/// GROUP BY `keys` over the selected rows `rows` of `src` (key and
/// aggregate input columns are read through the selection vector; no
/// input copy), emitting `outputs` in order. With empty `keys` every row
/// is group 0 — no hashing — and the result is exactly one row even on
/// empty input (SQL scalar aggregation). NULLs are skipped by every
/// aggregate except count(*). Groups appear in first-encounter order.
/// min/max keep the first-seen value among equals under the native `<`
/// (so of -0.0 and +0.0, and against a NaN, the first one seen wins).
Result<TablePtr> aggregate(const Table& src, std::span<const RowIndex> rows,
                           std::span<const ColumnIndex> keys,
                           std::span<const AggSpec> aggs,
                           std::span<const GroupOutput> outputs,
                           std::string name, const BatchPolicy& policy = {});

/// aggregate() over every row of `src`. Output schema: the key columns
/// (source names) followed by one column per aggregate.
Result<TablePtr> group_by(const Table& src, std::span<const ColumnIndex> keys,
                          std::span<const AggSpec> aggs, std::string name,
                          const BatchPolicy& policy = {});

// ---- Ordering / dedup / top -----------------------------------------------
//
// ORDER BY's order on one column: NULL first, then values ascending —
// numbers numerically (-0.0 == +0.0, NaN after every number, NaN == NaN;
// storage::compare_doubles), varchar by bytes, false before true.
// Descending reverses it (NULL last). Ties keep input order.

struct SortKey {
  ColumnIndex column;
  bool descending = false;
};

/// The selected rows `rows` of `src` in `keys` order, ties in input order
/// (a stable sort), cut to the first `limit`. Vectorized, every key
/// column is resolved once into order-preserving integers and `limit` <
/// rows.size() runs a bounded heap of `limit` entries; the row engine
/// (BatchPolicy::row_engine) runs a comparator stable sort, the oracle.
std::vector<RowIndex> sort_rows(const Table& src,
                                std::span<const RowIndex> rows,
                                std::span<const SortKey> keys,
                                std::size_t limit,
                                const BatchPolicy& policy = {});

/// Materializes `src` in sorted order.
TablePtr order_by(const Table& src, std::span<const SortKey> keys,
                  std::string name);

/// Distinct rows (over all columns), first occurrence kept, input order.
TablePtr distinct(const Table& src, std::string name,
                  const BatchPolicy& policy = {});

/// First `n` rows (paper's `top n`; callers sort first).
TablePtr head(const Table& src, std::size_t n, std::string name);

}  // namespace gems::relational
