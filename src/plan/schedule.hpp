// Multi-statement GraQL scheduling & planning (paper Sec. III-B1): "given
// a multistatement GraQL script Ω = q1..qn, and the explicit
// representation of outputs and inputs for each query via the use of the
// 'into subgraph' and 'into table' expressions, we can build a
// multi-statement dependence representation" allowing independent
// statements to execute in parallel.
//
// DDL and ingest statements act as barriers (they are "atomic with
// respect to subsequent query commands", Sec. II-A2/III).
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "exec/executor.hpp"
#include "graql/ast.hpp"

namespace gems::plan {

/// Read/write sets of one statement over the named-object space (tables,
/// subgraphs, graph element types).
struct StatementIo {
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  bool barrier = false;  // DDL / ingest: serializes with everything
};

StatementIo analyze_io(const graql::Statement& stmt);

/// Parallel execution levels: statements within a level have no
/// dependencies on each other; level i+1 may depend on levels <= i.
/// Statement order within a level preserves script order.
struct Schedule {
  std::vector<std::vector<std::size_t>> levels;

  std::size_t num_statements() const {
    std::size_t n = 0;
    for (const auto& l : levels) n += l.size();
    return n;
  }
  std::size_t max_width() const {
    std::size_t w = 0;
    for (const auto& l : levels) w = std::max(w, l.size());
    return w;
  }
};

/// Builds the dependence schedule. RAW, WAR and WAW conflicts all order
/// statements; barriers get singleton levels.
Schedule build_schedule(const graql::Script& script);

/// True when no statement of the script is a DDL/ingest barrier — such
/// scripts never mutate the base tables or the graph, so the server runs
/// them on a script-local copy of a pinned epoch's context instead of the
/// live one (their `into` results are folded in afterwards). The
/// classification reuses analyze_io so it cannot drift from the
/// scheduler's barrier notion.
bool script_is_read_only(const graql::Script& script);

/// Executes a script per `schedule`. When `pool` is non-null, statements
/// in the same level run concurrently (their `into` results are committed
/// in script order after the level completes); otherwise execution is
/// serial but still level-ordered.
Result<std::vector<exec::StatementResult>> run_scheduled(
    const graql::Script& script, const Schedule& schedule,
    exec::ExecContext& ctx, ThreadPool* pool);

}  // namespace gems::plan
