// The traced replay. Every request of a seeded replay set goes once over
// the wire (one session, server counters read around it) and then through
// the server's pipeline in-process, calling each layer's public entry
// point inside a span:
//
//   server.request
//     graql.parse, graql.encode, graql.ir_decode     (src/graql)
//     mvcc.pin                                       (src/mvcc)
//     server.meta_catalog, server.context            (src/server)
//     graql.analyze                                  (src/graql)
//     plan.schedule, plan.epoch_stats                (src/plan)
//     per graph statement: exec.lower, then per network plan.plan,
//       exec.match, exec.enumerate, dist.sim_match (clustered), then the
//       whole exec.graph_query                       (src/exec, src/dist)
//     per table statement: relational.filter, relational.materialize,
//       relational.group_by, relational.sort, then the whole
//       relational.table_query                       (src/relational)
//     net.result_codec                               (src/net)
//
// The probes before exec.graph_query and relational.table_query repeat
// work those calls do internally; their spans are siblings, so each call
// is timed on its own and the derived metrics (exec.materialize) subtract
// them. The replay runs alternately with the recorder off and on; the
// difference of the two is trace.overhead_pct.
#include <algorithm>
#include <numeric>
#include <optional>

#include "dist/dist_matcher.hpp"
#include "exec/enumerate.hpp"
#include "exec/lowering.hpp"
#include "graql/analyzer.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "plan/planner.hpp"
#include "plan/schedule.hpp"
#include "plan/stats.hpp"
#include "relational/operators.hpp"
#include "storage/csv.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using gems::exec::ExecContext;
using gems::storage::RowIndex;

/// Decks of requests replayed per pass.
constexpr std::size_t kReplayDecks = 3;
/// Passes with the recorder off and on (alternating).
constexpr int kReplayPasses = 3;
/// Ingest batches replayed in-process (ingest_mix).
constexpr std::size_t kReplayBatches = 4;

/// What the probes collect during one recorded pass.
struct Probes {
  std::vector<GraphQueryParts> graph_parts;
  double rows_in = 0;  // table-query source rows
};

bool distributable_here(const gems::exec::ConstraintNetwork& net,
                        const gems::graql::GraphQueryStmt& q) {
  if (!gems::dist::distributable(net).is_ok()) return false;
  if (q.into == gems::graql::IntoKind::kSubgraph && !net.groups.empty()) {
    return false;
  }
  for (const auto& v : net.vars) {
    if (v.seed != nullptr) return false;
  }
  return true;
}

/// Lower, plan, match and enumerate one graph statement, each in its own
/// span; adds the summed time of simulated 2-rank matches to `sim_ms`.
GraphQueryParts probe_graph(Tracer& t, std::uint64_t id, const Workload& w,
                            const gems::graql::GraphQueryStmt& q,
                            const ExecContext& local,
                            const gems::plan::GraphStats& stats,
                            double& sim_ms) {
  GraphQueryParts parts;
  gems::exec::SubgraphResolver resolver =
      [&local](const std::string& name)
      -> gems::Result<gems::exec::SubgraphPtr> {
    auto it = local.subgraphs.find(name);
    if (it == local.subgraphs.end()) {
      return gems::not_found("unknown result subgraph '" + name + "'");
    }
    return it->second;
  };
  gems::Result<gems::exec::LoweredQuery> lowered = gems::internal_error("");
  {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan s(t, "exec.lower", id);
    lowered = gems::exec::lower_graph_query(q, local.graph, resolver,
                                            local.params, *local.pool);
    parts.lower_ms = ms_since(t0, Clock::now());
  }
  if (!lowered.is_ok()) return parts;
  for (auto& net : lowered->networks) {
    net.batch_policy = local.batch_policy;
    gems::plan::PathPlan plan;
    {
      ScopedSpan s(t, "plan.plan", id);
      plan = gems::plan::plan_network(net, local.graph, *local.pool, stats);
    }
    gems::Result<gems::exec::MatchResult> match = gems::internal_error("");
    {
      const Clock::time_point t0 = Clock::now();
      ScopedSpan s(t, "exec.match", id);
      match = gems::exec::match_network(
          net, local.graph, *local.pool,
          plan.constraint_order.empty() ? nullptr : &plan.constraint_order,
          local.intra_pool);
      parts.match_ms += ms_since(t0, Clock::now());
    }
    if (!match.is_ok()) continue;
    if (q.into != gems::graql::IntoKind::kSubgraph) {
      const Clock::time_point t0 = Clock::now();
      ScopedSpan s(t, "exec.enumerate", id);
      gems::exec::EnumOptions options;
      options.max_rows = local.max_result_rows;
      options.root_var = plan.root_var;
      std::uint64_t rows = 0;
      (void)gems::exec::enumerate_assignments(
          net, local.graph, *local.pool, *match, options,
          [&rows](auto, auto) {
            ++rows;
            return true;
          });
      parts.enumerate_ms += ms_since(t0, Clock::now());
    }
    if (w.cluster && distributable_here(net, q)) {
      const Clock::time_point t0 = Clock::now();
      ScopedSpan s(t, "dist.sim_match", id);
      gems::dist::DistStats dstats;
      (void)gems::dist::match_network_distributed(
          net, local.graph, *local.pool, kClusterRanks, &dstats);
      sim_ms += ms_since(t0, Clock::now());
    }
  }
  return parts;
}

gems::relational::AggKind agg_kind(gems::graql::AggFunc f) {
  using gems::graql::AggFunc;
  using gems::relational::AggKind;
  switch (f) {
    case AggFunc::kCount:
      return AggKind::kCount;
    case AggFunc::kSum:
      return AggKind::kSum;
    case AggFunc::kAvg:
      return AggKind::kAvg;
    case AggFunc::kMin:
      return AggKind::kMin;
    case AggFunc::kMax:
      return AggKind::kMax;
    default:
      return AggKind::kCountStar;
  }
}

/// The Table I operators of one table statement, each in its own span,
/// on the statement's own source table and parameters.
void probe_table(Tracer& t, std::uint64_t id,
                 const gems::graql::TableQueryStmt& q, const ExecContext& local,
                 Probes& probes) {
  namespace rel = gems::relational;
  using gems::graql::AggFunc;
  auto source = local.tables.find(q.from_table);
  if (!source.is_ok()) return;
  const gems::storage::Table& table = **source;
  probes.rows_in += static_cast<double>(table.num_rows());
  rel::TableScope scope(table);

  std::vector<RowIndex> rows;
  if (q.where) {
    ScopedSpan s(t, "relational.filter", id);
    auto pred = rel::bind_predicate(q.where, scope, local.params, *local.pool);
    if (!pred.is_ok()) return;
    rows = rel::filter_rows(table, **pred, local.batch_policy);
  } else {
    rows.resize(table.num_rows());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      rows[r] = static_cast<RowIndex>(r);
    }
  }
  auto column_of = [&table](const gems::graql::SelectItem& item)
      -> std::optional<gems::storage::ColumnIndex> {
    if (!item.expr || item.expr->kind != rel::Expr::Kind::kColumnRef) {
      return std::nullopt;
    }
    return table.schema().find(item.expr->column);
  };

  const bool grouped =
      !q.group_by.empty() ||
      std::any_of(q.items.begin(), q.items.end(),
                  [](const auto& i) { return i.agg != AggFunc::kNone; });
  gems::storage::TablePtr out;
  std::vector<std::string> out_names;  // output position -> user name
  if (grouped) {
    std::vector<gems::storage::ColumnIndex> cols;
    for (const std::string& key : q.group_by) {
      auto c = table.schema().find(key);
      if (!c) return;
      cols.push_back(*c);
    }
    std::vector<rel::AggSpec> aggs;
    std::vector<std::string> agg_names;
    for (const auto& item : q.items) {
      if (item.agg == AggFunc::kNone) continue;
      rel::AggSpec spec;
      spec.kind = agg_kind(item.agg);
      spec.output_name = item.alias;
      if (item.agg != AggFunc::kCountStar) {
        auto c = column_of(item);
        if (!c) return;
        spec.input = static_cast<gems::storage::ColumnIndex>(cols.size());
        cols.push_back(*c);
      }
      aggs.push_back(spec);
      agg_names.push_back(item.alias);
    }
    std::vector<std::string> pre_names;  // a column may feed two aggregates
    for (std::size_t c = 0; c < cols.size(); ++c) {
      pre_names.push_back("c" + std::to_string(c));
    }
    gems::storage::TablePtr pre;
    {
      ScopedSpan s(t, "relational.materialize", id);
      pre = rel::materialize(table, rows, cols, "$pre", &pre_names);
    }
    std::vector<gems::storage::ColumnIndex> keys(q.group_by.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
      keys[k] = static_cast<gems::storage::ColumnIndex>(k);
    }
    ScopedSpan s(t, "relational.group_by", id);
    auto g = rel::group_by(*pre, keys, aggs, "$grouped", local.batch_policy);
    if (!g.is_ok()) return;
    out = *g;
    out_names = q.group_by;
    out_names.insert(out_names.end(), agg_names.begin(), agg_names.end());
  } else {
    std::vector<gems::storage::ColumnIndex> cols;
    for (const auto& item : q.items) {
      auto c = column_of(item);
      if (!c) return;
      cols.push_back(*c);
      out_names.push_back(item.alias.empty() ? item.expr->column : item.alias);
    }
    {
      ScopedSpan s(t, "relational.materialize", id);
      out = rel::materialize(table, rows, cols, "result");
    }
    if (q.distinct) {
      ScopedSpan s(t, "relational.group_by", id);
      out = rel::distinct(*out, "result", local.batch_policy);
    }
  }
  if (!q.order_by.empty()) {
    std::vector<rel::SortKey> keys;
    for (const auto& ord : q.order_by) {
      auto it = std::find(out_names.begin(), out_names.end(), ord.column);
      if (it == out_names.end()) return;
      keys.push_back({static_cast<gems::storage::ColumnIndex>(
                          it - out_names.begin()),
                      ord.descending});
    }
    ScopedSpan s(t, "relational.sort", id);
    out = rel::order_by(*out, keys, "result");
    if (q.top_n > 0) out = rel::head(*out, q.top_n, "result");
  }
}

struct PipelineResult {
  std::vector<gems::exec::StatementResult> results;
  std::size_t ir_bytes = 0;
  double sim_ms = 0;
  std::string error;
};

/// One request through the server's pipeline, in-process, in spans.
PipelineResult run_pipeline(Tracer& t, std::uint64_t id, const Workload& w,
                            Fixture& f, const Request& req, Probes& probes) {
  PipelineResult out;
  gems::server::Database& db = *f.db;
  ScopedSpan root(t, "server.request", id);

  gems::Result<gems::graql::Script> parsed = gems::internal_error("");
  {
    ScopedSpan s(t, "graql.parse", id);
    parsed = gems::graql::parse_script(req.text);
  }
  if (!parsed.is_ok()) {
    out.error = parsed.status().to_string();
    return out;
  }
  std::vector<std::uint8_t> ir;
  {
    ScopedSpan s(t, "graql.encode", id);
    ir = gems::graql::encode_script(*parsed);
  }
  out.ir_bytes = ir.size();
  gems::Result<gems::graql::Script> script = gems::internal_error("");
  {
    ScopedSpan s(t, "graql.ir_decode", id);
    script = gems::graql::decode_script(ir);
  }
  if (!script.is_ok()) {
    out.error = script.status().to_string();
    return out;
  }
  gems::mvcc::EpochPin pin = [&] {
    ScopedSpan s(t, "mvcc.pin", id);
    return db.pin_epoch();
  }();
  gems::graql::MetaCatalog meta = [&] {
    ScopedSpan s(t, "server.meta_catalog", id);
    return db.meta_catalog();
  }();
  {
    ScopedSpan s(t, "graql.analyze", id);
    const gems::Status st = gems::graql::analyze_script(*script, meta, &req.params);
    if (!st.is_ok()) {
      out.error = st.to_string();
      return out;
    }
  }
  gems::plan::Schedule schedule;
  {
    ScopedSpan s(t, "plan.schedule", id);
    schedule = gems::plan::build_schedule(*script);
  }
  ExecContext local;
  {
    // A private copy of the pinned context (shared table and graph
    // pointers), so `into` results register here and nowhere else.
    ScopedSpan s(t, "server.context", id);
    local = pin.ctx();
    local.params = req.params;
    local.defer_catalog_writes = false;
  }
  std::shared_ptr<const gems::plan::GraphStats> stats;
  {
    ScopedSpan s(t, "plan.epoch_stats", id);
    stats = pin.epoch().stats();
  }

  std::vector<gems::exec::StatementResult> results(script->statements.size());
  for (const auto& level : schedule.levels) {
    for (const std::size_t idx : level) {
      const auto& stmt = script->statements[idx];
      gems::Result<gems::exec::StatementResult> r = gems::internal_error("");
      if (const auto* q = std::get_if<gems::graql::GraphQueryStmt>(&stmt)) {
        GraphQueryParts parts =
            probe_graph(t, id, w, *q, local, *stats, out.sim_ms);
        const Clock::time_point t0 = Clock::now();
        {
          // The whole statement as the server runs it. Clustered, its
          // match goes through the cluster, so materialize is not derived.
          ScopedSpan s(t, "exec.graph_query", id);
          r = gems::exec::execute_graph_query(*q, local);
        }
        parts.total_ms = ms_since(t0, Clock::now());
        if (!w.cluster) probes.graph_parts.push_back(parts);
      } else if (const auto* q =
                     std::get_if<gems::graql::TableQueryStmt>(&stmt)) {
        probe_table(t, id, *q, local, probes);
        ScopedSpan s(t, "relational.table_query", id);
        r = gems::exec::execute_table_query(*q, local);
      } else {
        r = gems::internal_error("replay covers read statements only");
      }
      if (!r.is_ok()) {
        out.error = r.status().to_string();
        return out;
      }
      results[idx] = std::move(r).value();
    }
  }
  {
    // The server's encode and the client's decode of the results.
    ScopedSpan s(t, "net.result_codec", id);
    gems::net::WireWriter writer;
    gems::net::encode_results(results, writer);
    const std::vector<std::uint8_t> wire = writer.take();
    gems::StringPool pool;
    gems::net::WireReader reader(wire);
    auto decoded = gems::net::decode_results(reader, pool);
    if (!decoded.is_ok()) out.error = decoded.status().to_string();
  }
  out.results = std::move(results);
  return out;
}

double p50(const std::vector<Span>& spans, const char* name) {
  return median(durations_ms(spans, name));
}

double total_ms(const std::vector<Span>& spans, const char* name) {
  double sum = 0;
  for (const double d : durations_ms(spans, name)) sum += d;
  return sum;
}

/// What one replay of a request set leaves behind.
struct Replay {
  std::vector<Request> requests;
  // Over the wire, per request.
  std::vector<double> transport_ms, round_trip_ms, bytes_out;
  std::vector<std::uint64_t> jobs;  // cluster jobs the request ran
  // In-process: the last recorded pass, and every pass's total time.
  std::vector<Span> spans;
  Probes probes;
  std::vector<PipelineResult> recorded;
  std::vector<double> off_ms, on_ms;
  gems::exec::MatcherMetricsSnapshot match_before, match_after;
};

std::vector<Request> replay_requests(const std::vector<RequestKind>& kinds,
                                     const Domains& d, std::uint64_t seed) {
  RequestStream stream(kinds, d, seed);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < kReplayDecks * kinds.size(); ++i) {
    requests.push_back(stream.next());
  }
  return requests;
}

/// Sends each request over one session with server stats read around it,
/// then runs the set in-process with the recorder off and on in turn, and
/// checks the in-process pipeline against the wire. `expected`, when
/// given, is what the wire must also return (in-process results from
/// before a cluster was attached).
Replay replay(const Workload& w, std::vector<Request> requests, Fixture& f,
              const std::vector<std::vector<gems::exec::StatementResult>>*
                  expected,
              Report& report) {
  Replay out;
  out.requests = std::move(requests);
  gems::net::ClientOptions copt;
  copt.port = f.server->port();
  copt.client_name = "replay";
  gems::net::Client client(copt);
  if (const gems::Status s = client.connect(); !s.is_ok()) {
    report.fail("replay session: " + s.to_string());
    return out;
  }
  using gems::net::Verb;
  // Decoded into the client's string pool: `client` outlives the checks.
  std::vector<std::vector<gems::exec::StatementResult>> wire_results;
  auto stats = client.stats();
  for (const Request& req : out.requests) {
    if (!stats.is_ok()) break;
    const std::uint64_t jobs_before = f.db->cluster_metrics().jobs;
    const Clock::time_point t0 = Clock::now();
    auto r = client.run_script(req.text, req.params);
    const double rt = ms_since(t0, Clock::now());
    auto after = client.stats();
    if (!r.is_ok() || !after.is_ok()) {
      report.fail("replay request: " +
                  (r.is_ok() ? after.status() : r.status()).to_string());
      return out;
    }
    const auto& vb = after->verb(Verb::kRunScript);
    const auto& va = stats->verb(Verb::kRunScript);
    out.transport_ms.push_back(
        rt - static_cast<double>(vb.execute.sum_us - va.execute.sum_us) / 1000.0);
    out.bytes_out.push_back(static_cast<double>(vb.bytes_out - va.bytes_out));
    out.round_trip_ms.push_back(rt);
    out.jobs.push_back(f.db->cluster_metrics().jobs - jobs_before);
    wire_results.push_back(std::move(r).value());
    stats = std::move(after);
  }
  client.disconnect();

  for (int pass = 0; pass < 2 * kReplayPasses; ++pass) {
    const bool on = pass % 2 == 1;
    Tracer tracer(on);
    Probes pass_probes;
    std::vector<PipelineResult> results;
    if (on) out.match_before = f.db->match_metrics();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < out.requests.size(); ++i) {
      results.push_back(
          run_pipeline(tracer, i, w, f, out.requests[i], pass_probes));
    }
    const double ms = ms_since(t0, Clock::now());
    (on ? out.on_ms : out.off_ms).push_back(ms);
    if (on) {
      out.match_after = f.db->match_metrics();
      out.spans = tracer.spans();
      out.probes = std::move(pass_probes);
      out.recorded = std::move(results);
    }
  }
  for (std::size_t i = 0; i < out.recorded.size(); ++i) {
    std::string why;
    if (!out.recorded[i].error.empty()) {
      report.fail("replay pipeline: " + out.recorded[i].error);
    } else if (i >= wire_results.size() ||
               !same_results(out.recorded[i].results, wire_results[i], &why)) {
      report.fail("replay request " + std::to_string(i) +
                  ": in-process pipeline differs from the wire: " + why);
    } else if (expected != nullptr &&
               !same_results((*expected)[i], wire_results[i], &why)) {
      report.fail("clustered request " + std::to_string(i) +
                  " differs from the unclustered database: " + why);
    }
  }
  return out;
}

/// Cluster figures of the clustered replay (all 0 when none ran).
struct ClusterFigures {
  double sim_match_ms_p50 = 0;
  double job_overhead_ms_p50 = 0;
  double messages_per_job = 0;
  double payload_bytes_per_job = 0;
  double wire_bytes_per_job = 0;
  double supersteps_per_job = 0;
  double stall_ms_per_job = 0;
  double fallback_ratio = 0;
  double sync_bytes = 0;
  std::vector<Span> spans;  // of the recorded in-process pass
};

/// Attaches a 2-rank loopback cluster to the served database and replays
/// the graph statements of Q1-Q9 and the chain queries through it. Every
/// clustered result must equal the unclustered database's.
ClusterFigures cluster_replay(const RunOptions& o, Fixture& f,
                              const Domains& d, Report& report) {
  const Workload cw = cluster_workload();
  std::vector<Request> requests =
      replay_requests(cw.kinds, d, mix_seed(o.seed, 2000));
  std::vector<std::vector<gems::exec::StatementResult>> unclustered;
  for (const Request& req : requests) {
    auto r = f.db->run_script(req.text, req.params);
    if (!r.is_ok()) {
      report.fail("unclustered " + cw.kinds[req.kind].name + ": " +
                  r.status().to_string());
      return {};
    }
    unclustered.push_back(std::move(r).value());
  }
  f.cluster = std::make_unique<LoopbackCluster>(*f.db, kClusterRanks);
  if (const gems::Status s = f.cluster->start(); !s.is_ok()) {
    report.fail("starting the cluster: " + s.to_string());
    return {};
  }
  const gems::server::ClusterMetricsSnapshot a = f.db->cluster_metrics();
  const Replay r = replay(cw, std::move(requests), f, &unclustered, report);
  const gems::server::ClusterMetricsSnapshot b = f.db->cluster_metrics();

  ClusterFigures c;
  c.sim_match_ms_p50 = median(durations_ms(r.spans, "dist.sim_match"));
  std::vector<ClusterRequestParts> parts;
  for (std::size_t i = 0; i < r.recorded.size(); ++i) {
    if (r.jobs[i] > 0) parts.push_back({r.round_trip_ms[i], r.recorded[i].sim_ms});
  }
  c.job_overhead_ms_p50 = job_overhead_ms_p50(parts);
  const double jobs = static_cast<double>(b.jobs - a.jobs);
  double messages = 0, payload = 0, wire = 0, stall_us = 0, supersteps = 0;
  for (std::size_t k = 0; k < b.ranks.size(); ++k) {
    const auto& rb = b.ranks[k];
    const gems::server::ClusterRankMetrics ra =
        k < a.ranks.size() ? a.ranks[k] : gems::server::ClusterRankMetrics{};
    messages += static_cast<double>(rb.messages - ra.messages);
    payload += static_cast<double>(rb.payload_bytes - ra.payload_bytes);
    wire += static_cast<double>(rb.wire_bytes - ra.wire_bytes);
    stall_us += static_cast<double>(rb.stall_us - ra.stall_us);
    supersteps += static_cast<double>(rb.supersteps - ra.supersteps);
  }
  c.messages_per_job = per(messages, jobs);
  c.payload_bytes_per_job = per(payload, jobs);
  c.wire_bytes_per_job = per(wire, jobs);
  c.supersteps_per_job = per(supersteps, jobs);
  c.stall_ms_per_job = per(stall_us / 1000.0, jobs);
  const double fallbacks = static_cast<double>(b.fallbacks - a.fallbacks);
  c.fallback_ratio = per(fallbacks, jobs + fallbacks);
  c.sync_bytes = static_cast<double>(b.sync_bytes);
  c.spans = r.spans;
  return c;
}

}  // namespace

void traced_replay(const Workload& w, const RunOptions& o, Fixture& f,
                   const Domains& d, const LoadCounters& c, Report& report) {
  const Replay main =
      replay(w, replay_requests(w.kinds, d, mix_seed(o.seed, 1000)), f,
             nullptr, report);
  // Every span of the run, for the span file; the metrics below come from
  // the main replay's recorded pass alone.
  std::vector<Span> spans = main.spans;
  const std::size_t n_requests = main.requests.size();

  // ---- ingest_mix: batches through the durable ingest path, in spans.
  std::vector<IngestParts> ingests;
  std::vector<double> parse_ms;
  if (w.writer) {
    Tracer tracer(true);
    for (std::size_t k = 0; k < kReplayBatches; ++k) {
      const std::size_t b = f.batches_used + k;
      if (b >= f.batch_files.size()) break;
      const auto e0 = f.db->epoch_metrics();
      const auto s0 = f.db->store_metrics();
      IngestParts parts;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan s(tracer, "ingest.request", n_requests + k);
        auto r = f.db->run_script("ingest table Offers '" + f.batch_files[b] + "'");
        if (!r.is_ok()) report.fail("replay ingest: " + r.status().to_string());
      }
      parts.execute_ms = ms_since(t0, Clock::now());
      const auto e1 = f.db->epoch_metrics();
      const auto s1 = f.db->store_metrics();
      parts.delta_ms =
          static_cast<double>((e1.delta_build_ns - e0.delta_build_ns) +
                              (e1.rebuild_ns - e0.rebuild_ns)) / 1e6;
      parts.wal_ms =
          static_cast<double>(s1.wal_append_us.sum_us - s0.wal_append_us.sum_us) /
          1000.0;
      {
        // The storage CSV parser alone, on the same file, after the
        // database ingested it (so it does not warm the string pool).
        gems::storage::Table scratch("ParseOnly",
                                     (*f.db->table("Offers"))->schema(),
                                     f.db->pool());
        const Clock::time_point p0 = Clock::now();
        ScopedSpan s(tracer, "storage.csv_parse", n_requests + k);
        (void)gems::storage::ingest_csv_file(scratch,
                                             f.data_dir + "/" + f.batch_files[b]);
        parts.parse_ms = ms_since(p0, Clock::now());
      }
      parse_ms.push_back(parts.parse_ms);
      ingests.push_back(parts);
    }
    f.batches_used += ingests.size();
    append_spans(spans, tracer.spans(), 0);
  }

  // ---- bi_read: the same database through a 2-rank cluster.
  const ClusterFigures cl =
      w.cluster_replay ? cluster_replay(o, f, d, report) : ClusterFigures{};
  append_spans(spans, cl.spans, n_requests + kReplayBatches);

  const std::string trace_path =
      o.work_dir + "/spans_" + w.name + "_seed" + std::to_string(o.seed) + ".tsv";
  if (!write_spans(spans, trace_path)) report.fail("writing " + trace_path);

  double ir_bytes = 0;
  for (const auto& r : main.recorded) ir_bytes += static_cast<double>(r.ir_bytes);
  const double n = static_cast<double>(std::max<std::size_t>(n_requests, 1));
  std::vector<double> plan_stats_ms;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    const auto collected = gems::plan::GraphStats::collect(f.db->graph());
    plan_stats_ms.push_back(ms_since(t0, Clock::now()));
    (void)collected;
  }
  double table_query_s = total_ms(main.spans, "relational.table_query") / 1000.0;

  report.add("net.queue_wait_ms_p50", c.queue_wait_ms_p50, "ms");
  report.add("net.execute_ms_p50", c.execute_ms_p50, "ms");
  report.add("net.transport_ms_p50", median(main.transport_ms), "ms");
  report.add("net.bytes_out_per_query",
             per(std::accumulate(main.bytes_out.begin(), main.bytes_out.end(), 0.0),
                 static_cast<double>(main.bytes_out.size())),
             "bytes");
  report.add("net.result_codec_ms_p50", p50(main.spans, "net.result_codec"), "ms");
  report.add("graql.parse_ms_p50", p50(main.spans, "graql.parse"), "ms");
  report.add("graql.ir_decode_ms_p50", p50(main.spans, "graql.ir_decode"), "ms");
  report.add("graql.analyze_ms_p50", p50(main.spans, "graql.analyze"), "ms");
  report.add("graql.ir_bytes", ir_bytes / n, "bytes");
  report.add("server.meta_catalog_ms_p50", p50(main.spans, "server.meta_catalog"), "ms");
  report.add("server.exclusive_wait_ms", c.exclusive_wait_ms, "ms");
  report.add("server.exclusive_held_ms", c.exclusive_held_ms, "ms");
  report.add("server.shared_acquired", c.shared_acquired, "count");
  report.add("plan.schedule_ms_p50", p50(main.spans, "plan.schedule"), "ms");
  report.add("plan.plan_ms_p50", p50(main.spans, "plan.plan"), "ms");
  report.add("plan.stats_collect_ms", median(plan_stats_ms), "ms");
  report.add("exec.lower_ms_p50", p50(main.spans, "exec.lower"), "ms");
  report.add("exec.match_ms_p50", p50(main.spans, "exec.match"), "ms");
  report.add("exec.enumerate_ms_p50", p50(main.spans, "exec.enumerate"), "ms");
  report.add("exec.materialize_ms_p50", materialize_ms_p50(main.probes.graph_parts), "ms");
  report.add("exec.propagation_passes_per_query",
             static_cast<double>(main.match_after.propagation_passes -
                                 main.match_before.propagation_passes) / n,
             "count");
  report.add("exec.edge_traversals_per_query",
             static_cast<double>(main.match_after.edge_traversals -
                                 main.match_before.edge_traversals) / n,
             "count");
  report.add("relational.table_query_ms_p50", p50(main.spans, "relational.table_query"), "ms");
  report.add("relational.rows_in_per_s",
             per(main.probes.rows_in, table_query_s), "rows/s");
  report.add("relational.filter_ms", total_ms(main.spans, "relational.filter") / n, "ms");
  report.add("relational.group_by_ms", total_ms(main.spans, "relational.group_by") / n, "ms");
  report.add("relational.sort_ms", total_ms(main.spans, "relational.sort") / n, "ms");
  report.add("relational.materialize_ms",
             total_ms(main.spans, "relational.materialize") / n, "ms");
  report.add("graph.delta_ms_per_ingest", c.graph_delta_ms_per_ingest, "ms");
  report.add("graph.delta_ratio", c.graph_delta_ratio, "ratio");
  report.add("storage.csv_parse_ms_per_batch",
             per(std::accumulate(parse_ms.begin(), parse_ms.end(), 0.0),
                 static_cast<double>(parse_ms.size())),
             "ms");
  report.add("storage.ingest_self_ms_per_batch", ingest_self_ms_per_batch(ingests), "ms");
  report.add("mvcc.epochs_published", c.epochs_published, "count");
  report.add("mvcc.reads_per_epoch", c.reads_per_epoch, "count");
  report.add("mvcc.live_epochs", c.live_epochs, "count");
  report.add("mvcc.peak_pinned_readers", c.peak_pinned_readers, "count");
  report.add("mvcc.oldest_pin_age_ms", c.oldest_pin_age_ms, "ms");
  report.add("store.wal_append_ms_p50", c.store_wal_append_ms_p50, "ms");
  report.add("store.wal_bytes_per_row", c.store_wal_bytes_per_row, "bytes");
  report.add("store.snapshot_write_ms_p50", c.store_snapshot_write_ms_p50, "ms");
  report.add("store.snapshots_written", c.store_snapshots_written, "count");
  report.add("dist.sim_match_ms_p50", cl.sim_match_ms_p50, "ms");
  report.add("cluster.job_overhead_ms_p50", cl.job_overhead_ms_p50, "ms");
  report.add("cluster.messages_per_job", cl.messages_per_job, "count");
  report.add("cluster.payload_bytes_per_job", cl.payload_bytes_per_job, "bytes");
  report.add("cluster.wire_bytes_per_job", cl.wire_bytes_per_job, "bytes");
  report.add("cluster.supersteps_per_job", cl.supersteps_per_job, "count");
  report.add("cluster.stall_ms_per_job", cl.stall_ms_per_job, "ms");
  report.add("cluster.fallback_ratio", cl.fallback_ratio, "ratio");
  report.add("cluster.sync_bytes", cl.sync_bytes, "bytes");
  report.add("loadgen.ingest_late_ms_max", c.ingest_late_ms_max, "ms");
  const double off = median(main.off_ms);
  report.add("trace.overhead_pct", per(100.0 * (median(main.on_ms) - off), off),
             "%");
  report.add("trace.unattributed_pct", unattributed_pct(main.spans, "server.request"), "%");
}

}  // namespace e2e
