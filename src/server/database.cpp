#include "server/database.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/logging.hpp"
#include "exec/lowering.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "plan/planner.hpp"
#include "store/snapshot.hpp"

namespace gems::server {

using exec::StatementResult;
using graql::MetaCatalog;
using graql::Script;

Database::Database(DatabaseOptions options) : options_(std::move(options)) {
  ctx_.pool = &pool_;
  ctx_.data_dir = options_.data_dir;
  ctx_.max_result_rows = options_.max_result_rows;
  // gems::mvcc: ingest maintains the CSR graph incrementally. Set before
  // Store::open so WAL replay takes the identical per-record
  // delta-or-rebuild decisions the live execution took — that is what
  // makes recovery byte-identical.
  ctx_.incremental_ingest = options_.incremental_ingest;
  ctx_.batch_policy = options_.vectorized_execution
                          ? relational::BatchPolicy{}
                          : relational::BatchPolicy::row_engine();
  ctx_.on_graph_maintenance = [this](bool delta, std::uint64_t ns) {
    epochs_.record_maintenance(delta, ns);
  };
  if (options_.enable_planner) {
    // Sec. III-B's "dynamic properties of the data": graph statistics are
    // collected lazily and cached until DDL/ingest changes the instances
    // (graph_version), so per-query planning costs only the pivot choice.
    // This hook serves the writer path, which executes against the live
    // context under exclusive access.
    ctx_.planner = [this](const exec::ConstraintNetwork& net) {
      // The executor invokes this while a mutating script holds
      // exclusive access — on the holder's thread or on a statement-pool
      // task acting for it — or from single-threaded tooling driving the
      // live context directly (the unheld case the assert also
      // accepts), but the std::function boundary hides that from the
      // static analysis — assert the capability (runtime-checked) so
      // the guarded reads below are verified, not waived.
      access_.assert_exclusive_held();
      // Keep the snapshot alive across planning: a concurrent DDL/ingest
      // (impossible under exclusive access, but cheap to be safe) would
      // otherwise swap the cache out from under us.
      const std::shared_ptr<const plan::GraphStats> stats = cached_stats();
      const plan::PathPlan plan =
          plan::plan_network(net, ctx_.graph, pool_, *stats);
      return exec::NetworkPlan{plan.root_var, plan.constraint_order};
    };
    // Read paths execute against pinned epochs; each epoch carries a
    // planner over its own immutable graph with per-epoch memoized stats
    // (adopted from the previous epoch when the graph is unchanged). The
    // closure captures the epoch raw: it is stored inside that epoch's
    // context, so it cannot outlive what it points at.
    epochs_.set_planner_factory([this](const mvcc::GraphEpoch& epoch) {
      const mvcc::GraphEpoch* e = &epoch;
      return [this, e](const exec::ConstraintNetwork& net) {
        const std::shared_ptr<const plan::GraphStats> stats = e->stats();
        const plan::PathPlan plan =
            plan::plan_network(net, e->ctx().graph, pool_, *stats);
        return exec::NetworkPlan{plan.root_var, plan.constraint_order};
      };
    });
  }
  if (options_.parallel_statements) {
    statement_pool_ = std::make_unique<ThreadPool>(
        std::max(2u, std::thread::hardware_concurrency()));
  }
  if (options_.intra_node_threads > 0) {
    intra_pool_ = std::make_unique<ThreadPool>(options_.intra_node_threads);
    ctx_.intra_pool = intra_pool_.get();
  }

  if (!options_.store_dir.empty()) {
    // Recovery runs with the mutation hook unset, so replayed statements
    // are not re-logged. A failed open is fail-stop (see store_status()).
    store::StoreOptions sopts;
    sopts.dir = options_.store_dir;
    sopts.wal_fsync = options_.wal_fsync;
    auto store = store::Store::open(std::move(sopts), ctx_);
    if (!store.is_ok()) {
      store_status_ =
          store.status().with_context("opening persistent store");
      GEMS_LOG(Error) << store_status_.to_string();
      // Publish whatever recovered so introspection (catalog, stats) can
      // still pin an epoch; scripts fail-stop on store_status_ regardless.
      epochs_.publish(ctx_);
      return;
    }
    store_ = std::move(store).value();
    ctx_.on_mutation = [this](const exec::MutationEvent& ev) {
      sync::MutexLock lock(wal_mutex_);
      Status s = store_->log_mutation(ev);
      if (!s.is_ok()) {
        // The mutation is applied in memory but missing from the log:
        // continuing would serve state a restart cannot reproduce.
        sync::MutexLock status_lock(store_status_mutex_);
        store_status_ = s;
      }
      return s;
    };
  }
  // Epoch zero: the recovered (or empty) state. Every read path pins an
  // epoch, so one must exist before the first script — and before the
  // background checkpoint thread starts pinning.
  epochs_.publish(ctx_);
  if (store_ != nullptr) {
    if (options_.checkpoint_interval_ms > 0) {
      checkpoint_thread_ = std::thread([this] {
        sync::MutexLock lk(checkpoint_mutex_);
        while (!stop_checkpoint_) {
          checkpoint_cv_.wait_for(
              checkpoint_mutex_,
              std::chrono::milliseconds(options_.checkpoint_interval_ms));
          if (stop_checkpoint_) break;
          // Drop checkpoint_mutex_ around the checkpoint: it sits outside
          // the lock hierarchy and must never be held across the access
          // guard acquisition inside checkpoint().
          lk.unlock();
          const Status s = checkpoint();
          if (!s.is_ok()) {
            GEMS_LOG(Warning) << "background checkpoint failed: "
                              << s.to_string();
          }
          lk.lock();
        }
      });
    }
  }
}

Database::~Database() {
  if (checkpoint_thread_.joinable()) {
    {
      sync::MutexLock lk(checkpoint_mutex_);
      stop_checkpoint_ = true;
    }
    checkpoint_cv_.notify_all();
    checkpoint_thread_.join();
  }
}

Status Database::store_status() const {
  sync::MutexLock lock(store_status_mutex_);
  return store_status_;
}

Status Database::checkpoint() {
  if (store_ == nullptr) {
    return invalid_argument(
        "database has no persistent store (open with store_dir)");
  }
  // Serialize whole checkpoints: two interleaved capture/encode/finish
  // sequences could rotate the WAL on a stale sequence number.
  sync::MutexLock serial(checkpoint_serial_mutex_);
  mvcc::EpochPin pin;
  std::uint64_t seq = 0;
  {
    // Brief exclusive window — a statement boundary. The pinned epoch and
    // the WAL sequence number are captured consistently: the current
    // epoch is exactly the state the log reaches at `seq` (every
    // mutating script publishes before releasing exclusive access).
    // epoch-pin-lint: allow (pin taken *after* the acquisition; the scope
    // releases the guard while the pin stays live, never the reverse)
    const ExclusiveAccessLock lock(access_);
    GEMS_RETURN_IF_ERROR(store_status());
    pin = epochs_.pin();
    seq = store_->wal_seq();
  }
  // Encode outside every lock: writers keep publishing while the
  // (possibly large) image is built from the pinned immutable epoch.
  GEMS_RETURN_IF_ERROR(store_->write_snapshot(pin.ctx(), seq));
  pin.release();
  // Rotate under exclusive access so no writer appends mid-rotate.
  // finish_checkpoint skips the rotation when the WAL advanced past
  // `seq` while we encoded — the snapshot is still valid, replay skips
  // the records it covers.
  const ExclusiveAccessLock lock(access_);
  return store_->finish_checkpoint(seq);
}

void Database::refresh_epoch() {
  const ExclusiveAccessLock lock(access_);
  epochs_.publish(ctx_);
}

std::vector<std::uint8_t> Database::snapshot_bytes(
    std::uint64_t* graph_version) const {
  const mvcc::EpochPin pin = epochs_.pin();
  if (graph_version != nullptr) *graph_version = pin.ctx().graph_version;
  return store::encode_snapshot(pin.ctx(), 0);
}

void Database::set_cluster_metrics_provider(
    std::function<ClusterMetricsSnapshot()> provider) {
  sync::MutexLock lock(cluster_mutex_);
  cluster_provider_ = std::move(provider);
}

bool Database::has_cluster() const {
  sync::MutexLock lock(cluster_mutex_);
  return cluster_provider_ != nullptr;
}

ClusterMetricsSnapshot Database::cluster_metrics() const {
  std::function<ClusterMetricsSnapshot()> provider;
  {
    sync::MutexLock lock(cluster_mutex_);
    provider = cluster_provider_;
  }
  if (!provider) return {};
  return provider();
}

store::StoreMetricsSnapshot Database::store_metrics() const {
  if (store_ == nullptr) return {};
  return store_->metrics().snapshot();
}

exec::MatcherMetricsSnapshot Database::match_metrics() const {
  return ctx_.matcher_metrics->snapshot();
}

std::shared_ptr<const plan::GraphStats> Database::cached_stats() {
  sync::MutexLock lock(stats_mutex_);
  if (stats_ == nullptr || stats_version_ != ctx_.graph_version) {
    stats_ = std::make_shared<const plan::GraphStats>(
        plan::GraphStats::collect(ctx_.graph));
    stats_version_ = ctx_.graph_version;
  }
  return stats_;
}

MetaCatalog Database::meta_catalog() const {
  const mvcc::EpochPin pin = epochs_.pin();
  return meta_catalog_from(pin.ctx());
}

MetaCatalog Database::meta_catalog_from(const exec::ExecContext& ctx) const {
  MetaCatalog meta;
  for (const auto& name : ctx.tables.names()) {
    auto table = ctx.tables.find(name);
    GEMS_CHECK(table.is_ok());
    GEMS_CHECK(meta.add_table(name, (*table)->schema()).is_ok());
  }
  for (const auto& decl : ctx.vertex_decls) {
    auto table = ctx.tables.find(decl.table);
    GEMS_CHECK(table.is_ok());
    GEMS_CHECK(meta.add_vertex(decl.name,
                               graql::VertexMeta{decl.table,
                                                 (*table)->schema(),
                                                 decl.key_columns})
                   .is_ok());
  }
  for (const auto& decl : ctx.edge_decls) {
    std::optional<storage::Schema> attrs;
    auto id = ctx.graph.find_edge_type(decl.name);
    if (id.is_ok()) {
      const storage::Table* attr_table =
          ctx.graph.edge_type(id.value()).attr_table();
      if (attr_table != nullptr) attrs = attr_table->schema();
    }
    GEMS_CHECK(meta.add_edge(decl.name,
                             graql::EdgeMeta{decl.source.vertex_type,
                                             decl.target.vertex_type,
                                             std::move(attrs)})
                   .is_ok());
  }
  for (const auto& [name, subgraph] : ctx.subgraphs) {
    graql::SubgraphMeta sm;
    for (graph::VertexTypeId t = 0; t < ctx.graph.num_vertex_types(); ++t) {
      const DynamicBitset* bits = subgraph->vertices(t);
      if (bits != nullptr && bits->any()) {
        sm.vertex_steps.insert(ctx.graph.vertex_type(t).name());
      }
    }
    meta.add_subgraph(name, std::move(sm));
  }
  return meta;
}

Status Database::check_script(const std::string& text,
                              const relational::ParamMap* params) const {
  GEMS_ASSIGN_OR_RETURN(Script script, graql::parse_script(text));
  MetaCatalog meta = meta_catalog();
  return graql::analyze_script(script, meta, params);
}

Result<std::vector<graql::Diagnostic>> Database::check(
    const std::string& text, const relational::ParamMap* params) {
  graql::DiagnosticEngine diags;
  Script script = graql::parse_script_collect(text, diags);
  check_parsed(script, diags, params);
  return diags.take();
}

Result<std::vector<graql::Diagnostic>> Database::check_ir(
    std::span<const std::uint8_t> ir, const relational::ParamMap* params) {
  GEMS_ASSIGN_OR_RETURN(Script script, graql::decode_script(ir));
  graql::DiagnosticEngine diags;
  check_parsed(script, diags, params);
  return diags.take();
}

void Database::check_parsed(const Script& script,
                            graql::DiagnosticEngine& diags,
                            const relational::ParamMap* params) {
  // Analysis only reads catalog/graph state: pin the current epoch and
  // analyze against that immutable snapshot — zero coordination with
  // writers or other readers.
  const mvcc::EpochPin pin = epochs_.pin();
  const exec::ExecContext& snap = pin.ctx();
  MetaCatalog meta = meta_catalog_from(snap);
  const std::shared_ptr<const plan::GraphStats> stats = pin.epoch().stats();
  graql::AnalyzeOptions opts;
  opts.params = params;
  // Pass 4 consumes plan-layer degree statistics; graql sits below plan in
  // the dependency order, so they arrive through this callback. Both the
  // stats snapshot and the epoch outlive the analysis (the pin holds the
  // epoch for this whole function).
  opts.edge_stats = [&snap, stats](const std::string& name)
      -> std::optional<graql::EdgeDegreeInfo> {
    auto id = snap.graph.find_edge_type(name);
    if (!id.is_ok() || id.value() >= stats->edge_stats.size()) {
      return std::nullopt;
    }
    const plan::EdgeTypeStats& es = stats->edge_stats[id.value()];
    graql::EdgeDegreeInfo info;
    info.num_edges = es.num_edges;
    info.avg_out = es.degrees.avg_out;
    info.avg_in = es.degrees.avg_in;
    info.max_out = es.degrees.max_out;
    info.max_in = es.degrees.max_in;
    return info;
  };
  graql::analyze_script_collect(script, meta, diags, opts);
}

Result<std::string> Database::explain(const std::string& text,
                                      const relational::ParamMap& params) {
  GEMS_ASSIGN_OR_RETURN(Script script, graql::parse_script(text));
  return explain_parsed(script, params);
}

Result<std::string> Database::explain_ir(std::span<const std::uint8_t> ir,
                                         const relational::ParamMap& params) {
  GEMS_ASSIGN_OR_RETURN(Script script, graql::decode_script(ir));
  return explain_parsed(script, params);
}

Result<std::string> Database::explain_parsed(
    const Script& script, const relational::ParamMap& params) {
  // Planning reads the graph, statistics and subgraph catalog but mutates
  // nothing: pin the current epoch and plan against it.
  const mvcc::EpochPin pin = epochs_.pin();
  const exec::ExecContext& snap = pin.ctx();
  MetaCatalog meta = meta_catalog_from(snap);
  GEMS_RETURN_IF_ERROR(graql::analyze_script(script, meta, &params));

  std::ostringstream out;
  const std::shared_ptr<const plan::GraphStats> stats = pin.epoch().stats();
  exec::SubgraphResolver resolver =
      [&snap](const std::string& name) -> Result<exec::SubgraphPtr> {
    auto it = snap.subgraphs.find(name);
    if (it == snap.subgraphs.end()) {
      return not_found("unknown result subgraph '" + name + "'");
    }
    return it->second;
  };

  for (std::size_t i = 0; i < script.statements.size(); ++i) {
    const graql::Statement& stmt = script.statements[i];
    const std::string rendered = graql::to_string(stmt);
    out << "-- statement " << (i + 1) << ": " << rendered.substr(0, 72)
        << (rendered.size() > 72 ? "..." : "") << "\n";
    const auto* q = std::get_if<graql::GraphQueryStmt>(&stmt);
    if (q == nullptr) {
      out << "   (no path plan)\n";
      continue;
    }
    GEMS_ASSIGN_OR_RETURN(
        exec::LoweredQuery lowered,
        exec::lower_graph_query(*q, snap.graph, resolver, params, pool_));
    for (std::size_t n = 0; n < lowered.networks.size(); ++n) {
      const exec::ConstraintNetwork& net = lowered.networks[n];
      if (lowered.networks.size() > 1) out << "   or-branch " << n << ":\n";
      for (std::size_t v = 0; v < net.num_vars(); ++v) {
        const double card = plan::estimate_cardinality(
            net, snap.graph, pool_, *stats, static_cast<int>(v));
        out << "   var " << v << " (" << net.vars[v].display
            << "): est. " << static_cast<std::size_t>(card)
            << " candidates\n";
      }
      const plan::PathPlan path_plan = options_.enable_planner
                                           ? plan::plan_network(
                                                 net, snap.graph, pool_,
                                                 *stats)
                                           : plan::lexical_plan(net);
      out << "   pivot: var " << path_plan.root_var << " ("
          << net.vars[path_plan.root_var].display << "), order:";
      for (const int c : path_plan.constraint_order) out << " " << c;
      out << (net.tree_exact ? "  [fixpoint-exact]\n"
                             : "  [needs enumeration]\n");
    }
  }
  const plan::Schedule schedule = plan::build_schedule(script);
  out << "-- schedule: " << schedule.levels.size() << " level(s), max width "
      << schedule.max_width() << "\n";
  return out.str();
}

Result<std::vector<StatementResult>> Database::run_script(
    const std::string& text, const relational::ParamMap& params) {
  // 1. Front-end: parse.
  GEMS_ASSIGN_OR_RETURN(Script script, graql::parse_script(text));

  // 2. Hand-off: compile to the binary IR and decode it "on the backend"
  //    (Sec. III). The decoded script is what gets analyzed and executed,
  //    exactly as if it had arrived over the wire (net::Server feeds
  //    run_ir with remotely-encoded blobs through the same path).
  if (!options_.skip_ir_roundtrip) {
    const std::vector<std::uint8_t> ir = graql::encode_script(script);
    GEMS_ASSIGN_OR_RETURN(script, graql::decode_script(ir));
  }

  return run_parsed(std::move(script), params);
}

Result<std::vector<StatementResult>> Database::run_ir(
    std::span<const std::uint8_t> ir, const relational::ParamMap& params) {
  GEMS_ASSIGN_OR_RETURN(Script script, graql::decode_script(ir));
  return run_parsed(std::move(script), params);
}

Result<std::vector<StatementResult>> Database::run_parsed(
    Script script, const relational::ParamMap& params) {
  // Classify before locking: the schedule (and its barrier analysis) only
  // depends on the script text, not on database state.
  const plan::Schedule schedule = plan::build_schedule(script);
  if (plan::script_is_read_only(script)) {
    GEMS_RETURN_IF_ERROR(store_status());
    std::vector<StatementResult> results;
    std::uint64_t renumber_at_read = 0;
    std::uint64_t version_at_read = 0;
    {
      // Pin the current epoch and run the script on a script-local copy
      // of its context — no lock is held for the read, so a writer can
      // publish any number of new epochs meanwhile; the pin keeps our
      // state alive and byte-stable (deferred retirement). The copy is
      // shallow (tables, types and subgraphs are shared_ptrs): params
      // bind into it and `into` results register in its catalog only,
      // where later statements of the script resolve them.
      const mvcc::EpochPin pin = epochs_.pin();
      if (!options_.skip_static_analysis) {
        MetaCatalog meta = meta_catalog_from(pin.ctx());
        GEMS_RETURN_IF_ERROR(graql::analyze_script(script, meta, &params));
      }
      exec::ExecContext local = pin.ctx();
      local.params = params;
      renumber_at_read = local.renumber_version;
      version_at_read = local.graph_version;
      GEMS_ASSIGN_OR_RETURN(
          results, plan::run_scheduled(script, schedule, local,
                                       options_.parallel_statements
                                           ? statement_pool_.get()
                                           : nullptr));
    }
    if (std::none_of(results.begin(), results.end(),
                     [](const StatementResult& r) {
                       return r.into != graql::IntoKind::kNone;
                     })) {
      return results;
    }

    // Fold the script's `into` results into the live context in script
    // order and publish a fresh epoch, all under brief exclusive access —
    // no reader ever observes a half-committed catalog (they pin whole
    // epochs).
    const ExclusiveAccessLock commit(access_);
    if (ctx_.renumber_version != renumber_at_read &&
        std::any_of(results.begin(), results.end(),
                    [](const StatementResult& r) {
                      return r.into == graql::IntoKind::kSubgraph;
                    })) {
      // A full graph rebuild happened between pin and fold, so existing
      // vertex/edge numbering may have changed and the subgraph bitsets
      // are meaningless against the live graph. Rare: incremental ingest
      // preserves numbering (base rows keep their indices) and does not
      // bump renumber_version — only a fallback rebuild (parameterized
      // declarations, a one-to-one key collapse) or explicit DDL does.
      return unavailable(
          "concurrent ingest/DDL renumbered the graph under this script's "
          "subgraph results; re-run the script");
    }
    for (const StatementResult& r : results) {
      exec::commit_result(r, ctx_);
      if (r.into == graql::IntoKind::kSubgraph &&
          ctx_.graph_version != version_at_read) {
        // Numbering is intact but the graph grew (delta ingests since the
        // pin): pad the bitsets to the live type sizes.
        exec::SubgraphPtr& sub = ctx_.subgraphs[r.into_name];
        sub = sub->resized_for(ctx_.graph);
      }
    }
    epochs_.publish(ctx_);
    return results;
  }

  // Mutating script: sole holder — excludes other writers, `into` folds
  // and checkpoint capture windows while it applies. Readers are
  // unaffected: they execute against previously pinned epochs.
  const ExclusiveAccessLock lock(access_);

  // Fail-stop: a broken store (failed open, or a WAL append that diverged
  // the log from memory) refuses all further scripts.
  GEMS_RETURN_IF_ERROR(store_status());

  // Front-end: static analysis against the metadata catalog (Sec. III-A).
  // Params are known here, so their types participate.
  if (!options_.skip_static_analysis) {
    MetaCatalog meta = meta_catalog_from(ctx_);
    GEMS_RETURN_IF_ERROR(graql::analyze_script(script, meta, &params));
  }

  // Backend: dependence scheduling (Sec. III-B1) + execution. Skip the
  // ParamMap copy when both maps are empty (the common no-params case);
  // when the previous script bound params, assignment also clears them.
  // Statement-pool tasks of a parallel level act for this thread, so the
  // live planner's owner assert accepts them while we hold the lock.
  if (!params.empty() || !ctx_.params.empty()) ctx_.params = params;
  auto results = plan::run_scheduled(script, schedule, ctx_,
                                     options_.parallel_statements
                                         ? statement_pool_.get()
                                         : nullptr);
  // Publish the post-script state as a new epoch — also on error: a
  // mid-script failure may have applied earlier statements, and readers
  // must see that state, not a snapshot that pretends it never happened.
  epochs_.publish(ctx_);
  return results;
}

Result<StatementResult> Database::run_statement(
    const std::string& text, const relational::ParamMap& params) {
  GEMS_ASSIGN_OR_RETURN(auto results, run_script(text, params));
  if (results.empty()) {
    return invalid_argument("no statement in input");
  }
  return std::move(results.back());
}

Result<exec::SubgraphPtr> Database::subgraph(const std::string& name) const {
  const mvcc::EpochPin pin = epochs_.pin();
  auto it = pin.ctx().subgraphs.find(name);
  if (it == pin.ctx().subgraphs.end()) {
    return not_found("no subgraph named '" + name + "'");
  }
  return it->second;
}

std::vector<CatalogEntry> Database::catalog() const {
  const mvcc::EpochPin pin = epochs_.pin();
  return catalog_from(pin.ctx());
}

std::vector<CatalogEntry> Database::catalog_from(
    const exec::ExecContext& ctx) const {
  std::vector<CatalogEntry> entries;
  for (const auto& name : ctx.tables.names()) {
    auto table = ctx.tables.find(name);
    GEMS_CHECK(table.is_ok());
    entries.push_back({CatalogEntry::Kind::kTable, name,
                       (*table)->num_rows(), (*table)->byte_size()});
  }
  for (graph::VertexTypeId t = 0; t < ctx.graph.num_vertex_types(); ++t) {
    const auto& vt = ctx.graph.vertex_type(t);
    entries.push_back({CatalogEntry::Kind::kVertexType, vt.name(),
                       vt.num_vertices(), 0});
  }
  for (graph::EdgeTypeId e = 0; e < ctx.graph.num_edge_types(); ++e) {
    const auto& et = ctx.graph.edge_type(e);
    entries.push_back(
        {CatalogEntry::Kind::kEdgeType, et.name(), et.num_edges(),
         et.forward().byte_size() + et.reverse().byte_size()});
  }
  for (const auto& [name, subgraph] : ctx.subgraphs) {
    entries.push_back({CatalogEntry::Kind::kSubgraph, name,
                       subgraph->num_vertices() + subgraph->num_edges(), 0});
  }
  return entries;
}

std::string render_catalog(const std::vector<CatalogEntry>& entries) {
  std::ostringstream out;
  auto kind_name = [](CatalogEntry::Kind k) {
    switch (k) {
      case CatalogEntry::Kind::kTable:
        return "table   ";
      case CatalogEntry::Kind::kVertexType:
        return "vertex  ";
      case CatalogEntry::Kind::kEdgeType:
        return "edge    ";
      case CatalogEntry::Kind::kSubgraph:
        return "subgraph";
    }
    return "?";
  };
  for (const auto& e : entries) {
    out << kind_name(e.kind) << "  " << e.name << "  " << e.instances
        << " instances";
    if (e.byte_size > 0) out << ", " << e.byte_size << " bytes";
    out << "\n";
  }
  return out.str();
}

std::string Database::catalog_summary() const {
  return render_catalog(catalog());
}

}  // namespace gems::server
