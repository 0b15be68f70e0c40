#include "workloads.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "bsbm/queries.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "storage/type.hpp"

namespace e2e {

namespace fs = std::filesystem;
using gems::Status;
using gems::storage::Value;

// ---- Requests ------------------------------------------------------------

Domains domains_for(std::uint64_t seed) {
  const auto config = gems::bsbm::GeneratorConfig::derive(kScale, seed);
  Domains d;
  d.products = config.num_products;
  d.types = config.num_types;
  d.producers = config.num_producers;
  d.vendors = config.num_vendors;
  return d;
}

namespace {

Value draw_param(const std::string& name, const Domains& d, Rng& rng) {
  const auto& countries = gems::bsbm::countries();
  if (name == "Country1" || name == "Country2") {
    return Value::varchar(countries[rng.below(countries.size())]);
  }
  if (name == "Product1") {
    return Value::varchar(gems::bsbm::product_id(rng.below(d.products)));
  }
  if (name == "Type1") {
    return Value::varchar(gems::bsbm::type_id(rng.below(d.types)));
  }
  if (name == "Producer1") {
    return Value::varchar(gems::bsbm::producer_id(rng.below(d.producers)));
  }
  if (name == "Date1") {
    return Value::date(gems::storage::civil_to_days(2008, 1, 1) +
                       static_cast<std::int64_t>(rng.below(365)));
  }
  if (name == "Price1") {
    return Value::float64(500.0 + static_cast<double>(rng.below(4500)));
  }
  if (name == "Days1") {
    return Value::int64(static_cast<std::int64_t>(1 + rng.below(14)));
  }
  GEMS_CHECK_MSG(false, ("unknown benchmark parameter " + name).c_str());
  return Value::null();
}

}  // namespace

RequestStream::RequestStream(const std::vector<RequestKind>& kinds,
                             const Domains& domains, std::uint64_t seed)
    : kinds_(kinds), domains_(domains), rng_(seed) {}

Request RequestStream::next() {
  if (pos_ == 0) deck_ = shuffled_deck(kinds_.size(), rng_);
  Request r;
  r.kind = deck_[pos_];
  pos_ = (pos_ + 1) % kinds_.size();
  const RequestKind& kind = kinds_[r.kind];
  r.text = kind.text;
  for (const std::string& p : kind.params) {
    r.params.emplace(p, draw_param(p, domains_, rng_));
  }
  return r;
}

// ---- Workloads -------------------------------------------------------------

namespace {

/// The `select ... from graph` statements of a script (its blank-line
/// separated statements that read the graph).
std::string graph_statements(const std::string& script) {
  std::string out;
  std::size_t pos = 0;
  while (pos < script.size()) {
    std::size_t end = script.find("\n\n", pos);
    if (end == std::string::npos) end = script.size();
    const std::string stmt = script.substr(pos, end - pos);
    if (stmt.find("from graph") != std::string::npos) out += stmt + "\n\n";
    pos = end + 2;
  }
  return out;
}

/// Table-I statements over the full Offers and Reviews tables; an odd
/// count keeps the p50 inside one statement's latency band.
std::vector<RequestKind> table_kinds() {
  return {
      {"select_where", "select id, price from table Offers where price > %Price1%",
       {"Price1"}},
      {"projection",
       "select id as offer, price as cost, vendor from table Offers", {}},
      {"group_by",
       "select product, count(*) as n, avg(price) as mean from table Offers "
       "group by product",
       {}},
      {"distinct", "select distinct vendor from table Offers", {}},
      {"min_max",
       "select min(price) as lo, max(price) as hi, min(validFrom) as first, "
       "max(validTo) as last from table Offers",
       {}},
      {"sum_avg",
       "select sum(deliveryDays) as days, avg(price) as mean from table Offers",
       {}},
      {"top_n", "select top 10 id, price from table Offers order by price, id",
       {}},
      {"full_pipeline",
       "select top 5 vendor, count(*) as n, avg(price) as mean from table "
       "Offers where deliveryDays <= %Days1% group by vendor "
       "order by mean desc, vendor",
       {"Days1"}},
      {"reviews_top",
       "select top 10 reviewFor, avg(ratings_1) as score, count(*) as n "
       "from table Reviews group by reviewFor order by score desc, reviewFor",
       {}},
  };
}

/// Offer-touching point queries for the readers of ingest_mix, after Q3
/// (a type's offers) and Q8 (a product's offers and vendors), plus a
/// producer's offers. Single graph statements without `into`: a reader
/// then never takes exclusive access, so the writer can slow it only
/// through shared cores, memory and epoch publication — the reader of
/// ROADMAP 2(d). (Berlin scripts stage `into` results, which commit under
/// exclusive access and so queue behind each ingest's fsynced WAL append;
/// bi_read runs them.)
std::vector<RequestKind> offer_kinds() {
  return {
      {"type_offers",
       "select OfferVtx.id, OfferVtx.price, VendorVtx.country from graph "
       "TypeVtx (id = %Type1%) <--type-- ProductVtx () <--product-- "
       "OfferVtx () --vendor--> VendorVtx ()",
       {"Type1"}},
      {"product_offers",
       "select OfferVtx.id, VendorVtx.id as vendor from graph "
       "ProductVtx (id = %Product1%) <--product-- OfferVtx () --vendor--> "
       "VendorVtx ()",
       {"Product1"}},
      {"producer_offers",
       "select OfferVtx.id, OfferVtx.price from graph "
       "ProducerVtx (id = %Producer1%) <--producer-- ProductVtx () "
       "<--product-- OfferVtx ()",
       {"Producer1"}},
  };
}

std::vector<RequestKind> cluster_kinds() {
  std::vector<RequestKind> kinds;
  for (const auto& q : gems::bsbm::all_queries()) {
    kinds.push_back({q.name + "_graph", graph_statements(q.text), q.params});
  }
  // The chain pattern of bench/bench_cluster.cpp, from its country 'US'
  // and from 'DE'. The bench selects `*`; at this scale that ships every
  // attribute of ~20k matches (2a's cost, which table_scan measures), so
  // here it selects the two end ids and the cluster job stays the main
  // cost. Two chains make the deck odd-sized (11), which puts the p50
  // inside one kind's latency band.
  for (const char* country : {"US", "DE"}) {
    kinds.push_back(
        {std::string("chain_") + country,
         std::string("select PersonVtx.id, ProducerVtx.id as producer from "
                     "graph PersonVtx(country = '") +
             country +
             "') <--reviewer-- ReviewVtx() --reviewFor--> ProductVtx() "
             "--producer--> ProducerVtx() into table ChainT",
         {}});
  }
  return kinds;
}

}  // namespace

bool make_workload(const std::string& name, unsigned cores, Workload& out) {
  out = Workload{};
  out.name = name;
  if (name == "bi_read") {
    for (const auto& q : gems::bsbm::all_queries()) {
      out.kinds.push_back({q.name, q.text, q.params});
    }
    out.readers = cores;
    out.cluster_replay = true;
  } else if (name == "table_scan") {
    out.kinds = table_kinds();
    out.ingest_replay = true;
  } else {
    return false;
  }
  return true;
}

const std::vector<std::string>& ingest_layer_metrics() {
  static const std::vector<std::string> names = {
      "server.exclusive_wait_ms",   "server.exclusive_held_ms",
      "graph.delta_ms_per_ingest",  "graph.delta_ratio",
      "storage.csv_parse_ms_per_batch",
      "storage.ingest_self_ms_per_batch",
      "mvcc.epochs_published",      "mvcc.reads_per_epoch",
      "mvcc.live_epochs",           "mvcc.peak_pinned_readers",
      "mvcc.oldest_pin_age_ms",     "store.wal_append_ms_p50",
      "store.wal_bytes_per_row",    "store.snapshot_write_ms_p50",
      "store.snapshots_written",    "store.recovery_snapshot_s",
      "store.recovery_replay_s",    "store.recovery_records_applied",
      "loadgen.ingest_late_ms_max", "ingest_p50_ms",
      "ingest_tail_ms",             "recover_s",
      "store_mb",
  };
  return names;
}

Workload ingest_workload(unsigned cores) {
  Workload w;
  w.name = "ingest_mix";
  w.kinds = offer_kinds();
  w.readers = std::max(1u, cores - 1);
  w.tail_quantile = 0.99;
  w.writer = true;
  w.durable = true;
  return w;
}

Workload cluster_workload() {
  Workload w;
  w.name = "cluster";
  w.kinds = cluster_kinds();
  w.cluster = true;
  return w;
}

// ---- Fixture ---------------------------------------------------------------

LoopbackCluster::LoopbackCluster(gems::server::Database& db,
                                 std::size_t ranks)
    : ranks_(ranks) {
  gems::cluster::CoordinatorOptions opt;
  opt.num_ranks = ranks;
  coordinator_ = std::make_unique<gems::cluster::Coordinator>(db, opt);
}

Status LoopbackCluster::start() {
  GEMS_RETURN_IF_ERROR(coordinator_->start());
  for (std::size_t r = 0; r < ranks_; ++r) {
    gems::cluster::RankWorkerOptions wopt;
    wopt.coordinator_port = coordinator_->port();
    wopt.rank = static_cast<std::uint32_t>(r);
    workers_.push_back(
        std::make_unique<gems::cluster::RankWorker>(std::move(wopt)));
    threads_.emplace_back([w = workers_.back().get()] {
      const Status s = w->run();
      if (!s.is_ok()) std::cerr << "rank worker: " << s.to_string() << "\n";
    });
  }
  GEMS_RETURN_IF_ERROR(coordinator_->wait_for_ranks());
  coordinator_->attach();
  return Status::ok();
}

LoopbackCluster::~LoopbackCluster() {
  coordinator_->shutdown();
  for (auto& t : threads_) t.join();
}

Fixture::~Fixture() {
  if (server) server->stop();
  server.reset();
  cluster.reset();
  db.reset();
}

namespace {

gems::server::DatabaseOptions database_options(const Workload& w,
                                               const std::string& store_dir,
                                               const std::string& data_dir) {
  gems::server::DatabaseOptions o;
  if (w.durable) {
    o.store_dir = store_dir;
    o.data_dir = data_dir;
    o.wal_fsync = true;
    o.checkpoint_interval_ms = kCheckpointIntervalMs;
  }
  return o;
}

/// Progress on standard error, so a run that overstays shows where.
void progress(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  std::cerr << "[" << ms_since(start, Clock::now()) / 1000.0 << " s] " << what
            << std::endl;
}

/// Ends the run without a result (exit code 2) when set-up or a check's
/// own machinery fails. _Exit: server and cluster threads are still live.
void must(const Status& s, const char* what) {
  if (!s.is_ok()) {
    std::cout.flush();
    std::cerr << what << ": " << s.to_string() << std::endl;
    std::_Exit(2);
  }
}

/// Builds the system under test and returns the timed set-up seconds:
/// data generation, graph build, the initial checkpoint (durable) and
/// server start. `between` runs untimed after the database exists and
/// before the server starts (benchmark-side work: expected results,
/// batch files).
double build_fixture(const Workload& w, const RunOptions& o, Fixture& f,
                     const std::function<void(Fixture&)>& between) {
  f.store_dir = o.work_dir + "/store";
  f.data_dir = o.work_dir + "/batches";
  std::error_code ec;
  fs::remove_all(f.store_dir, ec);
  fs::create_directories(f.store_dir);
  fs::create_directories(f.data_dir);

  const Clock::time_point t0 = Clock::now();
  auto db = gems::bsbm::make_populated_database(
      gems::bsbm::GeneratorConfig::derive(kScale, o.seed),
      database_options(w, f.store_dir, f.data_dir));
  must(db.status(), "generating the dataset");
  f.db = std::move(db).value();
  if (w.durable) must(f.db->checkpoint(), "initial checkpoint");
  double seconds = ms_since(t0, Clock::now()) / 1000.0;

  if (between) between(f);

  const Clock::time_point t1 = Clock::now();
  f.server = std::make_unique<gems::net::Server>(*f.db);
  must(f.server->start(), "starting the server");
  seconds += ms_since(t1, Clock::now()) / 1000.0;
  return seconds;
}

/// Writes the ingest batches: kBatchRows new offers each, with unique ids
/// after the generated ones, on existing products and vendors.
void write_batches(const Domains& d, std::uint64_t seed, std::size_t count,
                   Fixture& f) {
  Rng rng(mix_seed(seed, 7));
  std::size_t next_id = d.offers;
  const std::int64_t day0 = gems::storage::civil_to_days(2008, 1, 1);
  for (std::size_t b = 0; b < count; ++b) {
    std::ostringstream csv;
    for (std::size_t i = 0; i < kBatchRows; ++i) {
      const std::int64_t from = day0 + static_cast<std::int64_t>(rng.below(300));
      const std::int64_t to = from + 10 + static_cast<std::int64_t>(rng.below(81));
      csv << gems::bsbm::offer_id(next_id++) << ",Offer,"
          << gems::bsbm::product_id(rng.below(d.products)) << ','
          << gems::bsbm::vendor_id(rng.below(d.vendors)) << ','
          << 5.0 + rng.uniform() * rng.uniform() * 10000.0 << ','
          << gems::storage::format_date(from) << ','
          << gems::storage::format_date(to) << ',' << 1 + rng.below(14)
          << ",web,bench,"
          << gems::storage::format_date(day0 + static_cast<std::int64_t>(rng.below(365)))
          << '\n';
    }
    const std::string name = "batch_" + std::to_string(b) + ".csv";
    std::ofstream out(f.data_dir + "/" + name, std::ios::trunc);
    out << csv.str();
    must(out.good() ? Status::ok() : gems::io_error("writing " + name),
         "writing an ingest batch");
    f.batch_files.push_back(name);
  }
}

// ---- Load phase ------------------------------------------------------------

struct SessionResult {
  std::vector<double> latencies_ms;
  std::vector<std::size_t> kinds;  // request kind of each latency
  std::uint64_t attempted = 0;     // warm-up included
  std::uint64_t failed = 0;
  std::uint64_t timed_ok = 0;      // completed in the timed phase
  std::vector<std::string> mismatches;  // first deck vs in-process
  std::string error;
};

struct LoadResult {
  std::vector<SessionResult> sessions;
  std::vector<OpenLoopSample> writes;
  std::uint64_t writes_failed = 0;
  std::string writer_error;
  double elapsed_s = 0;
};

gems::net::ClientOptions client_options(const Fixture& f,
                                        const std::string& name) {
  gems::net::ClientOptions c;
  c.port = f.server->port();
  c.client_name = name;
  return c;
}

/// In-process results of one session's first deck, per request.
using ExpectedDeck = std::vector<std::vector<gems::exec::StatementResult>>;

/// When the timed phase runs; set once every session has warmed up.
struct Phase {
  Clock::time_point start;
  Clock::time_point deadline;
};

/// Completion step of the warm-up barrier: opens the timed phase. It runs
/// before any session is released, so the sessions read `phase` safely.
struct OpenPhase {
  Phase* phase;
  Clock::duration run_for;
  void operator()() noexcept {
    phase->start = Clock::now();
    phase->deadline = phase->start + run_for;
  }
};
using WarmUp = std::barrier<OpenPhase>;

void reader_session(const Workload& w, const Domains& d, std::uint64_t seed,
                    std::size_t index, const Fixture& f,
                    const ExpectedDeck* expected, WarmUp& warm,
                    const Phase& phase, SessionResult& out) {
  gems::net::Client client(client_options(f, "reader"));
  const Status s = client.connect();
  if (!s.is_ok()) {
    out.error = s.to_string();
    warm.arrive_and_drop();
    return;
  }
  RequestStream stream(w.kinds, d, mix_seed(seed, 100 + index));
  // The first deck warms the session and the server up and is the one
  // checked against in-process execution; it is not timed.
  for (std::size_t k = 0; k < w.kinds.size(); ++k) {
    const Request req = stream.next();
    auto r = client.run_script(req.text, req.params);
    ++out.attempted;
    std::string why;
    if (!r.is_ok()) {
      ++out.failed;
      if (out.error.empty()) out.error = r.status().to_string();
    } else if (expected != nullptr && !same_results((*expected)[k], *r, &why)) {
      out.mismatches.push_back(w.kinds[req.kind].name + ": " + why);
    }
  }
  warm.arrive_and_wait();

  // A closed loop ends on a deck boundary, so every kind keeps its share;
  // the hard stop only guards against a stalled server.
  const Clock::time_point hard_stop = phase.deadline + std::chrono::seconds(30);
  while ((Clock::now() < phase.deadline || !stream.at_deck_boundary()) &&
         Clock::now() < hard_stop) {
    const Request req = stream.next();
    const Clock::time_point t0 = Clock::now();
    auto r = client.run_script(req.text, req.params);
    const double ms = ms_since(t0, Clock::now());
    ++out.attempted;
    if (r.is_ok()) {
      ++out.timed_ok;
    } else {
      ++out.failed;
      if (out.error.empty()) out.error = r.status().to_string();
    }
    out.latencies_ms.push_back(r.is_ok() ? ms : std::max(ms, kFailedRequestMs));
    out.kinds.push_back(req.kind);
  }
}

void writer_session(const Fixture& f, double seconds, WarmUp& warm,
                    const Phase& phase, LoadResult& out) {
  gems::net::Client client(client_options(f, "writer"));
  const Status s = client.connect();
  if (!s.is_ok()) {
    out.writer_error = s.to_string();
    warm.arrive_and_drop();
    return;
  }
  warm.arrive_and_wait();
  for (std::size_t i = 0;; ++i) {
    const double due = due_time_ms(i, kWriterRatePerS);
    if (due >= seconds * 1000.0 || i >= f.batch_files.size()) break;
    std::this_thread::sleep_until(
        phase.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(due)));
    OpenLoopSample sample;
    sample.due_ms = due;
    sample.sent_ms = ms_since(phase.start, Clock::now());
    auto r = client.run_script("ingest table Offers '" + f.batch_files[i] + "'");
    sample.done_ms = ms_since(phase.start, Clock::now());
    if (!r.is_ok()) {
      ++out.writes_failed;
      sample.done_ms = std::max(sample.done_ms, sample.due_ms + kFailedRequestMs);
      if (out.writer_error.empty()) out.writer_error = r.status().to_string();
    }
    out.writes.push_back(sample);
  }
}

LoadResult run_load(const Workload& w, const Domains& d, const RunOptions& o,
                    const Fixture& f, const std::vector<ExpectedDeck>& expected) {
  LoadResult load;
  load.sessions.resize(w.readers);
  Phase phase;
  WarmUp warm(static_cast<std::ptrdiff_t>(w.readers + (w.writer ? 1 : 0)),
              OpenPhase{&phase, std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(o.seconds))});
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < w.readers; ++i) {
    threads.emplace_back([&, i] {
      reader_session(w, d, o.seed, i, f,
                     i < expected.size() ? &expected[i] : nullptr, warm, phase,
                     load.sessions[i]);
    });
  }
  if (w.writer) {
    threads.emplace_back(
        [&] { writer_session(f, o.seconds, warm, phase, load); });
  }
  for (auto& t : threads) t.join();
  load.elapsed_s = ms_since(phase.start, Clock::now()) / 1000.0;
  return load;
}

// ---- Snapshots around the load ----------------------------------------------

struct Snapshots {
  gems::net::MetricsSnapshot net;
  gems::server::AccessMetricsSnapshot access;
  gems::mvcc::EpochMetricsSnapshot epoch;
  gems::store::StoreMetricsSnapshot store;
};

Snapshots take_snapshots(Fixture& f) {
  Snapshots s;
  gems::net::Client client(client_options(f, "stats"));
  must(client.connect(), "connecting the stats session");
  auto net = client.stats();
  must(net.status(), "reading server stats");
  s.net = std::move(net).value();
  s.access = f.db->access_metrics();
  s.epoch = f.db->epoch_metrics();
  s.store = f.db->store_metrics();
  return s;
}

LoadCounters load_counters(const Snapshots& a, const Snapshots& b,
                           const LoadResult& load, std::size_t rows_ingested) {
  LoadCounters c;
  using gems::net::Verb;
  const auto& va = a.net.verb(Verb::kRunScript);
  const auto& vb = b.net.verb(Verb::kRunScript);
  c.queue_wait_ms_p50 =
      histogram_quantile_ms(histogram_delta(vb.queue_wait, va.queue_wait), 0.5);
  c.execute_ms_p50 =
      histogram_quantile_ms(histogram_delta(vb.execute, va.execute), 0.5);

  const double exclusive = static_cast<double>(b.access.exclusive_acquired -
                                               a.access.exclusive_acquired);
  c.exclusive_wait_ms = per(static_cast<double>(b.access.exclusive_wait_us -
                                                a.access.exclusive_wait_us) /
                                1000.0,
                            exclusive);
  c.exclusive_held_ms = per(static_cast<double>(b.access.exclusive_held_us -
                                                a.access.exclusive_held_us) /
                                1000.0,
                            exclusive);
  c.shared_acquired = static_cast<double>(b.access.shared_acquired);

  const double published =
      static_cast<double>(b.epoch.published - a.epoch.published);
  c.epochs_published = published;
  c.reads_per_epoch =
      per(static_cast<double>(b.epoch.pins_taken - a.epoch.pins_taken),
          published);
  c.live_epochs = static_cast<double>(b.epoch.live);
  c.peak_pinned_readers = static_cast<double>(b.epoch.peak_pinned_readers);
  c.oldest_pin_age_ms = static_cast<double>(b.epoch.oldest_pin_age_us) / 1000.0;
  const double deltas =
      static_cast<double>(b.epoch.delta_ingests - a.epoch.delta_ingests);
  const double rebuilds =
      static_cast<double>(b.epoch.full_rebuilds - a.epoch.full_rebuilds);
  c.graph_delta_ms_per_ingest =
      per(static_cast<double>(b.epoch.delta_build_ns - a.epoch.delta_build_ns) /
              1e6,
          deltas);
  c.graph_delta_ratio = per(deltas, deltas + rebuilds);

  c.store_wal_append_ms_p50 = histogram_quantile_ms(
      histogram_delta(b.store.wal_append_us, a.store.wal_append_us), 0.5);
  c.store_wal_bytes_per_row =
      per(static_cast<double>(b.store.wal_bytes - a.store.wal_bytes),
          static_cast<double>(rows_ingested));
  c.store_snapshot_write_ms_p50 = histogram_quantile_ms(
      histogram_delta(b.store.snapshot_write_us, a.store.snapshot_write_us),
      0.5);
  c.store_snapshots_written = static_cast<double>(
      b.store.snapshots_written - a.store.snapshots_written);

  for (const OpenLoopSample& s : load.writes) {
    c.ingest_late_ms_max = std::max(c.ingest_late_ms_max, lateness_ms(s));
  }
  return c;
}

// ---- Output checks -------------------------------------------------------------

/// Each session's first deck run in-process by Database::run_script on
/// the same generated inputs: what the wire must return.
std::vector<ExpectedDeck> expected_first_decks(const Workload& w,
                                               const Domains& d,
                                               std::uint64_t seed,
                                               gems::server::Database& db) {
  std::vector<ExpectedDeck> out(w.readers);
  for (std::size_t i = 0; i < w.readers; ++i) {
    RequestStream stream(w.kinds, d, mix_seed(seed, 100 + i));
    for (std::size_t k = 0; k < w.kinds.size(); ++k) {
      const Request req = stream.next();
      auto r = db.run_script(req.text, req.params);
      must(r.status(), ("in-process " + w.kinds[req.kind].name).c_str());
      out[i].push_back(std::move(r).value());
    }
  }
  return out;
}

/// The durable state a restart must reproduce: base-table row counts and
/// the results of a fixed, seeded query set, copied into the image's own
/// string pool so they outlive the database.
struct DurableImage {
  std::vector<std::pair<std::string, std::size_t>> rows;
  std::unique_ptr<gems::StringPool> pool = std::make_unique<gems::StringPool>();
  std::vector<std::vector<gems::exec::StatementResult>> results;
};

const char* const kBaseTables[] = {
    "Types",   "Features", "Producers", "Products",     "Vendors",
    "Offers",  "Persons",  "Reviews",   "ProductTypes", "ProductFeatures"};

DurableImage durable_image(const Workload& w, const Domains& d,
                           std::uint64_t seed, gems::server::Database& db) {
  DurableImage image;
  for (const char* t : kBaseTables) {
    auto table = db.table(t);
    image.rows.emplace_back(t, table.is_ok() ? (*table)->num_rows() : 0);
  }
  RequestStream stream(w.kinds, d, mix_seed(seed, 9));
  std::vector<Request> queries;
  for (std::size_t k = 0; k < 2 * w.kinds.size(); ++k) {
    queries.push_back(stream.next());
  }
  queries.push_back({0, "select count(*) as n, sum(price) as total from table Offers", {}});
  for (const Request& q : queries) {
    auto r = db.run_script(q.text, q.params);
    must(r.status(), "durable-state query");
    gems::net::WireWriter writer;
    gems::net::encode_results(*r, writer);
    const std::vector<std::uint8_t> bytes = writer.take();
    gems::net::WireReader reader(bytes);
    auto copy = gems::net::decode_results(reader, *image.pool);
    must(copy.status(), "copying durable-state results");
    image.results.push_back(std::move(copy).value());
  }
  return image;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// A tail metric with its percentile and sample count, and a ladder.
void print_tail(const std::string& name, const LatencySummary& s,
                std::vector<double> samples) {
  std::cout << "  " << name << " " << s.tail.value << " ms (p"
            << s.tail.quantile * 100 << ", " << s.tail.beyond
            << " samples beyond, n=" << s.count << "); ladder ms:";
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.9, 0.95, 0.99, 0.999}) {
    if (!samples.empty()) {
      std::cout << " p" << q * 100 << " " << percentile_sorted(samples, q);
    }
  }
  std::cout << "\n";
}

}  // namespace

// ---- The run -------------------------------------------------------------------

void run_workload(const Workload& w, const RunOptions& o, Report& report) {
  Domains d = domains_for(o.seed);
  const std::size_t batches_needed =
      static_cast<std::size_t>(std::ceil(kWriterRatePerS * o.seconds)) + 8;

  // Timed set-ups: all but the last are torn down at once; the last one
  // also gets the untimed benchmark-side preparation and serves the run.
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupRepeats && !o.trace; ++i) {
    progress("set-up " + std::to_string(i + 1));
    Fixture f;
    setups.push_back(build_fixture(w, o, f, nullptr));
    progress("tear-down " + std::to_string(i + 1));
  }
  progress("set-up of the serving fixture");
  std::vector<ExpectedDeck> expected;
  Fixture f;
  setups.push_back(build_fixture(w, o, f, [&](Fixture& fx) {
    d.offers = (*fx.db->table("Offers"))->num_rows();
    if (w.writer) {
      write_batches(d, o.seed, batches_needed, fx);
    } else {
      expected = expected_first_decks(w, d, o.seed, *fx.db);
    }
  }));

  progress("load phase");
  const Snapshots before = take_snapshots(f);
  const LoadResult load = run_load(w, d, o, f, expected);
  const Snapshots after = take_snapshots(f);
  progress("load phase done");

  // ---- Outcome accounting.
  std::vector<double> reads;
  std::uint64_t reads_ok = 0;
  for (const SessionResult& s : load.sessions) {
    reads.insert(reads.end(), s.latencies_ms.begin(), s.latencies_ms.end());
    report.attempted += s.attempted;
    report.failed += s.failed;
    reads_ok += s.timed_ok;
    if (!s.error.empty()) report.fail("reader: " + s.error);
  }
  std::vector<double> writes;
  for (const OpenLoopSample& s : load.writes) writes.push_back(due_latency_ms(s));
  report.attempted += load.writes.size();
  report.failed += load.writes_failed;
  if (!load.writer_error.empty()) report.fail("writer: " + load.writer_error);
  const std::size_t rows_ingested =
      (load.writes.size() - load.writes_failed) * kBatchRows;
  f.batches_used = load.writes.size();

  // ---- Output checks.
  for (std::size_t i = 0; i < load.sessions.size(); ++i) {
    for (const std::string& m : load.sessions[i].mismatches) {
      report.fail("session " + std::to_string(i) +
                  ": wire result differs from in-process execution: " + m);
    }
  }
  if (w.writer) {
    const std::size_t want = d.offers + rows_ingested;
    const std::size_t have = (*f.db->table("Offers"))->num_rows();
    if (have != want) {
      report.fail("Offers has " + std::to_string(have) + " rows, expected " +
                  std::to_string(want));
    }
  }
  if (after.access.shared_acquired != 0) {
    report.fail("shared access was acquired " +
                std::to_string(after.access.shared_acquired) + " times");
  }

  const LatencySummary read_summary = summarize(reads, w.tail_quantile);
  std::vector<std::vector<double>> by_kind(w.kinds.size());
  for (const SessionResult& s : load.sessions) {
    for (std::size_t i = 0; i < s.latencies_ms.size(); ++i) {
      by_kind[s.kinds[i]].push_back(s.latencies_ms[i]);
    }
  }
  const double kind_p50 = median_of_kind_p50s(by_kind);
  // The writer sends a fixed count (rate x seconds), so p75 always has
  // at least ten samples beyond it from 40 batches on.
  const LatencySummary write_summary = summarize(writes, 0.75);
  const double qps = reads_ok / std::max(load.elapsed_s, 1e-9);
  const double error_rate =
      report.attempted > 0
          ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
          : 0.0;

  std::cout << "workload " << w.name << " seed " << o.seed << ": "
            << w.readers << " reader session(s), " << reads.size()
            << " reads in " << load.elapsed_s << " s\n";
  std::cout << "  setup_s " << median(setups) << " s (median of "
            << setups.size() << ")\n";
  std::cout << "  query_p50_ms " << kind_p50
            << " ms (median of the kinds' p50s; pooled p50 " << read_summary.p50
            << " ms)\n";
  print_tail("query_tail_ms", read_summary, reads);
  std::cout << "  queries_per_s " << qps << " 1/s\n";
  std::cout << "  per kind p50 ms:";
  for (std::size_t k = 0; k < w.kinds.size(); ++k) {
    std::vector<double> one = by_kind[k];
    std::sort(one.begin(), one.end());
    std::cout << " " << w.kinds[k].name << "="
              << (one.empty() ? 0.0 : percentile_sorted(one, 0.5))
              << " (n=" << one.size() << ")";
  }
  std::cout << "\n";
  std::cout << "  error_rate " << error_rate << " ratio\n";

  LoadCounters counters;
  if (o.trace) {
    counters = load_counters(before, after, load, rows_ingested);
    progress("traced replay");
    traced_replay(w, o, f, d, counters, report);
  }

  // ---- ingest_mix: checkpoint, close, reopen from the store dir.
  double recover_s = 0, store_mb = 0;
  if (w.durable) {
    progress("checkpoint, close and reopen");
    must(f.db->checkpoint(), "final checkpoint");
    const DurableImage pre = durable_image(w, d, o.seed, *f.db);
    store_mb = static_cast<double>(dir_bytes(f.store_dir)) / (1024.0 * 1024.0);
    f.server->stop();
    f.server.reset();
    f.db.reset();
    gems::server::DatabaseOptions reopen_opts =
        database_options(w, f.store_dir, f.data_dir);
    reopen_opts.checkpoint_interval_ms = 0;
    const Clock::time_point t0 = Clock::now();
    f.db = std::make_unique<gems::server::Database>(reopen_opts);
    recover_s = ms_since(t0, Clock::now()) / 1000.0;
    must(f.db->store_status(), "reopening the store");
    const DurableImage post = durable_image(w, d, o.seed, *f.db);
    if (pre.rows != post.rows) report.fail("reopened row counts differ");
    for (std::size_t q = 0; q < pre.results.size(); ++q) {
      std::string why;
      if (!same_results(pre.results[q], post.results[q], &why)) {
        report.fail("reopened query " + std::to_string(q) +
                    " differs from the pre-close state: " + why);
      }
    }
    std::cout << "  ingest_p50_ms " << write_summary.p50 << " ms\n";
    print_tail("ingest_tail_ms", write_summary, writes);
    std::cout << "  recover_s " << recover_s << " s, store_mb " << store_mb
              << " MB, writer " << kWriterRatePerS << " batches/s x "
              << kBatchRows << " rows, " << load.writes.size() << " sent\n";
    if (o.trace) {
      const auto m = f.db->store_metrics();
      report.add("store.recovery_snapshot_s", m.recovery_snapshot_seconds, "s");
      report.add("store.recovery_replay_s", m.recovery_replay_seconds, "s");
      report.add("store.recovery_records_applied",
                 static_cast<double>(m.recovery_records_applied), "count");
    }
  } else if (o.trace) {
    report.add("store.recovery_snapshot_s", 0, "s");
    report.add("store.recovery_replay_s", 0, "s");
    report.add("store.recovery_records_applied", 0, "count");
  }

  for (const std::string& p : report.problems) std::cout << "  CHECK FAILED: " << p << "\n";

  if (o.trace) {
    report.add("ingest_p50_ms", write_summary.p50, "ms");
    report.add("ingest_tail_ms", write_summary.tail.value, "ms");
    report.add("recover_s", recover_s, "s");
    report.add("store_mb", store_mb, "MB");
    report.add("error_rate", error_rate, "ratio");
  } else {
    report.add("setup_s", median(setups), "s");
    report.add("query_p50_ms", kind_p50, "ms");
    report.add("query_tail_ms", read_summary.tail.value, "ms");
    report.add("queries_per_s", qps, "1/s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
}

}  // namespace e2e
