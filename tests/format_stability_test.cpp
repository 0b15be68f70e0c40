// Byte-stability of every binary format: the IR, parameter bindings,
// diagnostics blobs, wire result tables, stats payloads, GBSP frames, the
// WAL and snapshots. Each test encodes a small fixed input, compares the
// bytes with a checked-in golden image (tests/golden/*.hex) and decodes
// the image back to equal values. A codec refactor that moves a single
// byte of any format fails here; a deliberate format change (a version
// bump, or a new metric in the stats payload) regenerates its golden file.
//
// On a mismatch the actual bytes are written to the working directory (the
// test binary's directory under ctest) as <name>.actual.hex, in the golden
// file's layout.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bsbm/queries.hpp"
#include "cluster/bsp_wire.hpp"
#include "dist/dist_matcher.hpp"
#include "graql/diag.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "net/metrics.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "server/database.hpp"
#include "storage/csv.hpp"
#include "store/format.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace gems {
namespace {

namespace fs = std::filesystem;
using storage::DataType;
using storage::Value;

constexpr std::size_t kHexBytesPerLine = 32;

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out += kDigits[bytes[i] >> 4];
    out += kDigits[bytes[i] & 0xF];
    if ((i + 1) % kHexBytesPerLine == 0 || i + 1 == bytes.size()) out += '\n';
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& text) {
  std::vector<std::uint8_t> out;
  int high = -1;
  for (const char c : text) {
    int nibble;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else {
      continue;  // line breaks
    }
    if (high < 0) {
      high = nibble;
    } else {
      out.push_back(static_cast<std::uint8_t>(high << 4 | nibble));
      high = -1;
    }
  }
  return out;
}

/// Asserts `bytes` equals the golden image `name`.hex byte for byte.
void expect_golden(const std::string& name,
                   const std::vector<std::uint8_t>& bytes) {
  const fs::path golden = fs::path(GEMS_GOLDEN_DIR) / (name + ".hex");
  std::ifstream in(golden);
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<std::uint8_t> want = from_hex(text.str());
  if (want == bytes) return;
  const std::string actual = name + ".actual.hex";
  std::ofstream(actual) << to_hex(bytes);
  ADD_FAILURE() << name << ": " << bytes.size() << " encoded bytes differ "
                << "from the " << want.size() << "-byte golden image "
                << golden << "; actual bytes written to "
                << fs::absolute(actual);
}

/// Fresh scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path((fs::path(::testing::TempDir()) / ("gems_golden_" + tag))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string sub(const std::string& name) const {
    return (fs::path(path) / name).string();
  }
  std::string path;
};

// ---- IR --------------------------------------------------------------------

constexpr char kDdlScript[] = R"(
create table People(name varchar(8), boss varchar(8), score double)
create vertex Person(name) from table People where People.score > -1.5
create edge reports with vertices (Person as A, Person as B)
  where A.boss = B.name
ingest table People 'people.csv'
output table People 'out.csv'
)";

void expect_ir_golden(const std::string& name, const std::string& text) {
  auto script = graql::parse_script(text);
  ASSERT_TRUE(script.is_ok()) << script.status().to_string();
  const std::vector<std::uint8_t> bytes = graql::encode_script(*script);
  expect_golden(name, bytes);
  auto decoded = graql::decode_script(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->statements.size(), script->statements.size());
  EXPECT_EQ(graql::encode_script(*decoded), bytes);
}

TEST(FormatStabilityTest, IrScriptOfBerlinQueryIsStable) {
  expect_ir_golden("ir_berlin_q1", bsbm::berlin_q1());
}

TEST(FormatStabilityTest, IrScriptOfEveryDdlStatementIsStable) {
  expect_ir_golden("ir_ddl", kDdlScript);
}

TEST(FormatStabilityTest, ParamsAreStable) {
  relational::ParamMap params;
  params.emplace("Country1", Value::varchar("DE"));
  params.emplace("Limit", Value::int64(-42));
  params.emplace("Ratio", Value::float64(-0.0));
  params.emplace("Flag", Value::boolean(true));
  params.emplace("Day", Value::date(19000));
  params.emplace("Missing", Value::null());
  const std::vector<std::uint8_t> bytes = graql::encode_params(params);
  expect_golden("params", bytes);
  auto decoded = graql::decode_params(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded->size(), params.size());
  for (const auto& [name, value] : params) {
    const auto it = decoded->find(name);
    ASSERT_NE(it, decoded->end()) << name;
    EXPECT_EQ(it->second.to_string(), value.to_string()) << name;
    EXPECT_EQ(it->second.is_null(), value.is_null()) << name;
  }
  EXPECT_TRUE(std::signbit(decoded->at("Ratio").as_double()));
}

// ---- Diagnostics -----------------------------------------------------------

TEST(FormatStabilityTest, DiagnosticsBlobIsStable) {
  std::vector<graql::Diagnostic> diags(2);
  diags[0].severity = graql::Severity::kError;
  diags[0].code = graql::DiagCode::kUnknownName;
  diags[0].status_code = StatusCode::kNotFound;
  diags[0].span = {3, 17, 3, 24};
  diags[0].message = "unknown table 'Nope'";
  diags[0].fixit = "create table Nope(...)";
  diags[1].severity = graql::Severity::kWarning;
  diags[1].code = graql::DiagCode::kParseError;
  diags[1].status_code = StatusCode::kOk;
  diags[1].span = {1, 1, 1, 2};
  diags[1].message = "w";
  const std::vector<std::uint8_t> bytes = graql::encode_diagnostics(diags);
  expect_golden("diag", bytes);
  auto decoded = graql::decode_diagnostics(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, diags);
}

// ---- Wire results and stats ------------------------------------------------

TEST(FormatStabilityTest, ResultTablesAreStable) {
  StringPool pool;
  auto schema = storage::Schema::create({{"id", DataType::int64()},
                                         {"flag", DataType::boolean()},
                                         {"price", DataType::float64()},
                                         {"label", DataType::varchar(8)},
                                         {"day", DataType::date()}});
  ASSERT_TRUE(schema.is_ok());
  auto table = std::make_shared<storage::Table>("R", *schema, pool);
  const std::vector<std::vector<Value>> rows = {
      {Value::int64(1), Value::boolean(true), Value::float64(-0.0),
       Value::varchar("ab"), Value::date(19000)},
      {Value::null(), Value::boolean(false), Value::float64(2.5),
       Value::null(), Value::null()},
      {Value::int64(-3), Value::null(), Value::null(), Value::varchar("ab"),
       Value::date(-1)},
      {Value::int64(4), Value::boolean(true), Value::float64(1e300),
       Value::varchar(""), Value::date(0)}};
  for (const auto& row : rows) ASSERT_TRUE(table->append_row(row).is_ok());

  std::vector<exec::StatementResult> results(2);
  results[0].kind = exec::StatementResult::Kind::kTable;
  results[0].table = table;
  results[0].truncated = true;
  results[0].into = graql::IntoKind::kTable;
  results[0].into_name = "R";
  results[1].message = "ingested 4 rows";

  net::WireWriter w;
  net::encode_results(results, w);
  const std::vector<std::uint8_t> bytes = w.take();
  expect_golden("results", bytes);

  StringPool client;
  net::WireReader reader(bytes);
  auto decoded = net::decode_results(reader, client);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_TRUE(reader.at_end());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_TRUE((*decoded)[0].truncated);
  EXPECT_EQ((*decoded)[0].into_name, "R");
  EXPECT_EQ((*decoded)[1].message, "ingested 4 rows");
  const storage::Table& got = *(*decoded)[0].table;
  ASSERT_EQ(got.num_rows(), rows.size());
  ASSERT_EQ(got.num_columns(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      const Value v = got.value_at(static_cast<storage::RowIndex>(r),
                                   static_cast<storage::ColumnIndex>(c));
      EXPECT_EQ(v.is_null(), rows[r][c].is_null()) << r << "," << c;
      EXPECT_EQ(v.to_string(), rows[r][c].to_string()) << r << "," << c;
    }
  }
  EXPECT_TRUE(std::signbit(got.value_at(0, 2).as_double()));
}

TEST(FormatStabilityTest, StatsPayloadIsStable) {
  net::MetricsSnapshot snap;
  snap.verbs[1].requests = 7;
  snap.verbs[1].ok = 6;
  snap.verbs[1].errors = 1;
  snap.verbs[1].bytes_in = 1234;
  snap.verbs[1].execute.record(250);
  snap.verbs[1].execute.record(4000);
  snap.cluster.num_ranks = 2;
  snap.cluster.ranks.resize(2);
  snap.cluster.ranks[1].connected = true;
  snap.cluster.ranks[1].messages = 99;
  snap.epoch.published = 3;
  snap.store.recovered = true;
  snap.store.recovery_replay_seconds = 0.125;
  snap.matcher.queries = 11;
  std::vector<std::uint8_t> bytes;
  net::encode_metrics(snap, bytes);
  expect_golden("stats", bytes);
  auto decoded = net::decode_metrics(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  std::vector<std::uint8_t> again;
  net::encode_metrics(*decoded, again);
  EXPECT_EQ(again, bytes);
}

// ---- Cluster ---------------------------------------------------------------

TEST(FormatStabilityTest, BspFrameIsStable) {
  // A rank-0 job report: stats plus the encoded domain hand-back.
  std::vector<exec::Domain> domains(2);
  DynamicBitset a(70);
  a.set(0);
  a.set(69);
  domains[0].sets.emplace(0, a);
  domains[0].sets.emplace(2, DynamicBitset(3));
  DynamicBitset b(5);
  b.set(4);
  domains[1].sets.emplace(1, b);
  cluster::JobDonePayload done;
  done.job_id = 42;
  done.messages = 7;
  done.payload_bytes = 100;
  done.wire_bytes = 240;
  done.activations = 5;
  done.supersteps = 3;
  done.stall_us = 999;
  done.transcript = {9, 8, 7};
  dist::encode_domains(domains, done.domains);

  cluster::BspFrame frame;
  frame.kind = cluster::BspKind::kJobDone;
  frame.from = 0;
  frame.dest = cluster::kCoordinatorRank;
  frame.tag = -102;
  frame.payload = cluster::encode_job_done(done);
  const std::vector<std::uint8_t> bytes = cluster::encode_bsp_frame(frame);
  expect_golden("bsp_frame", bytes);

  auto listener = net::tcp_listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto port = net::local_port(*listener);
  ASSERT_TRUE(port.is_ok());
  auto sender = net::tcp_connect("127.0.0.1", *port);
  ASSERT_TRUE(sender.is_ok()) << sender.status().to_string();
  auto receiver = net::tcp_accept(*listener);
  ASSERT_TRUE(receiver.is_ok()) << receiver.status().to_string();
  ASSERT_TRUE(net::send_all(*sender, bytes).is_ok());
  auto got = cluster::recv_bsp_frame(*receiver,
                                     cluster::kDefaultMaxBspFrameBytes);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got->kind, frame.kind);
  EXPECT_EQ(got->from, frame.from);
  EXPECT_EQ(got->dest, frame.dest);
  EXPECT_EQ(got->tag, frame.tag);
  auto report = cluster::decode_job_done(got->payload);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->job_id, 42u);
  EXPECT_EQ(report->stall_us, 999u);
  EXPECT_EQ(report->transcript, done.transcript);
  EXPECT_EQ(report->domains, done.domains);
}

// ---- Store -----------------------------------------------------------------

/// One table, one vertex type and one edge type, built through the
/// statement path of a durable database so every mutation is WAL-logged.
void populate(server::Database& db, const TempDir& dir) {
  std::ofstream(dir.sub("people.csv")) << "ada,,1.5\nbob,ada,-0.0\n";
  auto r = db.run_script(R"(
create table People(name varchar(8), boss varchar(8), score double)
create vertex Person(name) from table People
create edge reports with vertices (Person as A, Person as B)
  where A.boss = B.name
ingest table People 'people.csv'
)");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
}

std::string people_csv(server::Database& db) {
  std::ostringstream out;
  auto table = db.table("People");
  EXPECT_TRUE(table.is_ok()) << table.status().to_string();
  if (table.is_ok()) storage::write_csv(**table, out);
  return out.str();
}

TEST(FormatStabilityTest, WalIsStable) {
  TempDir dir("wal");
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  options.store_dir = dir.sub("store");
  options.wal_fsync = false;
  std::string before;
  {
    server::Database db(options);
    populate(db, dir);
    before = people_csv(db);
  }
  const std::string wal_path = dir.sub("store") + "/wal.gwal";
  auto bytes = store::read_file_bytes(wal_path);
  ASSERT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  expect_golden("wal", *bytes);

  auto wal = store::Wal::open(wal_path, 0, /*fsync_on_append=*/false);
  ASSERT_TRUE(wal.is_ok()) << wal.status().to_string();
  EXPECT_EQ(wal->truncated_bytes, 0u);
  ASSERT_EQ(wal->records.size(), 4u);
  EXPECT_EQ(wal->records[3].type, store::WalRecordType::kIngestRows);
  wal->wal.reset();

  server::Database recovered(options);  // replays the WAL
  ASSERT_TRUE(recovered.store_status().is_ok())
      << recovered.store_status().to_string();
  EXPECT_EQ(people_csv(recovered), before);
  EXPECT_EQ(recovered.graph().edge_type(0).num_edges(), 1u);
}

TEST(FormatStabilityTest, SnapshotIsStable) {
  TempDir dir("snapshot");
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  server::Database db(options);
  populate(db, dir);
  const std::vector<std::uint8_t> bytes =
      store::encode_snapshot(db.context(), /*wal_seq=*/4);
  expect_golden("snapshot", bytes);

  server::Database restored;
  auto info = store::decode_snapshot(bytes, restored.context());
  ASSERT_TRUE(info.is_ok()) << info.status().to_string();
  restored.refresh_epoch();
  EXPECT_EQ(info->wal_seq, 4u);
  EXPECT_EQ(people_csv(restored), people_csv(db));
  EXPECT_EQ(store::encode_snapshot(restored.context(), 4), bytes);
}

}  // namespace
}  // namespace gems
