// Tests for gems::net — the TCP wire for the front-end/backend hand-off:
// loopback round-trips of every verb, byte-identical results vs. the
// in-process Database, hostile-frame rejection, concurrent clients,
// deadlines, cancellation, and admission control under overload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "bsbm/generator.hpp"
#include "common/check.hpp"
#include "bsbm/queries.hpp"
#include "bsbm/schema.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "server/database.hpp"

namespace gems::net {
namespace {

using exec::StatementResult;
using storage::Value;

relational::ParamMap berlin_params() {
  relational::ParamMap params;
  params.emplace("Country1", Value::varchar("US"));
  params.emplace("Country2", Value::varchar("DE"));
  params.emplace("Product1", Value::varchar("p0"));
  params.emplace("Type1", Value::varchar("t1"));
  return params;
}

/// One populated Berlin database shared by the whole test binary. Tests
/// that need exclusive server options start their own Server on it.
server::Database& shared_db() {
  static auto db = [] {
    auto built =
        bsbm::make_populated_database(bsbm::GeneratorConfig::derive(40, 7));
    GEMS_CHECK_MSG(built.is_ok(), built.status().to_string().c_str());
    return std::move(built).value();
  }();
  return *db;
}

/// Renders result tables deterministically for byte-identity assertions.
std::string render_results(const std::vector<StatementResult>& results) {
  std::string out;
  for (const auto& r : results) {
    out += "kind=" + std::to_string(static_cast<int>(r.kind));
    out += " message=" + r.message;
    out += " truncated=" + std::to_string(r.truncated ? 1 : 0);
    if (r.table != nullptr) {
      out += "\n" + r.table->to_string(1u << 20);
    }
    out += "\n--\n";
  }
  return out;
}

/// Raw wire connection for tests that pipeline frames or send hostile
/// bytes the Client would never produce.
struct RawConn {
  Socket sock;

  Status open(std::uint16_t port, bool handshake = true) {
    auto connected = tcp_connect("127.0.0.1", port);
    GEMS_RETURN_IF_ERROR(connected.status());
    sock = std::move(connected).value();
    GEMS_RETURN_IF_ERROR(set_recv_timeout(sock, 10000));
    if (!handshake) return Status::ok();
    GEMS_RETURN_IF_ERROR(
        send_frame(sock, Verb::kHandshake, /*is_response=*/false, 1,
                   encode_handshake_request({kWireVersion, "raw-test"})));
    auto frame = recv_frame(sock, kDefaultMaxFrameBytes);
    GEMS_RETURN_IF_ERROR(frame.status());
    WireReader reader(frame->payload);
    return decode_status(reader);
  }

  /// Reads response frames until `n` are collected; returns status by id.
  std::map<std::uint64_t, Status> collect(std::size_t n) {
    std::map<std::uint64_t, Status> got;
    while (got.size() < n) {
      auto frame = recv_frame(sock, kDefaultMaxFrameBytes);
      if (!frame.is_ok()) {
        got.emplace(std::uint64_t(-1), frame.status());
        break;
      }
      WireReader reader(frame->payload);
      got.emplace(frame->header.request_id, decode_status(reader));
    }
    return got;
  }
};

std::vector<std::uint8_t> raw_script_request(const std::string& text,
                                             std::uint32_t deadline_ms = 0) {
  auto script = graql::parse_script(text);
  GEMS_CHECK_MSG(script.is_ok(), script.status().to_string().c_str());
  ScriptRequest request;
  request.ir = graql::encode_script(script.value());
  request.params = graql::encode_params({});
  request.deadline_ms = deadline_ms;
  return encode_script_request(request);
}

Client make_client(std::uint16_t port) {
  ClientOptions options;
  options.port = port;
  options.connect_retries = 2;
  options.retry_backoff_ms = 20;
  return Client(options);
}

// ---- Every verb over loopback ---------------------------------------------

TEST(NetTest, RoundTripEveryVerb) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  Client client = make_client(server.port());
  ASSERT_TRUE(client.connect().is_ok());  // handshake verb
  EXPECT_GT(client.session_id(), 0u);

  // run-script
  auto run = client.run_script("select id, label from table Products");
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  ASSERT_EQ(run->size(), 1u);
  ASSERT_NE(run->front().table, nullptr);
  EXPECT_EQ(run->front().table->num_rows(), 40u);

  // check-only: ok and error statuses both cross the wire typed
  EXPECT_TRUE(client.check_script("select id from table Products").is_ok());
  const Status remote = client.check_script("select nope from table Products");
  const Status direct = shared_db().check_script(
      "select nope from table Products");
  EXPECT_FALSE(remote.is_ok());
  EXPECT_EQ(remote.code(), direct.code());

  // explain matches the in-process plan rendering exactly
  auto remote_plan = client.explain("select id from table Products");
  auto direct_plan = shared_db().explain("select id from table Products");
  ASSERT_TRUE(remote_plan.is_ok()) << remote_plan.status().to_string();
  ASSERT_TRUE(direct_plan.is_ok());
  EXPECT_EQ(remote_plan.value(), direct_plan.value());

  // catalog matches the in-process catalog
  auto remote_catalog = client.catalog();
  ASSERT_TRUE(remote_catalog.is_ok()) << remote_catalog.status().to_string();
  const auto direct_catalog = shared_db().catalog();
  ASSERT_EQ(remote_catalog->size(), direct_catalog.size());
  for (std::size_t i = 0; i < direct_catalog.size(); ++i) {
    EXPECT_EQ((*remote_catalog)[i].name, direct_catalog[i].name);
    EXPECT_EQ((*remote_catalog)[i].kind, direct_catalog[i].kind);
    EXPECT_EQ((*remote_catalog)[i].instances, direct_catalog[i].instances);
    EXPECT_EQ((*remote_catalog)[i].byte_size, direct_catalog[i].byte_size);
  }

  // cancel is best-effort: unknown ids are accepted
  EXPECT_TRUE(client.cancel(99999).is_ok());

  // stats reflects the traffic above
  auto stats = client.stats();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats->verb(Verb::kHandshake).ok, 1u);
  EXPECT_EQ(stats->verb(Verb::kRunScript).ok, 1u);
  // A faulty-but-parseable script is a *successful* check: the response
  // carries the diagnostic list, not an error status.
  EXPECT_EQ(stats->verb(Verb::kCheck).requests, 2u);
  EXPECT_EQ(stats->verb(Verb::kCheck).errors, 0u);
  EXPECT_EQ(stats->verb(Verb::kCheck).ok, 2u);
  EXPECT_EQ(stats->verb(Verb::kExplain).ok, 1u);
  EXPECT_EQ(stats->verb(Verb::kCatalog).ok, 1u);
  EXPECT_GT(stats->total().bytes_out, 0u);

  // shutdown unblocks Server::wait()
  EXPECT_TRUE(client.shutdown_server().is_ok());
  server.wait();  // must return promptly, not hang
  server.stop();
}

// ---- Acceptance: byte-identical results vs. direct execution --------------

TEST(NetTest, ResultTablesByteIdenticalToDirectExecution) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  Client client = make_client(server.port());
  ASSERT_TRUE(client.connect().is_ok());

  const auto params = berlin_params();
  const std::vector<std::string> scripts = {
      "select id, label, propertyNumeric_1 from table Products",
      bsbm::berlin_q2(),
      bsbm::berlin_q1(),
  };
  for (const auto& text : scripts) {
    auto direct = shared_db().run_script(text, params);
    ASSERT_TRUE(direct.is_ok()) << direct.status().to_string();
    auto remote = client.run_script(text, params);
    ASSERT_TRUE(remote.is_ok()) << remote.status().to_string();
    EXPECT_EQ(render_results(remote.value()), render_results(direct.value()))
        << "wire round-trip changed the result of: " << text;
  }
  server.stop();
}

// ---- Hostile frames --------------------------------------------------------

TEST(NetTest, RejectsGarbageMagic) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port(), /*handshake=*/false).is_ok());

  std::vector<std::uint8_t> junk(kFrameHeaderBytes, 0xAB);
  ASSERT_TRUE(send_all(conn.sock, junk).is_ok());
  // The server reports the parse error on request id 0, then drops us.
  auto responses = conn.collect(1);
  ASSERT_EQ(responses.count(0), 1u);
  EXPECT_EQ(responses.at(0).code(), StatusCode::kParseError);
  EXPECT_NE(responses.at(0).message().find("byte offset 0"),
            std::string::npos);
  auto eof = recv_frame(conn.sock, kDefaultMaxFrameBytes);
  EXPECT_FALSE(eof.is_ok());  // connection closed after the report
  server.stop();
}

TEST(NetTest, RejectsOversizedFrameBeforeAllocating) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  // Well-formed header whose payload length blows the 4 KiB frame budget.
  WireWriter header;
  header.u32(kFrameMagic);
  header.u16(kWireVersion);
  header.u8(static_cast<std::uint8_t>(Verb::kRunScript));
  header.u8(0);
  header.u64(7);
  header.u32(512u << 20);  // declares a 512 MiB payload
  ASSERT_TRUE(send_all(conn.sock, header.buffer()).is_ok());

  auto responses = conn.collect(1);
  ASSERT_EQ(responses.count(0), 1u);
  EXPECT_EQ(responses.at(0).code(), StatusCode::kParseError);
  EXPECT_NE(responses.at(0).message().find("frame budget"),
            std::string::npos);
  EXPECT_NE(responses.at(0).message().find("byte offset 16"),
            std::string::npos);
  server.stop();
}

TEST(NetTest, TruncatedFrameClosesConnectionQuietly) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  // Header promises 64 payload bytes; send 3 and half-close. The server
  // sees EOF mid-frame (kUnavailable, not kParseError) and just closes.
  WireWriter partial;
  partial.u32(kFrameMagic);
  partial.u16(kWireVersion);
  partial.u8(static_cast<std::uint8_t>(Verb::kRunScript));
  partial.u8(0);
  partial.u64(8);
  partial.u32(64);
  partial.u8(1);
  partial.u8(2);
  partial.u8(3);
  ASSERT_TRUE(send_all(conn.sock, partial.buffer()).is_ok());
  conn.sock.shutdown();

  auto eof = recv_frame(conn.sock, kDefaultMaxFrameBytes);
  EXPECT_FALSE(eof.is_ok());
  EXPECT_NE(eof.status().code(), StatusCode::kParseError);
  server.stop();
}

TEST(NetTest, HandshakeRequiredBeforeOtherVerbs) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port(), /*handshake=*/false).is_ok());
  ASSERT_TRUE(send_frame(conn.sock, Verb::kCatalog, false, 3, {}).is_ok());
  auto responses = conn.collect(1);
  ASSERT_EQ(responses.count(3), 1u);
  EXPECT_EQ(responses.at(3).code(), StatusCode::kInvalidArgument);
  server.stop();
}

TEST(NetTest, RejectsUnsupportedWireVersion) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port(), /*handshake=*/false).is_ok());
  ASSERT_TRUE(send_frame(conn.sock, Verb::kHandshake, false, 1,
                         encode_handshake_request({99, "time-traveler"}))
                  .is_ok());
  auto responses = conn.collect(1);
  ASSERT_EQ(responses.count(1), 1u);
  EXPECT_EQ(responses.at(1).code(), StatusCode::kInvalidArgument);
  EXPECT_NE(responses.at(1).message().find("unsupported wire version"),
            std::string::npos);
  server.stop();
}

// ---- Hardened IR / payload decoding ---------------------------------------

TEST(NetTest, DecodeScriptSurvivesTruncationAtEveryByte) {
  auto script = graql::parse_script(bsbm::berlin_q2());
  ASSERT_TRUE(script.is_ok());
  const std::vector<std::uint8_t> ir = graql::encode_script(script.value());
  ASSERT_TRUE(graql::decode_script(ir).is_ok());
  for (std::size_t cut = 0; cut < ir.size(); ++cut) {
    std::span<const std::uint8_t> prefix(ir.data(), cut);
    auto decoded = graql::decode_script(prefix);  // must not crash or hang
    EXPECT_FALSE(decoded.is_ok()) << "truncation at byte " << cut;
  }
}

TEST(NetTest, DecodeScriptRejectsHostileLengthBeforeAllocating) {
  auto script =
      graql::parse_script("select id from table Products into table R1");
  ASSERT_TRUE(script.is_ok());
  std::vector<std::uint8_t> ir = graql::encode_script(script.value());
  // The trailing bytes encode the `into` name: u8 kind, u32 len, chars.
  // Rewrite the length prefix to claim ~4 GiB; the decoder must reject it
  // (with the byte offset) instead of allocating.
  const std::size_t len_at = ir.size() - 2 - 4;
  ir[len_at] = 0xFF;
  ir[len_at + 1] = 0xFF;
  ir[len_at + 2] = 0xFF;
  ir[len_at + 3] = 0xFF;
  auto decoded = graql::decode_script(ir);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("byte offset"),
            std::string::npos);
}

TEST(NetTest, DecodeParamsRejectsHostileCount) {
  relational::ParamMap params;
  params.emplace("a", Value::int64(1));
  std::vector<std::uint8_t> bytes = graql::encode_params(params);
  // First field is the entry count: claim 2^32-1 entries.
  bytes[0] = 0xFF;
  bytes[1] = 0xFF;
  bytes[2] = 0xFF;
  bytes[3] = 0xFF;
  auto decoded = graql::decode_params(bytes);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

// ---- Self-describing stats payload ----------------------------------------

/// A histogram whose every field and bucket is distinct and non-zero.
LatencyHistogram distinct_histogram(std::uint64_t seed) {
  LatencyHistogram h;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    h.buckets[i] = seed * 1000 + i + 1;
  }
  h.count = seed * 1000 + 101;
  h.sum_us = seed * 1000 + 102;
  h.max_us = seed * 1000 + 103;
  return h;
}

/// Every field of all six blocks set by hand to a distinct non-zero value
/// (booleans true), so a field missing from a field list — encoded as
/// nothing, decoded as zero — fails the round trip.
MetricsSnapshot full_snapshot() {
  MetricsSnapshot snap;
  for (std::size_t i = 0; i < kNumVerbs; ++i) {
    const std::uint64_t base = 100 * (i + 1);
    VerbMetrics& v = snap.verbs[i];
    v.requests = base + 1;
    v.ok = base + 2;
    v.errors = base + 3;
    v.overloaded = base + 4;
    v.expired = base + 5;
    v.cancelled = base + 6;
    v.bytes_in = base + 7;
    v.bytes_out = base + 8;
    v.queue_wait = distinct_histogram(2 * i + 1);
    v.execute = distinct_histogram(2 * i + 2);
  }
  snap.access.shared_acquired = 2001;
  snap.access.exclusive_acquired = 2002;
  snap.access.exclusive_wait_us = 2003;
  snap.access.exclusive_held_us = 2004;
  snap.cluster.num_ranks = 2;
  snap.cluster.jobs = 3001;
  snap.cluster.fallbacks = 3002;
  snap.cluster.syncs = 3003;
  snap.cluster.sync_bytes = 3004;
  for (std::uint64_t r = 0; r < 2; ++r) {
    server::ClusterRankMetrics m;
    m.connected = true;
    m.jobs = 3100 + 10 * r + 1;
    m.messages = 3100 + 10 * r + 2;
    m.payload_bytes = 3100 + 10 * r + 3;
    m.wire_bytes = 3100 + 10 * r + 4;
    m.supersteps = 3100 + 10 * r + 5;
    m.stall_us = 3100 + 10 * r + 6;
    snap.cluster.ranks.push_back(m);
  }
  snap.epoch.published = 4001;
  snap.epoch.retired = 4002;
  snap.epoch.freed = 4003;
  snap.epoch.live = 4004;
  snap.epoch.pins_taken = 4005;
  snap.epoch.pinned_readers = 4006;
  snap.epoch.peak_pinned_readers = 4007;
  snap.epoch.oldest_pin_age_us = 4008;
  snap.epoch.delta_ingests = 4009;
  snap.epoch.full_rebuilds = 4010;
  snap.epoch.delta_build_ns = 4011;
  snap.epoch.rebuild_ns = 4012;
  snap.epoch.current_epoch = 4013;
  snap.store.wal_records = 5001;
  snap.store.wal_bytes = 5002;
  snap.store.wal_append_us = distinct_histogram(50);
  snap.store.snapshots_written = 5003;
  snap.store.snapshot_bytes_last = 5004;
  snap.store.snapshot_write_us = distinct_histogram(51);
  snap.store.recovered = true;
  snap.store.recovered_from_snapshot = true;
  snap.store.recovery_snapshot_bytes = 5005;
  snap.store.recovery_snapshot_seconds = 5.25;
  snap.store.recovery_records_applied = 5006;
  snap.store.recovery_records_skipped = 5007;
  snap.store.recovery_truncated_bytes = 5008;
  snap.store.recovery_replay_seconds = 6.5;
  snap.matcher.queries = 6001;
  snap.matcher.propagation_passes = 6002;
  snap.matcher.edge_traversals = 6003;
  snap.matcher.parallel_tasks = 6004;
  snap.matcher.merge_ns = 6005;
  snap.matcher.worker_us = distinct_histogram(60);
  return snap;
}

void expect_same(const MetricsSnapshot& got, const MetricsSnapshot& want) {
  for (std::size_t i = 0; i < kNumVerbs; ++i) {
    EXPECT_TRUE(got.verbs[i] == want.verbs[i]) << "verb " << i;
  }
  EXPECT_TRUE(got.access == want.access);
  EXPECT_TRUE(got.cluster == want.cluster);
  EXPECT_TRUE(got.epoch == want.epoch);
  EXPECT_TRUE(got.store == want.store);
  EXPECT_TRUE(got.matcher == want.matcher);
}

std::vector<std::uint8_t> stats_payload(const MetricsSnapshot& snap) {
  std::vector<std::uint8_t> bytes;
  encode_metrics(snap, bytes);
  return bytes;
}

TEST(StatsCodecTest, EveryFieldOfEveryBlockRoundTrips) {
  const MetricsSnapshot snap = full_snapshot();
  auto decoded = decode_metrics(stats_payload(snap));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  expect_same(*decoded, snap);
}

TEST(StatsCodecTest, UnknownSampleNamesAreSkipped) {
  const MetricsSnapshot snap = full_snapshot();
  std::vector<std::uint8_t> bytes = stats_payload(snap);
  // A newer peer's extra samples: one of each kind, appended after the
  // known ones, with the leading sample count raised to match.
  WireWriter extra;
  extra.str("future.counter");
  extra.u8(0);
  extra.u64(7);
  extra.str("future.ratio");
  extra.u8(1);
  extra.u64(0x3FF0000000000000ull);  // 1.0
  extra.str("future.latency_us");
  extra.u8(2);
  extra.u64(1);
  extra.u64(2);
  extra.u64(2);
  extra.u32(2);
  extra.u64(0);
  extra.u64(1);
  std::vector<std::uint8_t> tail = extra.take();
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  std::uint32_t n = 0;
  std::memcpy(&n, bytes.data(), sizeof(n));
  n += 3;
  std::memcpy(bytes.data(), &n, sizeof(n));
  auto decoded = decode_metrics(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  expect_same(*decoded, snap);
}

TEST(StatsCodecTest, TruncationAtEveryByteFailsCleanly) {
  const std::vector<std::uint8_t> bytes = stats_payload(full_snapshot());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = decode_metrics(
        std::span<const std::uint8_t>(bytes.data(), cut));
    ASSERT_FALSE(decoded.is_ok()) << "truncation at byte " << cut;
    ASSERT_EQ(decoded.status().code(), StatusCode::kParseError);
  }
}

/// Decodes a crafted payload and expects a parse error naming an offset.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& what) {
  auto decoded = decode_metrics(bytes);
  ASSERT_FALSE(decoded.is_ok()) << what;
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << what;
  EXPECT_NE(decoded.status().message().find("byte offset"),
            std::string::npos)
      << what << ": " << decoded.status().to_string();
}

TEST(StatsCodecTest, RejectsHostileCountsAndIndexesBeforeAllocating) {
  {
    WireWriter w;
    w.u32(0xFFFFFFFFu);  // sample count
    expect_rejected(w.take(), "sample count");
  }
  {
    WireWriter w;
    w.u32(1);
    w.u32(0xFFFFFFF0u);  // name length
    w.u8(0);
    expect_rejected(w.take(), "name length");
  }
  {
    WireWriter w;
    w.u32(1);
    w.str("net.stats.execute_us");
    w.u8(2);
    w.u64(1);
    w.u64(1);
    w.u64(1);
    w.u32(0xFFFFFFFFu);  // bucket count
    expect_rejected(w.take(), "bucket count");
  }
  {
    WireWriter w;
    w.u32(2);
    w.str("cluster.num_ranks");
    w.u8(0);
    w.u64(1u << 30);
    w.str("cluster.rank.1073741823.messages");  // under num_ranks, over cap
    w.u8(0);
    w.u64(5);
    expect_rejected(w.take(), "rank index past the cap");
  }
  {
    WireWriter w;
    w.u32(2);
    w.str("cluster.num_ranks");
    w.u8(0);
    w.u64(1);
    w.str("cluster.rank.3.messages");
    w.u8(0);
    w.u64(5);
    expect_rejected(w.take(), "rank index past num_ranks");
  }
  {
    WireWriter w;
    w.u32(1);
    w.str("epoch.live");
    w.u8(2);  // a histogram where a counter belongs
    w.u64(1);
    w.u64(1);
    w.u64(1);
    w.u32(0);
    expect_rejected(w.take(), "kind mismatch");
  }
  {
    WireWriter w;
    w.u32(1);
    w.str("epoch.live");
    w.u8(9);  // no such kind
    w.u64(1);
    expect_rejected(w.take(), "unknown kind");
  }
  {
    std::vector<std::uint8_t> bytes = stats_payload(MetricsSnapshot{});
    bytes.push_back(0);
    expect_rejected(bytes, "trailing bytes");
  }
}

TEST(StatsCodecTest, RenderSkipsZerosAndFiltersByPrefix) {
  MetricsSnapshot snap;
  snap.epoch.published = 3;
  snap.matcher.worker_us.record(5);
  snap.verbs[static_cast<std::size_t>(Verb::kRunScript)].ok = 2;
  EXPECT_EQ(render(snap), "net.run_script.ok 2\nepoch.published 3\n"
                          "matcher.worker_us 1/5/5/5\n");
  EXPECT_EQ(render(snap, "epoch."), "epoch.published 3\n");
  EXPECT_EQ(render(snap, "store."), "");
}

TEST(StatsShellTest, LocalStatsPrefixPrintsEpochLines) {
  const std::string command = std::string("printf '\\\\stats epoch.\\n' | ") +
                              GEMS_SHELL_PATH + " --berlin 20";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[4096];
  while (const std::size_t n = std::fread(buf, 1, sizeof(buf), pipe)) {
    out.append(buf, n);
  }
  ASSERT_EQ(::pclose(pipe), 0) << out;
  EXPECT_NE(out.find("epoch.published "), std::string::npos) << out;
  EXPECT_NE(out.find("epoch.current_epoch "), std::string::npos) << out;
  EXPECT_EQ(out.find("access."), std::string::npos) << out;
}

// ---- Concurrency -----------------------------------------------------------

TEST(NetTest, EightConcurrentClients) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  constexpr int kClients = 8;
  constexpr int kRounds = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = make_client(server.port());
      if (!client.connect().is_ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        auto run = client.run_script(
            "select id from table Products where propertyNumeric_1 > " +
            std::to_string(c));
        if (!run.is_ok()) failures.fetch_add(1);
        if (!client.catalog().is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const MetricsSnapshot snapshot = server.metrics_snapshot();
  EXPECT_EQ(snapshot.verb(Verb::kHandshake).ok,
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(snapshot.verb(Verb::kRunScript).ok,
            static_cast<std::uint64_t>(kClients * kRounds));
  EXPECT_EQ(snapshot.verb(Verb::kCatalog).ok,
            static_cast<std::uint64_t>(kClients * kRounds));
  server.stop();
}

// ---- Deadlines, cancellation, admission control ---------------------------

TEST(NetTest, DeadlineExpiresWhileQueued) {
  ServerOptions options;
  options.num_workers = 1;
  options.debug_execute_delay_ms = 200;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  // Both requests carry a 50 ms deadline. The first is dequeued at once
  // (no queue wait) and executes; the second sits behind the 200 ms debug
  // delay and must be expired at dequeue without executing.
  const auto payload =
      raw_script_request("select id from table Products", /*deadline_ms=*/50);
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 10, payload)
                  .is_ok());
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 11, payload)
                  .is_ok());

  auto responses = conn.collect(2);
  ASSERT_EQ(responses.count(10), 1u);
  ASSERT_EQ(responses.count(11), 1u);
  EXPECT_TRUE(responses.at(10).is_ok()) << responses.at(10).to_string();
  EXPECT_EQ(responses.at(11).code(), StatusCode::kDeadlineExceeded);

  const MetricsSnapshot snapshot = server.metrics_snapshot();
  EXPECT_EQ(snapshot.verb(Verb::kRunScript).expired, 1u);
  server.stop();
}

TEST(NetTest, CancelRemovesQueuedRequest) {
  ServerOptions options;
  options.num_workers = 1;
  options.debug_execute_delay_ms = 200;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  const auto payload = raw_script_request("select id from table Products");
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 20, payload)
                  .is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // 20 dequeued
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 21, payload)
                  .is_ok());
  ASSERT_TRUE(send_frame(conn.sock, Verb::kCancel, false, 22,
                         encode_cancel_request({21}))
                  .is_ok());

  auto responses = conn.collect(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses.at(22).is_ok());  // the cancel itself
  EXPECT_TRUE(responses.at(20).is_ok());  // already executing: completes
  EXPECT_EQ(responses.at(21).code(), StatusCode::kCancelled);

  const MetricsSnapshot snapshot = server.metrics_snapshot();
  EXPECT_EQ(snapshot.verb(Verb::kRunScript).cancelled, 1u);
  server.stop();
}

TEST(NetTest, AdmissionControlRejectsWhenQueueFull) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.debug_execute_delay_ms = 300;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  const auto payload = raw_script_request("select id from table Products");
  // 30 occupies the worker; 31 fills the queue; 32 and 33 must bounce.
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 30, payload)
                  .is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 31, payload)
                  .is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 32, payload)
                  .is_ok());
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 33, payload)
                  .is_ok());

  auto responses = conn.collect(4);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses.at(30).is_ok());
  EXPECT_TRUE(responses.at(31).is_ok());
  EXPECT_EQ(responses.at(32).code(), StatusCode::kOverloaded);
  EXPECT_EQ(responses.at(33).code(), StatusCode::kOverloaded);
  EXPECT_NE(responses.at(32).message().find("retry with backoff"),
            std::string::npos);

  const MetricsSnapshot snapshot = server.metrics_snapshot();
  EXPECT_EQ(snapshot.verb(Verb::kRunScript).overloaded, 2u);
  EXPECT_EQ(snapshot.verb(Verb::kRunScript).ok, 2u);
  server.stop();
}

// ---- Client resilience -----------------------------------------------------

TEST(NetTest, ConnectFailsTypedWhenNobodyListens) {
  ClientOptions options;
  options.port = 1;  // privileged port nobody binds in the test env
  options.connect_retries = 1;
  options.retry_backoff_ms = 10;
  Client client(options);
  const Status status = client.connect();
  EXPECT_FALSE(status.is_ok());
  EXPECT_FALSE(client.connected());
}

TEST(NetTest, ClientReconnectsAfterServerRestart) {
  auto first = std::make_unique<Server>(shared_db());
  ASSERT_TRUE(first->start().is_ok());
  const std::uint16_t port = first->port();
  Client client = make_client(port);
  ASSERT_TRUE(client.connect().is_ok());
  ASSERT_TRUE(client.run_script("select id from table Products").is_ok());

  first->stop();
  // The dead connection surfaces as a transport error, not a hang...
  EXPECT_FALSE(client.run_script("select id from table Products").is_ok());

  // ...and a fresh connect() to a new server on the same port recovers.
  ServerOptions options;
  options.port = port;
  Server second(shared_db(), options);
  ASSERT_TRUE(second.start().is_ok());
  ASSERT_TRUE(client.connect().is_ok());
  EXPECT_TRUE(client.run_script("select id from table Products").is_ok());
  second.stop();
}

// ---- Concurrent read execution (shared/exclusive access layer) ------------

TEST(NetConcurrencyTest, EightReadersByteIdenticalAcrossWorkers) {
  // With the access layer, workers genuinely overlap read-only scripts;
  // every client must still see exactly the serial result bytes.
  ServerOptions options;
  options.num_workers = 4;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());

  const std::vector<std::string> scripts = {
      "select ProductVtx.id from graph ProductVtx() --producer--> "
      "ProducerVtx(country = 'US') into table NetRo\n"
      "select count(*) as n from table NetRo",
      "select id, price from table Offers where price > 500.0 order by id",
      "select count(*) as n from table Reviews",
  };
  std::vector<std::string> baseline;
  {
    Client client = make_client(server.port());
    ASSERT_TRUE(client.connect().is_ok());
    for (const auto& s : scripts) {
      auto r = client.run_script(s);
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      baseline.push_back(render_results(r.value()));
    }
  }

  constexpr int kClients = 8;
  constexpr int kRounds = 4;
  const std::uint64_t exclusive_before =
      shared_db().access_metrics().exclusive_acquired;
  const std::uint64_t pins_before = shared_db().epoch_metrics().pins_taken;
  const std::uint64_t matches_before = shared_db().match_metrics().queries;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Client client = make_client(server.port());
      if (!client.connect().is_ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t s = 0; s < scripts.size(); ++s) {
          auto r = client.run_script(scripts[s]);
          if (!r.is_ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (render_results(r.value()) != baseline[s]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // The access, epoch and matcher counters travel the wire in the stats
  // payload. Each read script pins exactly one epoch; only the `into`
  // script (scripts[0]) takes the writer lock, once per run, to fold its
  // result into a new epoch; it is also the one graph match.
  Client client = make_client(server.port());
  ASSERT_TRUE(client.connect().is_ok());
  auto stats = client.stats();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  const std::uint64_t runs = kClients * kRounds;
  EXPECT_EQ(stats->epoch.pins_taken - pins_before, runs * scripts.size());
  EXPECT_EQ(stats->access.exclusive_acquired - exclusive_before, runs);
  EXPECT_GE(stats->matcher.queries - matches_before, runs);
  EXPECT_NE(render(*stats, "matcher.").find("matcher.queries "),
            std::string::npos);
  EXPECT_GE(stats->epoch.published, 1u);
  server.stop();
}

TEST(NetConcurrencyTest, ReadersInterleavedWithIngestAndCheckpoint) {
  // A durable database behind the wire: 8 reader clients loop while one
  // writer client ingests batches and the owner takes checkpoints. Reads
  // must only ever observe whole-batch states.
  namespace fs = std::filesystem;
  const std::string dir =
      ::testing::TempDir() + "gems_net_access_store";
  fs::remove_all(dir);  // stale store from an aborted run
  fs::create_directories(dir);
  {
    std::ofstream f(dir + "/more_producers.csv");
    for (int i = 0; i < 50; ++i) {
      f << "nx" << i << ",Producer,P" << i << ",c,hp,US,gen,2008-01-01\n";
    }
  }
  server::DatabaseOptions db_options;
  db_options.data_dir = dir;
  db_options.store_dir = dir + "/store";
  db_options.wal_fsync = false;
  server::Database db(db_options);
  ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
  ASSERT_TRUE(db.run_script(bsbm::full_ddl()).is_ok());
  ASSERT_TRUE(bsbm::generate(db, bsbm::GeneratorConfig::derive(30, 9)).is_ok());
  const auto base = static_cast<std::int64_t>((*db.table("Producers"))->num_rows());

  ServerOptions options;
  options.num_workers = 4;
  Server server(db, options);
  ASSERT_TRUE(server.start().is_ok());

  constexpr int kReaders = 8;
  constexpr int kBatches = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      Client client = make_client(server.port());
      if (!client.connect().is_ok()) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        auto r = client.run_script(
            "select count(*) as n from table Producers");
        if (!r.is_ok()) {
          failures.fetch_add(1);
          continue;
        }
        const std::int64_t n =
            r->back().table->value_at(0, 0).as_int64();
        if (n < base || (n - base) % 50 != 0) torn_reads.fetch_add(1);
      }
    });
  }
  {
    Client writer = make_client(server.port());
    ASSERT_TRUE(writer.connect().is_ok());
    for (int b = 0; b < kBatches; ++b) {
      auto r = writer.run_script("ingest table Producers more_producers.csv");
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      const Status s = db.checkpoint();
      ASSERT_TRUE(s.is_ok()) << s.to_string();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  {
    // Store counters reach remote clients through the stats verb.
    Client client = make_client(server.port());
    ASSERT_TRUE(client.connect().is_ok());
    auto stats = client.stats();
    ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
    EXPECT_GE(stats->store.snapshots_written,
              static_cast<std::uint64_t>(kBatches));
    EXPECT_GT(stats->store.wal_records, 0u);
    EXPECT_NE(render(*stats, "store.").find("store.wal_append_us "),
              std::string::npos);
  }
  server.stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ((*db.table("Producers"))->num_rows(),
            static_cast<std::size_t>(base) + 50 * kBatches);
  fs::remove_all(dir);
}

// ---- Client auto-retry on in-band kUnavailable -----------------------------
// A scripted fake server: answers the handshake, then plays back one
// canned response per kRunScript request. Distinguishes the in-band case
// (a decoded kUnavailable status — safe to retry, nothing executed) from
// a transport failure (connection dropped — never retried: the outcome
// server-side is unknown).

TEST(NetTest, ClientRetriesInBandUnavailableOnce) {
  auto listener = tcp_listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto port = local_port(*listener);
  ASSERT_TRUE(port.is_ok());

  std::atomic<int> scripts_seen{0};
  std::thread fake([&listener, &scripts_seen] {
    auto conn = tcp_accept(*listener);
    ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
    for (;;) {
      auto frame = recv_frame(*conn, kDefaultMaxFrameBytes);
      if (!frame.is_ok()) return;  // client disconnected
      WireWriter w;
      if (frame->header.verb == Verb::kHandshake) {
        encode_status(Status::ok(), w);
        HandshakeResponse hs;
        hs.session_id = 1;
        hs.server_name = "fake";
        const auto body = encode_handshake_response(hs);
        w.buffer().insert(w.buffer().end(), body.begin(), body.end());
      } else if (frame->header.verb == Verb::kRunScript) {
        // First attempt: the typed retryable status. Second: success.
        if (scripts_seen.fetch_add(1) == 0) {
          encode_status(unavailable("rank down, try again"), w);
        } else {
          encode_status(Status::ok(), w);
          encode_results({}, w);
        }
      } else {
        encode_status(unimplemented("fake server"), w);
      }
      const auto payload = w.take();
      ASSERT_TRUE(send_frame(*conn, frame->header.verb, /*is_response=*/true,
                             frame->header.request_id, payload)
                      .is_ok());
    }
  });

  ClientOptions options;
  options.port = port.value();
  options.unavailable_backoff_ms = 1;
  Client client(options);
  ASSERT_TRUE(client.connect().is_ok());
  auto results = client.run_script("select id from table Products");
  EXPECT_TRUE(results.is_ok()) << results.status().to_string();
  EXPECT_EQ(scripts_seen.load(), 2);
  EXPECT_EQ(client.unavailable_retries_used(), 1u);
  client.disconnect();
  fake.join();
}

TEST(NetTest, ClientDoesNotRetryTransportFailures) {
  auto listener = tcp_listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto port = local_port(*listener);
  ASSERT_TRUE(port.is_ok());

  std::thread fake([&listener] {
    auto conn = tcp_accept(*listener);
    ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
    auto hello = recv_frame(*conn, kDefaultMaxFrameBytes);
    ASSERT_TRUE(hello.is_ok());
    WireWriter w;
    encode_status(Status::ok(), w);
    HandshakeResponse hs;
    hs.session_id = 1;
    const auto body = encode_handshake_response(hs);
    w.buffer().insert(w.buffer().end(), body.begin(), body.end());
    const auto payload = w.take();
    ASSERT_TRUE(send_frame(*conn, Verb::kHandshake, /*is_response=*/true,
                           hello->header.request_id, payload)
                    .is_ok());
    // Read the script request, then vanish without answering: the script
    // may or may not have executed, so the client must NOT retry.
    auto script = recv_frame(*conn, kDefaultMaxFrameBytes);
    ASSERT_TRUE(script.is_ok());
    conn->close();
  });

  ClientOptions options;
  options.port = port.value();
  options.request_timeout_ms = 2000;
  Client client(options);
  ASSERT_TRUE(client.connect().is_ok());
  auto results = client.run_script("select id from table Products");
  EXPECT_FALSE(results.is_ok());
  EXPECT_EQ(client.unavailable_retries_used(), 0u);
  fake.join();
}

}  // namespace
}  // namespace gems::net
