// E-STORE — durability costs and recovery speed (gems::store):
//   * snapshot encode / durable-write / decode throughput (MB/s) on the
//     Berlin dataset at three scales,
//   * WAL append latency (p50/p99 from the store's own histogram), with
//     and without fsync,
//   * cold recovery (open a checkpointed data dir) vs. re-ingesting the
//     same dataset from CSV — the paper-level claim is that restart cost
//     drops from "re-run the whole load" to "deserialize at I/O speed".
#include <chrono>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "storage/csv.hpp"
#include "store/format.hpp"
#include "store/snapshot.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"

namespace gems::bench {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("gems_bench_store_" + tag)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A checkpointed durable data directory for `scale`, built once per
/// process (the cold-recovery benchmark reopens it repeatedly).
const std::string& checkpointed_dir(std::size_t scale) {
  static std::map<std::size_t, std::string> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    const std::string dir = scratch_dir("ckpt_" + std::to_string(scale));
    server::DatabaseOptions options;
    options.store_dir = dir;
    options.wal_fsync = false;
    auto db = bsbm::make_populated_database(
        bsbm::GeneratorConfig::derive(scale), std::move(options));
    GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
    GEMS_CHECK((*db)->checkpoint().is_ok());
    it = cache.emplace(scale, dir).first;
  }
  return it->second;
}

/// CSV exports of the Berlin dataset for `scale` (the re-ingest baseline).
const std::string& csv_dir(std::size_t scale) {
  static std::map<std::size_t, std::string> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    const std::string dir = scratch_dir("csv_" + std::to_string(scale));
    GEMS_CHECK(bsbm::write_csv_files(berlin_db(scale), dir).is_ok());
    it = cache.emplace(scale, dir).first;
  }
  return it->second;
}

void BM_SnapshotEncode(benchmark::State& state) {
  auto& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto image = store::encode_snapshot(db.context(), 1);
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotEncode)->Arg(100)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotWriteDurable(benchmark::State& state) {
  auto& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  const auto image = store::encode_snapshot(db.context(), 1);
  const std::string dir = scratch_dir("write");
  const std::string path = dir + "/snapshot.gsnp";
  for (auto _ : state) {
    auto s = store::write_file_durable(path, image);
    GEMS_CHECK_MSG(s.is_ok(), s.to_string().c_str());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(image.size()) *
                          state.iterations());
}
BENCHMARK(BM_SnapshotWriteDurable)->Arg(100)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotDecode(benchmark::State& state) {
  auto& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  const auto image = store::encode_snapshot(db.context(), 1);
  for (auto _ : state) {
    server::Database fresh;  // decode target: empty pool + catalog
    auto info = store::decode_snapshot(image, fresh.context());
    GEMS_CHECK_MSG(info.is_ok(), info.status().to_string().c_str());
    benchmark::DoNotOptimize(fresh.context().tables);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(image.size()) *
                          state.iterations());
}
BENCHMARK(BM_SnapshotDecode)->Arg(100)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

/// WAL append latency. Arg = fsync on append (0/1). The p50/p99 counters
/// come from the log-scale histogram the store itself maintains, i.e. the
/// same numbers `\stats store.` reports.
void BM_WalAppend(benchmark::State& state) {
  const bool fsync = state.range(0) != 0;
  const std::string dir = scratch_dir(fsync ? "wal_fsync" : "wal_nofsync");
  auto opened = store::Wal::open(dir + "/wal.gwal", 0, fsync);
  GEMS_CHECK_MSG(opened.is_ok(), opened.status().to_string().c_str());
  auto wal = std::move(opened->wal);
  const std::vector<std::uint8_t> payload(256, 0xAB);  // ~1 ingested row
  LatencyHistogram hist;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto seq = wal->append(store::WalRecordType::kIngestRows, payload);
    const auto stop = std::chrono::steady_clock::now();
    GEMS_CHECK_MSG(seq.is_ok(), seq.status().to_string().c_str());
    hist.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
            .count()));
  }
  state.counters["p50_us"] = static_cast<double>(hist.quantile_us(0.50));
  state.counters["p99_us"] = static_cast<double>(hist.quantile_us(0.99));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(payload.size() + store::kWalFrameBytes) *
      state.iterations());
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Cold recovery: open a checkpointed data directory from scratch
/// (snapshot load + empty-WAL scan + no replay). Manual timing so the
/// Database destructor (thread joins) stays out of the measurement.
void BM_ColdRecovery(benchmark::State& state) {
  const std::size_t scale = static_cast<std::size_t>(state.range(0));
  const std::string& dir = checkpointed_dir(scale);
  std::uint64_t snapshot_bytes = 0;
  for (auto _ : state) {
    server::DatabaseOptions options;
    options.store_dir = dir;
    options.wal_fsync = false;
    const auto start = std::chrono::steady_clock::now();
    server::Database db(std::move(options));
    const auto stop = std::chrono::steady_clock::now();
    GEMS_CHECK_MSG(db.store_status().is_ok(),
                   db.store_status().to_string().c_str());
    snapshot_bytes = db.store_metrics().recovery_snapshot_bytes;
    state.SetIterationTime(
        std::chrono::duration<double>(stop - start).count());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(snapshot_bytes);
}
BENCHMARK(BM_ColdRecovery)->Arg(100)->Arg(500)->Arg(2000)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

/// The baseline cold recovery replaces: rebuild the same database by
/// re-running the DDL and re-ingesting every CSV (parse + intern + join +
/// CSR build).
void BM_ReIngestBaseline(benchmark::State& state) {
  const std::size_t scale = static_cast<std::size_t>(state.range(0));
  const std::string& dir = csv_dir(scale);
  std::string ingest_script;
  for (const auto& name : berlin_db(scale).tables().names()) {
    ingest_script +=
        "ingest table " + name + " '" + name + ".csv' with header\n";
  }
  for (auto _ : state) {
    server::DatabaseOptions options;
    options.data_dir = dir;
    const auto start = std::chrono::steady_clock::now();
    server::Database db(std::move(options));
    auto ddl = db.run_script(bsbm::full_ddl());
    GEMS_CHECK_MSG(ddl.is_ok(), ddl.status().to_string().c_str());
    auto r = db.run_script(ingest_script);
    const auto stop = std::chrono::steady_clock::now();
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    state.SetIterationTime(
        std::chrono::duration<double>(stop - start).count());
  }
}
BENCHMARK(BM_ReIngestBaseline)->Arg(100)->Arg(500)->Arg(2000)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
