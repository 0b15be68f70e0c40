// The four workloads: their request mixes, the system under test as one
// fixture (database, optional cluster, net::Server), the untraced load
// phase that yields the end-to-end metrics, and the traced replay that
// yields the per-layer ones.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bsbm/generator.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/rank_worker.hpp"
#include "harness.hpp"
#include "net/server.hpp"
#include "server/database.hpp"

namespace e2e {

/// Product scale of every workload's dataset (Offers ~100k rows).
inline constexpr std::size_t kScale = 20000;
/// New offers per ingest batch.
inline constexpr std::size_t kBatchRows = 1000;
/// Ingest batches per second sent by the open-loop writer: about half of
/// what one writer sustains back to back under the readers on the code
/// this benchmark was defined on (4-vCPU x86-64 VM, RelWithDebInfo): ~11
/// batches/s on the generated 100k offers, ~6/s at 175k, as each ingest
/// clones the table.
inline constexpr double kWriterRatePerS = 3.0;
/// Background checkpoint period of the durable store.
inline constexpr std::uint64_t kCheckpointIntervalMs = 2500;
/// Ranks of the loopback cluster.
inline constexpr std::size_t kClusterRanks = 2;
/// Timed set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// Latency charged to a failed or refused request (the client's budget).
inline constexpr double kFailedRequestMs = 30000;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
  unsigned cores = std::max(1u, std::thread::hardware_concurrency());
};

/// One kind of read request: a GraQL script and the parameters it binds.
struct RequestKind {
  std::string name;
  std::string text;
  std::vector<std::string> params;
};

/// A generated request: the only thing the system under test receives.
struct Request {
  std::size_t kind = 0;
  std::string text;
  gems::relational::ParamMap params;
};

/// Parameter domains of the generated dataset.
struct Domains {
  std::size_t products = 0;
  std::size_t types = 0;
  std::size_t producers = 0;
  std::size_t vendors = 0;
  std::size_t offers = 0;  // existing offer rows (new ids start here)
};
Domains domains_for(std::uint64_t seed);

/// Deals requests deck by deck: every kind once per deck, in a seeded
/// order, with seeded parameters. Equal weights hold exactly over whole
/// decks, which is why a load phase always ends on a deck boundary.
class RequestStream {
 public:
  RequestStream(const std::vector<RequestKind>& kinds, const Domains& domains,
                std::uint64_t seed);
  Request next();
  bool at_deck_boundary() const { return pos_ == 0; }

 private:
  const std::vector<RequestKind>& kinds_;
  Domains domains_;
  Rng rng_;
  std::vector<std::size_t> deck_;
  std::size_t pos_ = 0;
};

struct Workload {
  std::string name;
  std::vector<RequestKind> kinds;
  std::size_t readers = 1;  // closed-loop sessions
  /// Percentile reported as query_tail_ms: a ladder step inside the
  /// slowest kind's latency band that the seed code's sample supports,
  /// fixed so that a faster commit (more samples) reports the same one.
  double tail_quantile = 0.95;
  bool writer = false;      // open-loop ingest session (ingest_mix)
  bool durable = false;     // store_dir-backed database
  bool cluster = false;     // runs on the 2-rank loopback cluster
  /// The traced run also replays cluster_workload() on a 2-rank cluster
  /// attached to this workload's database (bi_read).
  bool cluster_replay = false;
  /// The traced run is followed by a traced run of ingest_workload(),
  /// whose write-path layers replace this one's zeros (table_scan).
  bool ingest_replay = false;
};

/// The workloads; false if `name` is none of them.
bool make_workload(const std::string& name, unsigned cores, Workload& out);

/// The graph statements of Q1-Q9 and the chain queries, run through a
/// 2-rank loopback cluster by bi_read's traced run.
Workload cluster_workload();

/// Durable ingest under readers: an open-loop writer of 1000-offer batches
/// and `cores`-1 closed-loop readers, then checkpoint, close and reopen.
/// Run by table_scan's traced run for the write-path layers.
Workload ingest_workload(unsigned cores);

/// Names of the per-layer metrics ingest_workload() measures.
const std::vector<std::string>& ingest_layer_metrics();

/// A 2-rank loopback cluster: coordinator attached to the database, rank
/// workers as threads of this process.
class LoopbackCluster {
 public:
  LoopbackCluster(gems::server::Database& db, std::size_t ranks);
  ~LoopbackCluster();
  LoopbackCluster(const LoopbackCluster&) = delete;
  LoopbackCluster& operator=(const LoopbackCluster&) = delete;

  gems::Status start();
  gems::cluster::Coordinator& coordinator() { return *coordinator_; }

 private:
  std::size_t ranks_;
  std::unique_ptr<gems::cluster::Coordinator> coordinator_;
  std::vector<std::unique_ptr<gems::cluster::RankWorker>> workers_;
  std::vector<std::thread> threads_;
};

/// The system under test. Members are destroyed server first, then the
/// cluster (attached by bi_read's traced run), then the database.
struct Fixture {
  std::string store_dir;  // durable workloads
  std::string data_dir;   // ingest batch files
  std::unique_ptr<gems::server::Database> db;
  std::unique_ptr<LoopbackCluster> cluster;
  std::unique_ptr<gems::net::Server> server;
  std::vector<std::string> batch_files;  // relative to data_dir
  std::size_t batches_used = 0;          // ingested so far

  ~Fixture();
};

/// Runs the workload: timed set-ups, the load phase, the output checks,
/// and with `trace` the traced replay. Fills `report` with the
/// end-to-end metrics (trace off) or the per-layer ones (trace on).
void run_workload(const Workload& workload, const RunOptions& options,
                  Report& report);

// ---- Traced replay (traced.cpp) -----------------------------------------

/// Counters the load phase leaves for the per-layer report.
struct LoadCounters {
  double queue_wait_ms_p50 = 0;
  double execute_ms_p50 = 0;
  double exclusive_wait_ms = 0;  // per exclusive acquisition
  double exclusive_held_ms = 0;
  double shared_acquired = 0;
  double epochs_published = 0;
  double reads_per_epoch = 0;
  double live_epochs = 0;
  double peak_pinned_readers = 0;
  double oldest_pin_age_ms = 0;
  double graph_delta_ms_per_ingest = 0;
  double graph_delta_ratio = 0;
  double store_wal_append_ms_p50 = 0;
  double store_wal_bytes_per_row = 0;
  double store_snapshot_write_ms_p50 = 0;
  double store_snapshots_written = 0;
  double ingest_late_ms_max = 0;
};

/// Replays seeded requests over one session and through each layer's
/// public entry point inside spans; adds the per-layer metrics.
void traced_replay(const Workload& workload, const RunOptions& options,
                   Fixture& fixture, const Domains& domains,
                   const LoadCounters& counters, Report& report);

}  // namespace e2e
