// e2e_bench: serves one workload to a gems::net::Server in this process
// through net::Client sessions and prints its metrics. The last line of
// standard output is the result object; the lines before it name every
// figure with its unit and the context the run was taken in.
//
//   e2e_bench --workload bi_read --seed 1 --seconds 20 --trace 0
//             --work-dir .bench_build/run/bi_read
//
// run.py builds it and passes --work-dir; use that for the benchmark.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "common/logging.hpp"
#include "workloads.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

/// Longest a run may take before the watchdog fails it (run.py allows 170).
constexpr std::chrono::seconds kRunLimit{160};

int usage(const char* why) {
  std::cerr << "e2e_bench: " << why
            << "\nusage: e2e_bench --workload bi_read|table_scan "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value == "1";
      } else if (key == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("options come in pairs");
  if (options.work_dir.empty()) return usage("--work-dir is required");
  if (options.seconds <= 0) return usage("--seconds must be positive");
  e2e::Workload workload;
  if (!e2e::make_workload(options.workload, options.cores, workload)) {
    return usage("unknown workload");
  }
  gems::set_log_level(gems::LogLevel::kWarning);
  std::filesystem::create_directories(options.work_dir);

  std::cout << "context: nproc " << options.cores << ", build "
            << E2E_BUILD_TYPE << ", scale " << e2e::kScale << " products, "
            << workload.readers << " read session(s)"
            << (workload.cluster_replay && options.trace
                    ? ", then a " + std::to_string(e2e::kClusterRanks) +
                          "-rank loopback cluster"
                    : "")
            << (workload.ingest_replay && options.trace
                    ? ", then durable ingest: " +
                          std::to_string(std::max(1u, options.cores - 1)) +
                          " readers, 1 open-loop writer at " +
                          std::to_string(static_cast<int>(e2e::kWriterRatePerS)) +
                          " batches/s of " +
                          std::to_string(e2e::kBatchRows) +
                          " rows, wal_fsync on, checkpoint every " +
                          std::to_string(e2e::kCheckpointIntervalMs) + " ms"
                    : "")
            << ", " << (options.trace ? "traced" : "untraced") << " run of "
            << options.seconds << " s\n";

  // A run must end within the benchmark's time limit; if the system under
  // test wedges (a worker that never returns would block the server's
  // stop), fail the run here, with the last progress line on stderr.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(done_mutex);
    if (!done_cv.wait_for(lock, kRunLimit, [&] { return done; })) {
      std::cerr << "e2e_bench: the run exceeded " << kRunLimit.count()
                << " s; giving up" << std::endl;
      std::_Exit(3);
    }
  });
  e2e::Report report;
  e2e::run_workload(workload, options, report);
  if (options.trace && workload.ingest_replay) {
    e2e::Report ingest;
    e2e::run_workload(e2e::ingest_workload(options.cores), options, ingest);
    report.merge(ingest, e2e::ingest_layer_metrics());
  }
  std::cerr << "run done, serving fixture torn down" << std::endl;
  {
    std::lock_guard<std::mutex> lock(done_mutex);
    done = true;
  }
  done_cv.notify_one();
  watchdog.join();
  // After the run, so its allocations cannot shape what the run measured.
  const auto canary = e2e::machine_canary_ms();
  std::cout << "machine canary: compute " << canary.first << " ms, memory "
            << canary.second << " ms\n";

  std::error_code ec;
  std::filesystem::remove_all(options.work_dir + "/store", ec);
  std::filesystem::remove_all(options.work_dir + "/batches", ec);
  std::cout << e2e::report_json(report) << std::endl;
  return 0;
}
