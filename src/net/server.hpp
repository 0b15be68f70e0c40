// gems::net::Server — the GEMS front-end/backend service of the paper
// (Sec. III, Fig. 2) as a real TCP endpoint wrapping `server::Database`.
//
// Shape of the service:
//   accept loop  ->  one reader thread per session  ->  bounded request
//   queue  ->  common::ThreadPool workers  ->  response on the session's
//   socket.
//
// Backpressure is explicit: when the bounded queue is full, new requests
// are rejected *immediately* with a typed kOverloaded status — the accept
// and reader loops never stall on the executor, so the server stays
// responsive under any offered load. Requests carry optional deadlines
// (enforced at dequeue: a request that waited past its deadline is
// answered kDeadlineExceeded without executing) and can be cancelled
// best-effort while still queued. Every request is metered in a
// MetricsRegistry (counters by verb/outcome, bytes in/out, queue-wait vs.
// execute latency), exposed remotely via the `stats` verb.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "net/metrics.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "server/database.hpp"

namespace gems::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the chosen port is available from `port()` after
  /// `start()` succeeds.
  std::uint16_t port = 0;
  /// Worker threads draining the request queue.
  std::size_t num_workers = 4;
  /// Bounded request-queue capacity; requests beyond it are rejected with
  /// kOverloaded (admission control).
  std::size_t queue_capacity = 64;
  /// Frame budget: frames with a larger payload length are rejected
  /// before allocation and the connection is closed.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Test hook: sleep this long inside each worker before executing, to
  /// make queue-wait, deadline and admission behavior deterministic.
  std::uint32_t debug_execute_delay_ms = 0;
};

class Server {
 public:
  /// `db` must outlive the server.
  explicit Server(server::Database& db, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, then spawns the accept loop and workers. Fails on bind errors.
  Status start();

  /// Stops accepting, closes sessions, drains workers. Idempotent.
  void stop();

  /// Blocks until a client issues the shutdown verb or stop() is called.
  void wait();

  /// Port actually bound (after start()).
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The database's metrics blocks plus live request counters/latency;
  /// also served remotely via kStats.
  MetricsSnapshot metrics_snapshot() const {
    MetricsSnapshot snap = database_metrics(db_);
    snap.verbs = metrics_.snapshot().verbs;
    return snap;
  }
  MetricsRegistry& metrics() { return metrics_; }

 private:
  struct SessionConn;
  struct Request;

  void accept_loop();
  void session_loop(const std::shared_ptr<SessionConn>& session);
  void worker_loop();
  void process_request(Request& request);

  /// Encodes status (+ optional pre-encoded body) and writes one response
  /// frame under the session's write lock. When `outcome` is given its
  /// bytes_out is filled in and it is recorded *before* the frame is sent,
  /// so stats snapshots never trail a delivered response. Returns bytes
  /// written.
  std::size_t respond(SessionConn& session, Verb verb,
                      std::uint64_t request_id, const Status& status,
                      std::span<const std::uint8_t> body = {},
                      const MetricsRegistry::Outcome* outcome = nullptr);

  /// Pushes onto the bounded queue; false when full (admission control).
  bool try_enqueue(Request request);

  server::Database& db_;
  ServerOptions options_;
  std::uint16_t port_ = 0;

  Socket listener_;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> workers_;

  sync::Mutex queue_mutex_;
  sync::CondVar queue_cv_;
  std::deque<Request> queue_ GEMS_GUARDED_BY(queue_mutex_);

  sync::Mutex sessions_mutex_;
  std::vector<std::shared_ptr<SessionConn>> sessions_
      GEMS_GUARDED_BY(sessions_mutex_);
  std::vector<std::thread> session_threads_
      GEMS_GUARDED_BY(sessions_mutex_);
  std::atomic<std::uint64_t> next_session_id_{1};

  sync::Mutex shutdown_mutex_;
  sync::CondVar shutdown_cv_;
  bool shutdown_requested_ GEMS_GUARDED_BY(shutdown_mutex_) = false;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  MetricsRegistry metrics_;
};

}  // namespace gems::net
