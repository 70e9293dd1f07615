#ifndef XARCH_SERVER_SERVER_H_
#define XARCH_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/net_util.h"
#include "server/protocol.h"
#include "util/thread_pool.h"
#include "xarch/store.h"

namespace xarch::server {

/// Tuning for one Server instance.
struct ServerOptions {
  /// Bind address. Loopback by default: exposing an archive to a network
  /// is an explicit decision (the protocol has no authentication).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (see Server::port()).
  uint16_t port = 0;
  /// Worker threads running session loops — the maximum number of
  /// concurrently served connections; further accepted connections queue
  /// until a session ends. Clamped to at least 1.
  size_t session_threads = 8;
  /// Admission control: QUERY frames beyond this many concurrently
  /// evaluating queries are answered with ERROR (busy) instead of piling
  /// onto the store lock. Clamped to at least 1.
  size_t max_inflight_queries = 4;
  /// How often an idle session rechecks the stop flag, and therefore the
  /// upper bound a drain waits on a session that is between requests.
  int idle_poll_ms = 100;
  /// A peer that stalls this long in the middle of a frame is dropped.
  int stall_timeout_ms = 5000;
  /// Banner returned in HELLO_OK.
  std::string server_name = "xarchd";
  /// Log a structured span tree (obs::Logger) for any query at least this
  /// slow, in microseconds. 0 logs every query (CI smoke runs use that);
  /// negative (default) disables slow-query logging entirely.
  int64_t slow_query_us = -1;
  /// Test-only: runs after a query passes admission control and before it
  /// evaluates. Lets tests park queries deterministically to fill the
  /// admission gate or exercise drain; never set in production.
  std::function<void()> query_gate_hook;
};

/// Monotonic server-wide counters (a point-in-time copy; see
/// Server::StatsSnapshot).
struct ServerStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_active = 0;
  uint64_t queries = 0;        ///< successfully answered QUERYs
  uint64_t ingests = 0;        ///< successfully answered INGESTs
  uint64_t documents_ingested = 0;
  uint64_t bytes_in = 0;       ///< wire bytes read across all sessions
  uint64_t bytes_out = 0;      ///< wire bytes written across all sessions
  uint64_t rejected_busy = 0;  ///< queries bounced by admission control
  uint64_t protocol_errors = 0;
  uint64_t query_latency_p50_us = 0;  ///< histogram upper bound (<=6.25% off)
  uint64_t query_latency_p99_us = 0;
};

/// \brief The xarchd service core: accepts TCP connections and serves the
/// wire protocol (server/protocol.h) over one Store.
///
/// Threading: one accept thread hands each connection to a fixed
/// util::ThreadPool whose workers run the session loops, so at most
/// `session_threads` sessions are live at once. All store access goes
/// through the public Store API — reads ride its shared lock
/// (snapshot-isolated, any number in parallel), ingest its exclusive lock
/// — so the server adds no locking of its own around the store.
///
/// Lifecycle: Start() binds and begins accepting. RequestStop() (thread-
/// and signal-context-safe apart from memory allocation — call it from a
/// thread, not a signal handler) stops accepting and asks sessions to
/// drain: each finishes its in-flight request, then closes. Join() blocks
/// until the drain completes. The Store outlives the Server; the caller
/// checkpoints it after Join() for a clean shutdown (xarchd does).
class Server {
 public:
  /// Binds, spawns the accept loop, and returns a running server. `store`
  /// must outlive the returned Server.
  static StatusOr<std::unique_ptr<Server>> Start(Store& store,
                                                 ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (useful with options.port == 0).
  uint16_t port() const { return listener_.bound_port(); }

  /// Begins a graceful stop: no new connections, sessions drain.
  void RequestStop();

  /// True once RequestStop() was called (or a SHUTDOWN frame arrived).
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Blocks until stop is requested — by RequestStop() or a client's
  /// SHUTDOWN frame. The daemon main loop sits here.
  void WaitForStopRequest();

  /// Completes the stop: joins the accept thread and every session.
  /// Implies RequestStop(). Idempotent.
  void Join();

  /// Point-in-time copy of the server-wide counters.
  ServerStats StatsSnapshot() const;

  /// Prometheus text exposition: the process-wide registry (engine, WAL,
  /// VFS instruments) followed by this server's own registry. This is the
  /// METRICS response body.
  std::string MetricsText() const;

  /// The server's own instrument registry (session/frame/latency series).
  /// Benches snapshot it alongside the process-wide default registry.
  const obs::Registry& registry() const { return registry_; }

 private:
  Server(Store& store, ServerOptions options, net::Listener listener);

  void AcceptLoop();
  void RunSession(std::shared_ptr<net::Socket> socket);

  /// Per-session counters, owned by the session thread.
  struct SessionState {
    uint64_t queries = 0;
    uint64_t ingests = 0;
    uint64_t bytes_out = 0;
    bool hello_done = false;
  };

  /// Handles one decoded request frame. Returns false when the session
  /// must end (fatal protocol error or write failure).
  bool HandleFrame(const net::Socket& socket, const net::Frame& frame,
                   const net::FrameReader& reader, SessionState* session);

  bool HandleHello(const net::Socket& socket, const net::Frame& frame,
                   SessionState* session);
  bool HandleQuery(const net::Socket& socket, const net::Frame& frame,
                   SessionState* session);
  bool HandleIngest(const net::Socket& socket, const net::Frame& frame,
                    SessionState* session);
  bool HandleStats(const net::Socket& socket, const net::FrameReader& reader,
                   SessionState* session);
  bool HandleMetrics(const net::Socket& socket, SessionState* session);

  /// Best-effort structured error; returns false when the write failed.
  bool SendError(const net::Socket& socket, net::ErrorCode code,
                 const std::string& message, SessionState* session);

  /// Bumps both views of the protocol-error count (STATS and METRICS).
  void CountProtocolError() {
    counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    protocol_errors_metric_->Increment();
  }

  Store& store_;
  const ServerOptions options_;
  net::Listener listener_;

  std::atomic<bool> stop_{false};
  std::unique_ptr<util::ThreadPool> sessions_pool_;
  std::thread accept_thread_;
  bool joined_ = false;

  mutable std::mutex mu_;               // guards cv waits
  std::condition_variable stop_cv_;     // signaled by RequestStop
  std::condition_variable drained_cv_;  // signaled as sessions end

  /// Per-server instruments. Each Server owns its registry (tests run
  /// several servers in one process; sharing the process-wide registry
  /// would fold their counts together), so METRICS concatenates the
  /// default registry with this one.
  obs::Registry registry_;
  obs::Histogram* query_latency_us_;  // owned by registry_
  obs::Counter* sessions_opened_metric_;
  obs::Counter* frames_total_;
  obs::Counter* rejected_busy_metric_;
  obs::Counter* protocol_errors_metric_;
  obs::Counter* slow_queries_metric_;

  struct Counters {
    std::atomic<uint64_t> sessions_opened{0};
    std::atomic<uint64_t> sessions_active{0};
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> ingests{0};
    std::atomic<uint64_t> documents_ingested{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> rejected_busy{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> inflight_queries{0};
  };
  Counters counters_;
};

}  // namespace xarch::server

#endif  // XARCH_SERVER_SERVER_H_
