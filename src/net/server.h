#ifndef RLPLANNER_NET_SERVER_H_
#define RLPLANNER_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/http.h"
#include "util/status.h"

namespace rlplanner::obs {
class Registry;
class Counter;
class Gauge;
class Histogram;
class TraceCollector;
}  // namespace rlplanner::obs

namespace rlplanner::net {

/// The handler's answer to one request. Serialized by the owning shard with
/// Content-Length and the connection's keep-alive disposition.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

class HttpServer;

/// A move-only completion token for exactly one in-flight request. Send()
/// may be called from any thread (the epoll shard itself for inline
/// handlers, a PlanService worker for async ones); the response is routed
/// back to the owning shard through its completion queue and eventfd, so no
/// connection state is ever touched off-shard. Destroying an unanswered
/// Responder sends 500 — a handler bug must not wedge the connection.
class Responder {
 public:
  Responder() = default;
  Responder(Responder&& other) noexcept { *this = std::move(other); }
  Responder& operator=(Responder&& other) noexcept;
  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;
  ~Responder();

  /// Delivers the response; valid exactly once, then the token is spent.
  void Send(HttpResponse response);

  bool valid() const { return server_ != nullptr; }

 private:
  friend class HttpServer;
  Responder(HttpServer* server, std::size_t shard, int fd,
            std::uint64_t generation)
      : server_(server), shard_(shard), fd_(fd), generation_(generation) {}

  HttpServer* server_ = nullptr;
  std::size_t shard_ = 0;
  int fd_ = -1;
  std::uint64_t generation_ = 0;
};

struct HttpServerConfig {
  /// Dotted-quad IPv4 listen address ("127.0.0.1", "0.0.0.0"); "localhost"
  /// is accepted as an alias for 127.0.0.1.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Acceptor/worker shards: each gets its own SO_REUSEPORT listening
  /// socket, epoll instance, and thread — shared-nothing, the kernel load
  /// balances accepts across them. 0 means one per hardware thread.
  std::size_t num_shards = 0;
  /// Hard bound on one request (head + body); beyond it the connection gets
  /// 400 and is closed. Also bounds the per-connection read buffer.
  std::size_t max_request_bytes = std::size_t{64} * 1024;
  /// Accepted connections per shard; accepts beyond it are closed on sight.
  std::size_t max_connections_per_shard = 4096;
  /// Graceful-drain budget for Shutdown(): time allowed for in-flight
  /// responses to be computed and flushed before connections are closed
  /// forcibly.
  double drain_timeout_s = 5.0;
  /// Shared metrics registry for the net_* counters/histograms (not owned;
  /// must outlive the server). Null gives the server a private registry.
  obs::Registry* metrics = nullptr;
  /// Optional trace collector (not owned): emits serve_accept events and
  /// names the shard timelines.
  obs::TraceCollector* trace = nullptr;
};

/// An epoll-based HTTP/1.1 front end with per-core shared-nothing shards.
///
/// Each shard owns its listening socket (SO_REUSEPORT), its epoll loop, and
/// every connection it accepted — no connection is ever touched by two
/// shards, so the data plane needs no locks. The only cross-thread edge is
/// the completion queue: handlers answer through a Responder, which
/// enqueues the response on the owning shard and wakes its eventfd.
///
/// Lifecycle: construct → Start() → serve → Shutdown(). Shutdown is
/// graceful: every shard stops accepting (closes its listening socket),
/// closes idle keep-alive connections, finishes parsing/serving requests
/// already on the wire (responses go out with `Connection: close`), and
/// force-closes stragglers only after config.drain_timeout_s. Idempotent;
/// also run by the destructor.
///
/// Registered metrics (latency in microseconds):
///   net_connections_total / net_connections_active      counter / gauge
///   net_bytes_read_total / net_bytes_written_total      counters
///   net_requests_total / net_parse_errors_total         counters
///   net_responses_total{code="..."}                     counter per status
///   net_responses_orphaned_total                        counter (peer gone)
///   net_request_latency_us                              histogram
///     (first request byte read → last response byte written to the socket)
class HttpServer {
 public:
  /// Invoked on the owning shard's thread with one parsed request. The
  /// handler either answers inline or moves the Responder into an async
  /// completion (e.g. a PlanService callback). Must not block.
  using Handler = std::function<void(HttpRequest, Responder)>;

  HttpServer(HttpServerConfig config, Handler handler);
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;
  ~HttpServer();

  /// Binds the listening sockets and spawns the shard threads. Fails with
  /// the bind/listen error without partial listeners left behind.
  util::Status Start();

  /// Graceful drain then join; see class comment. Idempotent.
  void Shutdown();

  /// The bound port (resolves port 0 after Start()).
  std::uint16_t port() const { return bound_port_; }
  /// Shards actually running (resolves num_shards 0 after Start()).
  std::size_t num_shards() const { return shards_.size(); }
  const HttpServerConfig& config() const { return config_; }
  /// The registry the net_* metrics record into (never null after
  /// construction).
  obs::Registry* metrics_registry() const { return metrics_; }

 private:
  friend class Responder;

  struct Connection {
    std::uint64_t generation = 0;
    std::string rbuf;
    std::string wbuf;
    std::size_t wbuf_sent = 0;
    bool in_flight = false;         // a request is with the handler
    bool close_after_write = false;
    bool read_closed = false;       // peer EOF or we stopped reading
    bool want_write = false;        // EPOLLOUT currently armed
    bool timing = false;
    std::chrono::steady_clock::time_point request_start{};
  };

  struct Completion {
    int fd = -1;
    std::uint64_t generation = 0;
    HttpResponse response;
  };

  struct Shard {
    std::size_t index = 0;
    int listen_fd = -1;
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    std::mutex completion_mutex;
    std::vector<Completion> completions;
    std::unordered_map<int, Connection> connections;
    std::uint64_t next_generation = 1;
    bool draining = false;
    std::chrono::steady_clock::time_point drain_deadline{};
  };

  void ShardLoop(Shard& shard);
  void AcceptReady(Shard& shard);
  void ConnectionReadable(Shard& shard, int fd, Connection& conn);
  void TryParse(Shard& shard, int fd, Connection& conn);
  void QueueResponse(Shard& shard, int fd, Connection& conn,
                     const HttpResponse& response);
  /// Flushes as much of wbuf as the socket accepts; closes on completion
  /// when requested. Returns false when the connection was closed.
  bool FlushWrites(Shard& shard, int fd, Connection& conn);
  void UpdateInterest(Shard& shard, int fd, Connection& conn);
  void CloseConnection(Shard& shard, int fd);
  void BeginDrain(Shard& shard);
  void ProcessCompletions(Shard& shard);

  /// Responder's entry point: enqueue on the owning shard, wake its loop.
  void Complete(std::size_t shard_index, int fd, std::uint64_t generation,
                HttpResponse response);

  obs::Counter* ResponseCounter(int status);

  HttpServerConfig config_;
  Handler handler_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> joined_{false};

  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* metrics_;
  obs::Counter* connections_total_;
  obs::Gauge* connections_active_;
  obs::Counter* bytes_read_total_;
  obs::Counter* bytes_written_total_;
  obs::Counter* requests_total_;
  obs::Counter* parse_errors_total_;
  obs::Counter* responses_orphaned_total_;
  obs::Histogram* request_latency_us_;
  std::mutex response_counters_mutex_;
  std::unordered_map<int, obs::Counter*> response_counters_;
};

}  // namespace rlplanner::net

#endif  // RLPLANNER_NET_SERVER_H_
