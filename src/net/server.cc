#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/export.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace rlplanner::net {
namespace {

// Registration can only fail on a name/kind conflict with a foreign metric;
// falling back to a disabled cell keeps the hot path free of null checks.
obs::Counter* FallbackCounter() {
  static obs::Counter counter(false);
  return &counter;
}

obs::Gauge* FallbackGauge() {
  static obs::Gauge gauge(false);
  return &gauge;
}

obs::Histogram* FallbackHistogram() {
  static obs::Histogram histogram(false);
  return &histogram;
}

std::string ErrorBody(std::string_view message) {
  return "{\"error\":\"" + obs::JsonEscape(message) + "\"}\n";
}

HttpResponse DroppedResponse() {
  HttpResponse response;
  response.status = 500;
  response.body = ErrorBody("handler dropped the request");
  return response;
}

}  // namespace

Responder& Responder::operator=(Responder&& other) noexcept {
  if (this != &other) {
    if (server_ != nullptr) {
      server_->Complete(shard_, fd_, generation_, DroppedResponse());
    }
    server_ = other.server_;
    shard_ = other.shard_;
    fd_ = other.fd_;
    generation_ = other.generation_;
    other.server_ = nullptr;
  }
  return *this;
}

Responder::~Responder() {
  if (server_ != nullptr) Send(DroppedResponse());
}

void Responder::Send(HttpResponse response) {
  if (server_ == nullptr) return;
  HttpServer* server = server_;
  server_ = nullptr;
  server->Complete(shard_, fd_, generation_, std::move(response));
}

HttpServer::HttpServer(HttpServerConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  if (config_.metrics == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    metrics_ = owned_registry_.get();
  } else {
    metrics_ = config_.metrics;
  }
  const auto counter = [this](const char* name, const char* help) {
    auto result = metrics_->GetCounter(name, help);
    return result.ok() ? result.value() : FallbackCounter();
  };
  connections_total_ =
      counter("net_connections_total", "TCP connections accepted");
  bytes_read_total_ =
      counter("net_bytes_read_total", "Bytes read from client sockets");
  bytes_written_total_ =
      counter("net_bytes_written_total", "Bytes written to client sockets");
  requests_total_ =
      counter("net_requests_total", "HTTP requests parsed off the wire");
  parse_errors_total_ = counter("net_parse_errors_total",
                                "Connections rejected with 400 by the parser");
  responses_orphaned_total_ =
      counter("net_responses_orphaned_total",
              "Responses whose connection was gone before delivery");
  {
    auto result = metrics_->GetGauge("net_connections_active",
                                     "Currently open client connections");
    connections_active_ = result.ok() ? result.value() : FallbackGauge();
  }
  {
    auto result = metrics_->GetHistogram(
        "net_request_latency_us",
        "First request byte read to last response byte written, microseconds");
    request_latency_us_ = result.ok() ? result.value() : FallbackHistogram();
  }
  // Pre-create the codes the serving path emits so the hot path almost never
  // takes the lazy-lookup lock.
  for (const int status : {200, 400, 404, 405, 500, 503, 504}) {
    ResponseCounter(status);
  }
}

HttpServer::~HttpServer() {
  Shutdown();
  for (auto& shard : shards_) {
    if (shard->listen_fd >= 0) ::close(shard->listen_fd);
    if (shard->event_fd >= 0) ::close(shard->event_fd);
    if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
  }
}

obs::Counter* HttpServer::ResponseCounter(int status) {
  std::lock_guard<std::mutex> lock(response_counters_mutex_);
  auto it = response_counters_.find(status);
  if (it != response_counters_.end()) return it->second;
  auto result =
      metrics_->GetCounter("net_responses_total",
                           "HTTP responses sent, by status code",
                           {{"code", std::to_string(status)}});
  obs::Counter* cell = result.ok() ? result.value() : FallbackCounter();
  response_counters_.emplace(status, cell);
  return cell;
}

util::Status HttpServer::Start() {
  if (started_.exchange(true)) {
    return util::Status::FailedPrecondition("HttpServer already started");
  }
  const std::string host =
      config_.host == "localhost" ? "127.0.0.1" : config_.host;
  in_addr listen_addr{};
  if (inet_pton(AF_INET, host.c_str(), &listen_addr) != 1) {
    started_.store(false);
    return util::Status::InvalidArgument(
        "'" + config_.host + "' is not a valid IPv4 listen address");
  }
  const std::size_t num_shards =
      config_.num_shards != 0
          ? config_.num_shards
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());

  const auto fail = [this](std::string message) {
    for (auto& shard : shards_) {
      if (shard->listen_fd >= 0) ::close(shard->listen_fd);
      if (shard->event_fd >= 0) ::close(shard->event_fd);
      if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
    }
    shards_.clear();
    started_.store(false);
    return util::Status::Internal(std::move(message));
  };

  std::uint16_t port = config_.port;
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (shard->listen_fd < 0) {
      return fail(std::string("socket(): ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(shard->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    // SO_REUSEPORT is what lets every shard own its own listening socket on
    // the same address — the kernel hashes incoming connections across them.
    if (::setsockopt(shard->listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof one) != 0) {
      shards_.push_back(std::move(shard));
      return fail(std::string("setsockopt(SO_REUSEPORT): ") +
                  std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr = listen_addr;
    if (::bind(shard->listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
      shards_.push_back(std::move(shard));
      return fail("bind(" + host + ":" + std::to_string(port) +
                  "): " + std::strerror(errno));
    }
    if (::listen(shard->listen_fd, 1024) != 0) {
      shards_.push_back(std::move(shard));
      return fail(std::string("listen(): ") + std::strerror(errno));
    }
    if (port == 0) {
      // Shard 0 resolved the ephemeral port; the remaining shards must bind
      // the same one for SO_REUSEPORT balancing to apply.
      sockaddr_in bound{};
      socklen_t len = sizeof bound;
      if (::getsockname(shard->listen_fd,
                        reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        shards_.push_back(std::move(shard));
        return fail(std::string("getsockname(): ") + std::strerror(errno));
      }
      port = ntohs(bound.sin_port);
    }
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    shard->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (shard->epoll_fd < 0 || shard->event_fd < 0) {
      shards_.push_back(std::move(shard));
      return fail(std::string("epoll_create1()/eventfd(): ") +
                  std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = shard->listen_fd;
    ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->listen_fd, &ev);
    ev.data.fd = shard->event_fd;
    ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->event_fd, &ev);
    shards_.push_back(std::move(shard));
  }
  bound_port_ = port;
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([this, raw] { ShardLoop(*raw); });
  }
  return util::Status::Ok();
}

void HttpServer::Shutdown() {
  if (!started_.load()) return;
  stop_requested_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->event_fd >= 0) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n =
          ::write(shard->event_fd, &one, sizeof one);
    }
  }
  if (joined_.exchange(true)) return;
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void HttpServer::ShardLoop(Shard& shard) {
  if (config_.trace != nullptr) {
    config_.trace->SetCurrentThreadName("net-shard-" +
                                        std::to_string(shard.index));
  }
  epoll_event events[64];
  while (true) {
    if (stop_requested_.load(std::memory_order_acquire) && !shard.draining) {
      BeginDrain(shard);
    }
    if (shard.draining) {
      if (shard.connections.empty()) break;
      if (std::chrono::steady_clock::now() >= shard.drain_deadline) {
        std::vector<int> remaining;
        remaining.reserve(shard.connections.size());
        for (const auto& [fd, conn] : shard.connections) {
          remaining.push_back(fd);
        }
        for (const int fd : remaining) CloseConnection(shard, fd);
        break;
      }
    }
    const int timeout_ms = shard.draining ? 10 : -1;
    const int n = ::epoll_wait(shard.epoll_fd, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Connection and completion events first, accepts last: closes during
    // this batch free fd numbers, and deferring accept4 guarantees a stale
    // event in the same batch can never be applied to a freshly accepted
    // connection reusing one of them.
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == shard.listen_fd) {
        accept_ready = true;
        continue;
      }
      if (fd == shard.event_fd) {
        std::uint64_t drained = 0;
        while (::read(shard.event_fd, &drained, sizeof drained) > 0) {
        }
        ProcessCompletions(shard);
        continue;
      }
      auto it = shard.connections.find(fd);
      if (it == shard.connections.end()) continue;  // closed earlier in batch
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(shard, fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 &&
          !FlushWrites(shard, fd, it->second)) {
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        ConnectionReadable(shard, fd, it->second);
      }
    }
    if (accept_ready && !shard.draining) AcceptReady(shard);
  }
  // Completions enqueued after the last eventfd read would otherwise leak
  // their count; every connection is gone, so they all record as orphaned.
  ProcessCompletions(shard);
}

void HttpServer::BeginDrain(Shard& shard) {
  shard.draining = true;
  shard.drain_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.drain_timeout_s));
  if (shard.listen_fd >= 0) {
    ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, shard.listen_fd, nullptr);
    ::close(shard.listen_fd);
    shard.listen_fd = -1;
  }
  // Connections are not closed preemptively — even an idle keep-alive
  // connection may have a request already in flight on the wire, and closing
  // under it would drop that request unanswered. Every connection is
  // answered-then-closed (responses carry `Connection: close` from here on):
  // in-flight and buffered requests to completion, an idle connection on its
  // next request, and only the drain deadline force-closes stragglers.
}

void HttpServer::AcceptReady(Shard& shard) {
  while (true) {
    const int fd = ::accept4(shard.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or transient (EMFILE/ECONNABORTED) — next wake retries
    }
    if (shard.connections.size() >= config_.max_connections_per_shard) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    Connection conn;
    conn.generation = shard.next_generation++;
    shard.connections.emplace(fd, std::move(conn));
    connections_total_->Increment();
    connections_active_->Add(1.0);
    if (config_.trace != nullptr) {
      const auto now = std::chrono::steady_clock::now();
      config_.trace->Emit(
          obs::TraceEvent{.name = "serve_accept", .begin = now, .end = now}
              .AddArg("shard", std::uint64_t{shard.index})
              .AddArg("fd", static_cast<std::uint64_t>(fd)));
    }
  }
}

void HttpServer::ConnectionReadable(Shard& shard, int fd, Connection& conn) {
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      bytes_read_total_->Increment(static_cast<std::uint64_t>(n));
      if (!conn.timing) {
        conn.timing = true;
        conn.request_start = std::chrono::steady_clock::now();
      }
      conn.rbuf.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {  // peer EOF; a response may still be owed
      conn.read_closed = true;
      if (!conn.in_flight && conn.rbuf.empty() &&
          conn.wbuf_sent == conn.wbuf.size()) {
        CloseConnection(shard, fd);
        return;
      }
      UpdateInterest(shard, fd, conn);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(shard, fd);  // ECONNRESET and friends
    return;
  }
  TryParse(shard, fd, conn);
}

void HttpServer::TryParse(Shard& shard, int fd, Connection& conn) {
  const HttpRequestParser parser(config_.max_request_bytes);
  while (!conn.in_flight && !conn.close_after_write && !conn.rbuf.empty()) {
    HttpRequest request;
    const ParseResult result = parser.Parse(conn.rbuf, &request);
    if (result.status == ParseStatus::kNeedMore) {
      if (conn.read_closed) CloseConnection(shard, fd);  // truncated request
      return;
    }
    if (result.status == ParseStatus::kError) {
      parse_errors_total_->Increment();
      ResponseCounter(400)->Increment();
      HttpResponse response;
      response.status = 400;
      response.body = ErrorBody(result.error);
      conn.close_after_write = true;
      conn.read_closed = true;
      conn.rbuf.clear();
      QueueResponse(shard, fd, conn, response);
      UpdateInterest(shard, fd, conn);
      FlushWrites(shard, fd, conn);
      return;
    }
    requests_total_->Increment();
    conn.rbuf.erase(0, result.consumed);
    if (!request.keep_alive || shard.draining) conn.close_after_write = true;
    conn.in_flight = true;
    Responder responder(this, shard.index, fd, conn.generation);
    // The handler may answer inline; that routes through the completion
    // queue and this shard's eventfd, so `conn` is not mutated re-entrantly.
    handler_(std::move(request), std::move(responder));
    return;  // wait for the completion; leftover rbuf is the next request
  }
  if (conn.read_closed && !conn.in_flight && !conn.close_after_write &&
      conn.wbuf_sent == conn.wbuf.size()) {
    CloseConnection(shard, fd);
  }
}

void HttpServer::QueueResponse(Shard& shard, int fd, Connection& conn,
                               const HttpResponse& response) {
  (void)shard;
  (void)fd;
  conn.wbuf += SerializeResponse(response.status, response.content_type,
                                 response.body, !conn.close_after_write);
}

bool HttpServer::FlushWrites(Shard& shard, int fd, Connection& conn) {
  while (conn.wbuf_sent < conn.wbuf.size()) {
    const ssize_t n = ::send(fd, conn.wbuf.data() + conn.wbuf_sent,
                             conn.wbuf.size() - conn.wbuf_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.wbuf_sent += static_cast<std::size_t>(n);
      bytes_written_total_->Increment(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        UpdateInterest(shard, fd, conn);
      }
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(shard, fd);  // EPIPE: peer gave up on its response
    return false;
  }
  conn.wbuf.clear();
  conn.wbuf_sent = 0;
  if (conn.timing && !conn.in_flight) {
    // Socket-to-socket latency: first request byte read to last response
    // byte accepted by the kernel.
    const auto now = std::chrono::steady_clock::now();
    request_latency_us_->RecordRounded(
        std::chrono::duration<double, std::micro>(now - conn.request_start)
            .count());
    conn.timing = false;
  }
  if (conn.want_write) {
    conn.want_write = false;
    UpdateInterest(shard, fd, conn);
  }
  if (conn.close_after_write ||
      (conn.read_closed && !conn.in_flight && conn.rbuf.empty())) {
    CloseConnection(shard, fd);
    return false;
  }
  return true;
}

void HttpServer::UpdateInterest(Shard& shard, int fd, Connection& conn) {
  epoll_event ev{};
  ev.data.fd = fd;
  ev.events = (conn.read_closed ? 0u : static_cast<unsigned>(EPOLLIN)) |
              (conn.want_write ? static_cast<unsigned>(EPOLLOUT) : 0u);
  ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_MOD, fd, &ev);
}

void HttpServer::CloseConnection(Shard& shard, int fd) {
  auto it = shard.connections.find(fd);
  if (it == shard.connections.end()) return;
  ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  shard.connections.erase(it);
  connections_active_->Add(-1.0);
}

void HttpServer::ProcessCompletions(Shard& shard) {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(shard.completion_mutex);
    batch.swap(shard.completions);
  }
  for (Completion& completion : batch) {
    auto it = shard.connections.find(completion.fd);
    if (it == shard.connections.end() ||
        it->second.generation != completion.generation) {
      // The connection died (reset, drain force-close) while the request was
      // with the handler; the generation check makes fd reuse harmless.
      responses_orphaned_total_->Increment();
      continue;
    }
    Connection& conn = it->second;
    conn.in_flight = false;
    if (shard.draining) conn.close_after_write = true;
    ResponseCounter(completion.response.status)->Increment();
    QueueResponse(shard, completion.fd, conn, completion.response);
    if (!FlushWrites(shard, completion.fd, conn)) continue;
    if (!conn.rbuf.empty()) TryParse(shard, completion.fd, conn);
  }
}

void HttpServer::Complete(std::size_t shard_index, int fd,
                          std::uint64_t generation, HttpResponse response) {
  if (shard_index >= shards_.size()) return;
  Shard& shard = *shards_[shard_index];
  {
    std::lock_guard<std::mutex> lock(shard.completion_mutex);
    shard.completions.push_back(
        Completion{fd, generation, std::move(response)});
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(shard.event_fd, &one, sizeof one);
}

}  // namespace rlplanner::net
