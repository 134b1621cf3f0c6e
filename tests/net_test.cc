// Tests for the wire-level serving front end (src/net/): the HTTP/1.1
// parser and serializer, the service-to-wire status contract, the strict
// /v1/plan JSON decoding, and loopback integration against a real
// HttpServer on an ephemeral port — keep-alive reuse, pipelining,
// malformed/oversized requests, 503/504 mapping, concurrent clients, and
// graceful drain under load with zero in-flight loss.
//
// The concurrency tests here run under ThreadSanitizer in tools/check.sh
// (RLPLANNER_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/planner.h"
#include "datagen/course_data.h"
#include "net/client.h"
#include "net/http.h"
#include "net/plan_handler.h"
#include "net/server.h"
#include "obs/debugz.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "serve/plan_service.h"
#include "serve/policy_registry.h"
#include "serve/stats.h"
#include "util/json.h"
#include "util/status.h"

namespace rlplanner::net {
namespace {

using datagen::Dataset;

// --- HTTP parser ----------------------------------------------------------

constexpr std::size_t kTestMaxRequest = 64 * 1024;

TEST(HttpParserTest, ParsesCompleteRequest) {
  HttpRequestParser parser(kTestMaxRequest);
  const std::string wire =
      "POST /v1/plan HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hello";
  HttpRequest request;
  const ParseResult result = parser.Parse(wire, &request);
  ASSERT_EQ(result.status, ParseStatus::kOk) << result.error;
  EXPECT_EQ(result.consumed, wire.size());
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/plan");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.body, "hello");
  EXPECT_TRUE(request.keep_alive);
  ASSERT_NE(request.FindHeader("content-type"), nullptr);
  EXPECT_EQ(*request.FindHeader("CONTENT-TYPE"), "application/json");
  EXPECT_EQ(request.FindHeader("x-absent"), nullptr);
}

TEST(HttpParserTest, IncrementalFeedReportsNeedMore) {
  HttpRequestParser parser(kTestMaxRequest);
  const std::string wire =
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  // Every strict prefix is a "keep reading", never an error.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    HttpRequest request;
    const ParseResult result =
        parser.Parse(std::string_view(wire).substr(0, len), &request);
    EXPECT_EQ(result.status, ParseStatus::kNeedMore)
        << "prefix length " << len << ": " << result.error;
  }
  HttpRequest request;
  EXPECT_EQ(parser.Parse(wire, &request).status, ParseStatus::kOk);
  // A body prefix is also NeedMore until Content-Length bytes arrived.
  const std::string partial_body =
      "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
  EXPECT_EQ(parser.Parse(partial_body, &request).status,
            ParseStatus::kNeedMore);
}

TEST(HttpParserTest, PipelinedRequestsConsumeExactlyOne) {
  HttpRequestParser parser(kTestMaxRequest);
  const std::string first =
      "POST /v1/plan HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
  const std::string second = "GET /healthz HTTP/1.1\r\n\r\n";
  const std::string wire = first + second;
  HttpRequest request;
  const ParseResult one = parser.Parse(wire, &request);
  ASSERT_EQ(one.status, ParseStatus::kOk);
  EXPECT_EQ(one.consumed, first.size());
  EXPECT_EQ(request.target, "/v1/plan");
  const ParseResult two =
      parser.Parse(std::string_view(wire).substr(one.consumed), &request);
  ASSERT_EQ(two.status, ParseStatus::kOk);
  EXPECT_EQ(two.consumed, second.size());
  EXPECT_EQ(request.target, "/healthz");
}

TEST(HttpParserTest, RejectsProtocolViolations) {
  HttpRequestParser parser(256);
  HttpRequest request;
  const char* bad[] = {
      "GET\r\n\r\n",                                        // no target
      "GET / HTTP/2.0\r\n\r\n",                             // bad version
      "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",       // negative length
      "GET / HTTP/1.1\r\nContent-Length: kitten\r\n\r\n",   // non-numeric
      "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",  // unsupported
      "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",              // malformed header
  };
  for (const char* wire : bad) {
    const ParseResult result = parser.Parse(wire, &request);
    EXPECT_EQ(result.status, ParseStatus::kError) << wire;
    EXPECT_FALSE(result.error.empty()) << wire;
  }
  // A declared body larger than max_request_bytes is an error up front, not
  // an invitation to buffer.
  const ParseResult oversized = parser.Parse(
      "POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n", &request);
  EXPECT_EQ(oversized.status, ParseStatus::kError);
}

TEST(HttpParserTest, ConnectionSemanticsPerVersion) {
  HttpRequestParser parser(kTestMaxRequest);
  HttpRequest request;
  ASSERT_EQ(parser.Parse("GET / HTTP/1.1\r\n\r\n", &request).status,
            ParseStatus::kOk);
  EXPECT_TRUE(request.keep_alive);
  ASSERT_EQ(parser
                .Parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
                       &request)
                .status,
            ParseStatus::kOk);
  EXPECT_FALSE(request.keep_alive);
  ASSERT_EQ(parser.Parse("GET / HTTP/1.0\r\n\r\n", &request).status,
            ParseStatus::kOk);
  EXPECT_FALSE(request.keep_alive);
  ASSERT_EQ(parser
                .Parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                       &request)
                .status,
            ParseStatus::kOk);
  EXPECT_TRUE(request.keep_alive);
}

TEST(HttpSerializeTest, ResponseCarriesFramingHeaders) {
  const std::string keep =
      SerializeResponse(200, "application/json", "{}", /*keep_alive=*/true);
  EXPECT_NE(keep.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(keep.substr(keep.size() - 2), "{}");
  const std::string close =
      SerializeResponse(503, "application/json", "x", /*keep_alive=*/false);
  EXPECT_NE(close.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(close.find("Connection: close\r\n"), std::string::npos);
}

// --- Status / JSON contract ----------------------------------------------

TEST(StatusToHttpCodeTest, MapsServiceContract) {
  EXPECT_EQ(StatusToHttpCode(util::Status::Ok()), 200);
  EXPECT_EQ(StatusToHttpCode(util::Status::InvalidArgument("x")), 400);
  EXPECT_EQ(StatusToHttpCode(util::Status::OutOfRange("x")), 400);
  EXPECT_EQ(StatusToHttpCode(util::Status::NotFound("x")), 404);
  EXPECT_EQ(StatusToHttpCode(util::Status::ResourceExhausted("x")), 503);
  EXPECT_EQ(StatusToHttpCode(util::Status::FailedPrecondition("x")), 503);
  EXPECT_EQ(StatusToHttpCode(util::Status::DeadlineExceeded("x")), 504);
  EXPECT_EQ(StatusToHttpCode(util::Status::Internal("x")), 500);
  EXPECT_EQ(StatusToHttpCode(util::Status::Unimplemented("x")), 500);
}

util::Result<serve::PlanRequest> DecodePlan(std::string_view text) {
  auto document = util::json::Parse(text);
  if (!document.ok()) return document.status();
  return PlanRequestFromJson(document.value());
}

TEST(PlanRequestJsonTest, DecodesAllFields) {
  auto decoded = DecodePlan(
      "{\"policy\":\"canary\",\"start_item\":3,\"excluded\":[1,4],"
      "\"ideal_topics\":[\"ai\",\"db\"],\"deadline_ms\":12.5}");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const serve::PlanRequest& request = decoded.value();
  EXPECT_EQ(request.policy_name, "canary");
  EXPECT_EQ(request.start_item, 3);
  EXPECT_EQ(request.excluded, (std::vector<model::ItemId>{1, 4}));
  ASSERT_TRUE(request.ideal_topics.has_value());
  EXPECT_EQ(*request.ideal_topics, (std::vector<std::string>{"ai", "db"}));
  EXPECT_DOUBLE_EQ(request.deadline_ms, 12.5);

  // Empty object gives the documented defaults.
  auto defaults = DecodePlan("{}");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().policy_name, "default");
  EXPECT_EQ(defaults.value().start_item, 0);
  EXPECT_FALSE(defaults.value().ideal_topics.has_value());
}

TEST(PlanRequestJsonTest, RejectsBadShapes) {
  // Unknown fields are named in the error, not silently ignored.
  auto unknown = DecodePlan("{\"start_itme\":3}");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("start_itme"), std::string::npos);

  EXPECT_FALSE(DecodePlan("[1,2,3]").ok());                  // not an object
  EXPECT_FALSE(DecodePlan("{\"policy\":7}").ok());           // wrong type
  EXPECT_FALSE(DecodePlan("{\"start_item\":1.5}").ok());     // fractional id
  EXPECT_FALSE(DecodePlan("{\"start_item\":1e12}").ok());    // out of range
  EXPECT_FALSE(DecodePlan("{\"excluded\":[\"a\"]}").ok());   // wrong element
  EXPECT_FALSE(DecodePlan("{\"ideal_topics\":[1]}").ok());   // wrong element
  EXPECT_FALSE(DecodePlan("{\"deadline_ms\":\"soon\"}").ok());
  EXPECT_FALSE(DecodePlan("not json").ok());
}

// --- Loopback: bare HttpServer (no planner) -------------------------------

// A server whose handler answers inline — isolates wire behavior (framing,
// keep-alive, limits, the dropped-Responder 500) from the planning stack.
struct EchoFixture {
  explicit EchoFixture(HttpServerConfig config = {},
                       HttpServer::Handler handler = nullptr) {
    config.host = "127.0.0.1";
    config.port = 0;
    if (config.num_shards == 0) config.num_shards = 2;
    if (handler == nullptr) {
      handler = [](HttpRequest request, Responder responder) {
        responder.Send(
            HttpResponse{200, "text/plain", "echo:" + request.body});
      };
    }
    server = std::make_unique<HttpServer>(config, std::move(handler));
    auto started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~EchoFixture() { server->Shutdown(); }

  util::Result<ClientResponse> Post(BlockingHttpClient& client,
                                    std::string_view body) {
    if (!client.connected()) {
      auto connected = client.Connect("127.0.0.1", server->port());
      if (!connected.ok()) return connected;
    }
    return client.Request("POST", "/echo", body);
  }

  std::unique_ptr<HttpServer> server;
};

TEST(HttpServerTest, KeepAliveServesSequentialRequests) {
  EchoFixture fix;
  BlockingHttpClient client;
  for (int i = 0; i < 8; ++i) {
    auto response = fix.Post(client, "r" + std::to_string(i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200);
    EXPECT_EQ(response.value().body, "echo:r" + std::to_string(i));
    EXPECT_TRUE(response.value().keep_alive);
  }
  // All eight rode one TCP connection.
  EXPECT_TRUE(client.connected());
}

TEST(HttpServerTest, PipelinedRequestsAnsweredInOrder) {
  EchoFixture fix;
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fix.server->port()).ok());
  ASSERT_TRUE(
      client
          .SendRaw(
              "POST /echo HTTP/1.1\r\nContent-Length: 1\r\n\r\nA"
              "POST /echo HTTP/1.1\r\nContent-Length: 1\r\n\r\nB")
          .ok());
  auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().status, 200);
  EXPECT_EQ(first.value().body, "echo:A");
  auto second = client.ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().body, "echo:B");
}

TEST(HttpServerTest, MalformedRequestGets400AndClose) {
  EchoFixture fix;
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fix.server->port()).ok());
  ASSERT_TRUE(client.SendRaw("THIS IS NOT HTTP\r\n\r\n").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 400);
  EXPECT_FALSE(response.value().keep_alive);
}

TEST(HttpServerTest, OversizedRequestGets400) {
  HttpServerConfig config;
  config.max_request_bytes = 512;
  EchoFixture fix(config);
  BlockingHttpClient client;
  auto response = fix.Post(client, std::string(4096, 'x'));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 400);
  EXPECT_FALSE(response.value().keep_alive);
}

TEST(HttpServerTest, TruncatedRequestThenEofIsHarmless) {
  EchoFixture fix;
  {
    BlockingHttpClient half;
    ASSERT_TRUE(half.Connect("127.0.0.1", fix.server->port()).ok());
    ASSERT_TRUE(half.SendRaw("POST /echo HTTP/1.1\r\nContent-Le").ok());
    half.Close();  // mid-request EOF: the server just closes its side
  }
  // The server still serves new connections.
  BlockingHttpClient client;
  auto response = fix.Post(client, "still-up");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200);
}

TEST(HttpServerTest, DroppedResponderSends500) {
  // A handler that loses its Responder must not wedge the connection.
  EchoFixture fix({}, [](HttpRequest, Responder responder) {
    Responder dropped = std::move(responder);
    (void)dropped;
  });
  BlockingHttpClient client;
  auto response = fix.Post(client, "{}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 500);
}

TEST(HttpServerTest, ConnectionCloseRequestHonored) {
  EchoFixture fix;
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fix.server->port()).ok());
  ASSERT_TRUE(
      client
          .SendRaw(
              "POST /echo HTTP/1.1\r\nConnection: close\r\n"
              "Content-Length: 1\r\n\r\nZ")
          .ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_FALSE(response.value().keep_alive);
  EXPECT_FALSE(client.connected());
}

TEST(HttpServerTest, StartFailsCleanlyOnBadAddress) {
  HttpServerConfig config;
  config.host = "not-an-address";
  HttpServer server(config, [](HttpRequest, Responder responder) {
    responder.Send(HttpResponse{});
  });
  EXPECT_FALSE(server.Start().ok());
  server.Shutdown();  // harmless on a server that never started
}

// --- Loopback: full plan-serving stack ------------------------------------

core::PlannerConfig ToyConfig(const Dataset& dataset) {
  core::PlannerConfig config = core::DefaultUniv1Config();
  config.sarsa.num_episodes = 60;
  config.sarsa.start_item = dataset.default_start;
  config.seed = 17;
  return config;
}

// The CLI's wire stack in miniature: trained toy policy → PolicyRegistry →
// PlanService → PlanHandler → HttpServer on an ephemeral loopback port,
// all sharing one metrics registry. Destruction follows the CLI's drain
// order (service first, then server, then workers join) so no completion
// can outlive the server.
struct WireFixture {
  explicit WireFixture(serve::PlanServiceConfig service_config = {},
                       HttpServerConfig server_config = {},
                       PlanHandler::Options handler_options = {}) {
    core::RlPlanner planner(instance, ToyConfig(dataset));
    EXPECT_TRUE(planner.Train().ok());
    auto installed = registry.Install("default", planner.q_table(),
                                      ToyConfig(dataset).sarsa, 17);
    EXPECT_TRUE(installed.ok());

    service_config.metrics = &metrics;
    service = std::make_unique<serve::PlanService>(
        instance, ToyConfig(dataset).reward, registry, service_config);
    service->Start();

    handler_options.metrics = &metrics;
    handler_options.slots = &registry;
    handler =
        std::make_unique<PlanHandler>(service.get(), std::move(handler_options));
    server_config.host = "127.0.0.1";
    server_config.port = 0;
    if (server_config.num_shards == 0) server_config.num_shards = 2;
    server_config.metrics = &metrics;
    server = std::make_unique<HttpServer>(server_config, handler->AsHandler());
    auto started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~WireFixture() {
    (void)service->Drain(std::chrono::milliseconds(2000));
    server->Shutdown();
    service->Stop();
  }

  util::Result<ClientResponse> Plan(BlockingHttpClient& client,
                                    std::string_view body) {
    if (!client.connected()) {
      auto connected = client.Connect("127.0.0.1", server->port());
      if (!connected.ok()) return connected;
    }
    return client.Request("POST", "/v1/plan", body);
  }

  Dataset dataset = datagen::MakeTableIIToy();
  model::TaskInstance instance = dataset.Instance();
  serve::PolicyRegistry registry{serve::CatalogFingerprint(dataset.catalog),
                                 dataset.catalog.size()};
  obs::Registry metrics;
  std::unique_ptr<serve::PlanService> service;
  std::unique_ptr<PlanHandler> handler;
  std::unique_ptr<HttpServer> server;
};

TEST(WireTest, PlanRequestRoundTrip) {
  WireFixture fix;
  BlockingHttpClient client;
  auto response = fix.Plan(
      client,
      "{\"start_item\":" + std::to_string(fix.dataset.default_start) + "}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().status, 200) << response.value().body;
  auto document = util::json::Parse(response.value().body);
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  const util::json::Value& root = document.value();
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.Find("plan"), nullptr);
  EXPECT_FALSE(root.Find("plan")->AsArray().empty());
  ASSERT_NE(root.Find("valid"), nullptr);
  EXPECT_TRUE(root.Find("valid")->AsBool());
  ASSERT_NE(root.Find("policy_version"), nullptr);
  EXPECT_EQ(root.Find("policy_version")->AsNumber(), 1.0);
  ASSERT_NE(root.Find("exec_ms"), nullptr);
}

TEST(WireTest, HealthzMetricsAndRouting) {
  WireFixture fix;
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fix.server->port()).ok());

  auto health = client.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
  EXPECT_EQ(health.value().body, "{\"status\":\"ok\"}\n");

  auto missing = client.Request("GET", "/v2/teleport");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  auto wrong_method = client.Request("GET", "/v1/plan");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 405);

  // One plan request so the serve_* metrics are non-trivial.
  auto plan = client.Request("POST", "/v1/plan", "{}");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().status, 200);

  auto metrics = client.Request("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status, 200);
  const std::string* content_type = metrics.value().FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_NE(content_type->find("text/plain"), std::string::npos);
  // One registry serves both layers: net_* (front end) and serve_* (service).
  EXPECT_NE(metrics.value().body.find("net_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("net_connections_active"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("serve_requests_accepted_total"),
            std::string::npos);
  // Everything above rode one keep-alive connection.
  EXPECT_NE(metrics.value().body.find("net_connections_total 1"),
            std::string::npos);
}

TEST(WireTest, MalformedJsonGets400) {
  WireFixture fix;
  BlockingHttpClient client;
  auto response = fix.Plan(client, "{\"start_item\":");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 400);
  EXPECT_NE(response.value().body.find("InvalidArgument"), std::string::npos);
  // The connection survives a body-level (not protocol-level) error.
  EXPECT_TRUE(response.value().keep_alive);
  auto retry = fix.Plan(client, "{}");
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value().status, 200);
}

TEST(WireTest, UnknownPolicyGets404) {
  WireFixture fix;
  BlockingHttpClient client;
  auto response = fix.Plan(client, "{\"policy\":\"nope\"}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 404);
  EXPECT_NE(response.value().body.find("NotFound"), std::string::npos);
}

TEST(WireTest, DrainingServiceMapsTo503) {
  WireFixture fix;
  ASSERT_TRUE(fix.service->Drain(std::chrono::milliseconds(1000)).ok());
  BlockingHttpClient client;
  auto response = fix.Plan(client, "{}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 503);
  EXPECT_NE(response.value().body.find("FailedPrecondition"),
            std::string::npos);
}

TEST(WireTest, ExpiredDeadlineMapsTo504) {
  WireFixture fix;
  BlockingHttpClient client;
  // A one-nanosecond deadline has always expired by dequeue time.
  auto response = fix.Plan(client, "{\"deadline_ms\":1e-6}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 504);
  EXPECT_NE(response.value().body.find("DeadlineExceeded"), std::string::npos);
  EXPECT_EQ(fix.service->stats().Collect().expired_deadline, 1u);
}

TEST(WireTest, ConcurrentClientsAllServed) {
  WireFixture fix;
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 25;
  std::atomic<int> ok_count{0};
  std::atomic<int> error_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fix, &ok_count, &error_count] {
      BlockingHttpClient client;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        auto response = fix.Plan(client, "{}");
        if (response.ok() && response.value().status == 200) {
          ok_count.fetch_add(1);
        } else {
          error_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(error_count.load(), 0);
  const serve::ServeStatsSnapshot stats = fix.service->stats().Collect();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(ok_count.load()));
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(WireTest, DrainUnderLoadLosesNoInFlightRequest) {
  auto fix = std::make_unique<WireFixture>();
  constexpr int kThreads = 3;
  std::atomic<bool> server_up{true};
  std::atomic<int> served_200{0};
  std::atomic<int> shed_503{0};
  std::atomic<int> expired_504{0};
  // A transport failure on a connection the server accepted, with a
  // request outstanding, would be a dropped in-flight request — the one
  // thing drain must never do.
  std::atomic<int> dropped{0};
  // A connection still in a listener's backlog when drain closes that
  // listener is reset by the kernel: its first request fails although the
  // server never saw the connection. Those failures are counted apart and
  // must equal the connections the server never accepted.
  std::atomic<int> connects{0};
  std::atomic<int> first_request_failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      BlockingHttpClient client;
      while (server_up.load(std::memory_order_relaxed)) {
        const bool fresh = !client.connected();
        if (fresh) {
          if (!client.Connect("127.0.0.1", fix->server->port()).ok()) {
            break;  // listener closed: drain has begun and we were idle
          }
          connects.fetch_add(1);
        }
        auto response = client.Request("POST", "/v1/plan", "{}");
        if (!response.ok()) {
          // The request was on the wire and never answered.
          (fresh ? first_request_failures : dropped).fetch_add(1);
          client.Close();
          continue;
        }
        switch (response.value().status) {
          case 200:
            served_200.fetch_add(1);
            break;
          case 503:
            shed_503.fetch_add(1);
            break;
          case 504:
            expired_504.fetch_add(1);
            break;
          default:
            dropped.fetch_add(1);
        }
      }
    });
  }

  // Let real load build up, then run the CLI's exact shutdown sequence.
  while (served_200.load() < 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (void)fix->service->Drain(std::chrono::milliseconds(2000));
  fix->server->Shutdown();
  fix->service->Stop();
  server_up.store(false);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(dropped.load(), 0);
  EXPECT_GE(served_200.load(), 50);
  // Every first-request failure is a connection the server never accepted.
  auto accepted = fix->metrics.GetCounter("net_connections_total",
                                          "TCP connections accepted");
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(static_cast<std::uint64_t>(first_request_failures.load()),
            static_cast<std::uint64_t>(connects.load()) -
                accepted.value()->Total());

  // Service-side ledger balances exactly: everything admitted was delivered.
  const serve::ServeStatsSnapshot stats = fix->service->stats().Collect();
  EXPECT_EQ(stats.accepted, stats.completed + stats.expired_deadline);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  fix.reset();  // second drain/shutdown pass in ~WireFixture is idempotent
}

// --- Live introspection endpoints -----------------------------------------

TEST(HttpTargetTest, TargetPathStripsQueryAndFragment) {
  EXPECT_EQ(TargetPath("/debug/pprof?seconds=5"), "/debug/pprof");
  EXPECT_EQ(TargetPath("/metrics"), "/metrics");
  EXPECT_EQ(TargetPath("/x#frag"), "/x");
  EXPECT_EQ(TargetPath("/?a=1"), "/");
}

TEST(HttpTargetTest, QueryParamExtractsRawValues) {
  std::string value;
  EXPECT_TRUE(QueryParam("/debug/pprof?seconds=5", "seconds", &value));
  EXPECT_EQ(value, "5");
  EXPECT_TRUE(QueryParam("/metrics?exemplars=1&x=2", "x", &value));
  EXPECT_EQ(value, "2");
  EXPECT_TRUE(QueryParam("/metrics?exemplars", "exemplars", &value));
  EXPECT_EQ(value, "");  // key without '=' yields empty value
  EXPECT_FALSE(QueryParam("/metrics?exemplars=1", "seconds", &value));
  EXPECT_FALSE(QueryParam("/metrics", "exemplars", &value));
}

TEST(WireTest, StatuszReportsBuildSlotsAndSections) {
  WireFixture fix;
  fix.handler->AddStatuszSection("custom", [] { return "{\"answer\": 42}"; });
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fix.server->port()).ok());
  auto response = client.Request("GET", "/debug/statusz");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200) << response.value().body;
  auto document = util::json::Parse(response.value().body);
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  const util::json::Value& root = document.value();
  EXPECT_TRUE(root.Find("build")->Find("version")->is_string());
  // No profiler/recorder wired: their summaries are null, not absent.
  EXPECT_TRUE(root.Find("profiler")->is_null());
  EXPECT_TRUE(root.Find("flight_recorder")->is_null());
  // The serve stats and the registry slot table ride along.
  EXPECT_TRUE(root.Find("serve")->is_object());
  const util::json::Value& slots = *root.Find("slots");
  EXPECT_EQ(slots.Find("install_count")->AsNumber(), 1.0);
  const auto& table = slots.Find("slots")->AsArray();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].Find("slot")->AsString(), "default");
  EXPECT_EQ(table[0].Find("incumbent_version")->AsNumber(), 1.0);
  EXPECT_EQ(root.Find("custom")->Find("answer")->AsNumber(), 42.0);
  // Wrong method on a debug endpoint is 405, not 404.
  auto post = client.Request("POST", "/debug/statusz", "{}");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post.value().status, 405);
}

TEST(WireTest, TracezCapturesStalledRequestAndMetricsCarryExemplar) {
  obs::FlightRecorderConfig recorder_config;
  recorder_config.slo_ms = 5.0;
  obs::FlightRecorder recorder(recorder_config);
  serve::PlanServiceConfig service_config;
  service_config.recorder = &recorder;
  PlanHandler::Options options;
  options.recorder = &recorder;
  WireFixture fix(service_config, {}, options);

  BlockingHttpClient client;
  auto plan = fix.Plan(client, "{\"debug_stall_ms\": 25}");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().status, 200) << plan.value().body;

  auto tracez = client.Request("GET", "/debug/tracez");
  ASSERT_TRUE(tracez.ok());
  ASSERT_EQ(tracez.value().status, 200);
  auto document = util::json::Parse(tracez.value().body);
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  const util::json::Value& flight = *document.value().Find("flight_recorder");
  EXPECT_TRUE(flight.Find("enabled")->AsBool());
  const auto& slowest = flight.Find("slowest")->AsArray();
  ASSERT_EQ(slowest.size(), 1u);
  EXPECT_GE(slowest[0].Find("total_ms")->AsNumber(), 5.0);
  const std::uint64_t trace_id = static_cast<std::uint64_t>(
      slowest[0].Find("trace_id")->AsNumber());
  EXPECT_GT(trace_id, 0u);
  // The span breakdown names the stalled stage.
  bool saw_plan_span = false;
  for (const util::json::Value& span : slowest[0].Find("spans")->AsArray()) {
    if (span.Find("name")->AsString() == "serve_plan") saw_plan_span = true;
  }
  EXPECT_TRUE(saw_plan_span);
  // The same trace id surfaces as a latency exemplar on both pages.
  const std::string needle = "\"trace_id\": " + std::to_string(trace_id);
  EXPECT_NE(tracez.value().body.find("\"exemplars\": ["), std::string::npos);
  EXPECT_NE(tracez.value().body.find(needle), std::string::npos);
  auto metrics = client.Request("GET", "/metrics?exemplars=1");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics.value().status, 200);
  EXPECT_NE(metrics.value().body.find(
                "# {trace_id=\"" + std::to_string(trace_id) + "\""),
            std::string::npos);
}

TEST(WireTest, PprofRequiresProfilerAndValidatesSeconds) {
  {
    WireFixture fix;  // no profiler wired
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", fix.server->port()).ok());
    auto response = client.Request("GET", "/debug/pprof?seconds=1");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 404);
  }
  obs::ProfilerConfig profiler_config;
  profiler_config.enabled = true;
  obs::Profiler profiler(profiler_config);
  profiler.RecordNow();
  PlanHandler::Options options;
  options.profiler = &profiler;
  WireFixture fix({}, {}, options);
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fix.server->port()).ok());
  auto profile = client.Request("GET", "/debug/pprof?seconds=1");
  ASSERT_TRUE(profile.ok());
  ASSERT_EQ(profile.value().status, 200) << profile.value().body;
  const std::string* content_type = profile.value().FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_NE(content_type->find("text/plain"), std::string::npos);
  EXPECT_EQ(profile.value().body.rfind("# profile: cpu_samples\n", 0), 0u);
  EXPECT_NE(profile.value().body.find("# sample_hz: 97\n"), std::string::npos);
  auto bad = client.Request("GET", "/debug/pprof?seconds=banana");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().status, 400);
  auto negative = client.Request("GET", "/debug/pprof?seconds=-3");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(negative.value().status, 400);
}

TEST(WireTest, FleetStatusServedOnlyWhenWired) {
  {
    WireFixture fix;
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", fix.server->port()).ok());
    auto response = client.Request("GET", "/fleet/status");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 404);
  }
  PlanHandler::Options options;
  options.fleet_status = [] {
    return std::string("{\"tick\": 3, \"policies\": []}");
  };
  WireFixture fix({}, {}, options);
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fix.server->port()).ok());
  auto response = client.Request("GET", "/fleet/status");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200);
  auto document = util::json::Parse(response.value().body);
  ASSERT_TRUE(document.ok());
  EXPECT_EQ(document.value().Find("tick")->AsNumber(), 3.0);
}

TEST(WireTest, MetricsContentNegotiation) {
  WireFixture fix;
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fix.server->port()).ok());

  auto plain = client.Request("GET", "/metrics");
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain.value().status, 200);
  const std::string* plain_type = plain.value().FindHeader("Content-Type");
  ASSERT_NE(plain_type, nullptr);
  EXPECT_EQ(*plain_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(plain.value().body.find("# EOF"), std::string::npos);

  auto open = client.Request("GET", "/metrics?exemplars=1");
  ASSERT_TRUE(open.ok());
  ASSERT_EQ(open.value().status, 200);
  const std::string* open_type = open.value().FindHeader("Content-Type");
  ASSERT_NE(open_type, nullptr);
  EXPECT_EQ(*open_type,
            "application/openmetrics-text; version=1.0.0; charset=utf-8");
  EXPECT_NE(open.value().body.find("# EOF\n"), std::string::npos);

  // `exemplars=0` explicitly opts back out.
  auto opted_out = client.Request("GET", "/metrics?exemplars=0");
  ASSERT_TRUE(opted_out.ok());
  const std::string* out_type = opted_out.value().FindHeader("Content-Type");
  ASSERT_NE(out_type, nullptr);
  EXPECT_NE(out_type->find("text/plain"), std::string::npos);
}

}  // namespace
}  // namespace rlplanner::net
