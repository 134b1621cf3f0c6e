#include "net/plan_handler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "obs/debugz.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace rlplanner::net {
namespace {

std::string ErrorBody(const util::Status& status) {
  return "{\"error\":\"" + obs::JsonEscape(status.message()) +
         "\",\"code\":\"" + util::StatusCodeName(status.code()) + "\"}\n";
}

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

/// An integral JSON number that fits the wire protocol's id/deadline range,
/// or InvalidArgument naming the field.
util::Result<long long> RequireInteger(const util::json::Value& value,
                                       const char* field) {
  if (!value.is_integer()) {
    return util::Status::InvalidArgument(std::string("'") + field +
                                         "' must be an integer");
  }
  const double number = value.AsNumber();
  if (number < -2147483648.0 || number > 2147483647.0) {
    return util::Status::InvalidArgument(std::string("'") + field +
                                         "' is out of range");
  }
  return static_cast<long long>(number);
}

}  // namespace

int StatusToHttpCode(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kOk:
      return 200;
    case util::StatusCode::kInvalidArgument:
    case util::StatusCode::kOutOfRange:
      return 400;
    case util::StatusCode::kNotFound:
      return 404;
    case util::StatusCode::kResourceExhausted:
    case util::StatusCode::kFailedPrecondition:
      return 503;
    case util::StatusCode::kDeadlineExceeded:
      return 504;
    default:
      return 500;
  }
}

util::Result<serve::PlanRequest> PlanRequestFromJson(
    const util::json::Value& root) {
  if (!root.is_object()) {
    return util::Status::InvalidArgument(
        "request body must be a JSON object");
  }
  serve::PlanRequest request;
  for (const auto& [key, value] : root.AsObject()) {
    if (key == "policy") {
      if (!value.is_string()) {
        return util::Status::InvalidArgument("'policy' must be a string");
      }
      request.policy_name = value.AsString();
    } else if (key == "start_item") {
      auto item = RequireInteger(value, "start_item");
      if (!item.ok()) return item.status();
      request.start_item = static_cast<model::ItemId>(item.value());
    } else if (key == "excluded") {
      if (!value.is_array()) {
        return util::Status::InvalidArgument(
            "'excluded' must be an array of integers");
      }
      for (const util::json::Value& element : value.AsArray()) {
        auto item = RequireInteger(element, "excluded");
        if (!item.ok()) return item.status();
        request.excluded.push_back(static_cast<model::ItemId>(item.value()));
      }
    } else if (key == "ideal_topics") {
      if (!value.is_array()) {
        return util::Status::InvalidArgument(
            "'ideal_topics' must be an array of strings");
      }
      std::vector<std::string> topics;
      for (const util::json::Value& element : value.AsArray()) {
        if (!element.is_string()) {
          return util::Status::InvalidArgument(
              "'ideal_topics' must be an array of strings");
        }
        topics.push_back(element.AsString());
      }
      request.ideal_topics = std::move(topics);
    } else if (key == "deadline_ms") {
      if (!value.is_number()) {
        return util::Status::InvalidArgument(
            "'deadline_ms' must be a number");
      }
      request.deadline_ms = value.AsNumber();
    } else if (key == "debug_stall_ms") {
      if (!value.is_number() || value.AsNumber() < 0.0) {
        return util::Status::InvalidArgument(
            "'debug_stall_ms' must be a non-negative number");
      }
      request.debug_stall_ms = value.AsNumber();
    } else {
      return util::Status::InvalidArgument("unknown field '" + key + "'");
    }
  }
  return request;
}

std::string PlanResponseToJson(const serve::PlanResponse& response) {
  std::string out;
  out.reserve(128 + response.plan.items().size() * 4);
  out += "{\"plan\":[";
  for (std::size_t i = 0; i < response.plan.items().size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(response.plan.items()[i]);
  }
  out += "],\"score\":";
  out += FormatDouble(response.score);
  out += ",\"valid\":";
  out += response.valid ? "true" : "false";
  out += ",\"violations\":[";
  for (std::size_t i = 0; i < response.violations.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += obs::JsonEscape(response.violations[i]);
    out += '"';
  }
  out += "],\"policy_version\":";
  out += std::to_string(response.policy_version);
  out += ",\"queue_ms\":";
  out += FormatDouble(response.queue_ms);
  out += ",\"exec_ms\":";
  out += FormatDouble(response.exec_ms);
  out += "}\n";
  return out;
}

PlanHandler::PlanHandler(serve::PlanService* service, Options options)
    : service_(service),
      metrics_(options.metrics),
      trace_(options.trace),
      profiler_(options.profiler != nullptr && options.profiler->enabled()
                    ? options.profiler
                    : nullptr),
      recorder_(options.recorder != nullptr && options.recorder->enabled()
                    ? options.recorder
                    : nullptr),
      slots_(options.slots),
      fleet_status_(std::move(options.fleet_status)) {}

void PlanHandler::AddStatuszSection(std::string name,
                                    std::function<std::string()> provider) {
  extra_sections_.emplace_back(std::move(name), std::move(provider));
}

HttpServer::Handler PlanHandler::AsHandler() {
  return [this](HttpRequest request, Responder responder) {
    Handle(std::move(request), std::move(responder));
  };
}

namespace {

/// 405 with the canonical "use METHOD /path" hint.
void SendMethodNotAllowed(Responder& responder, const char* hint) {
  responder.Send(HttpResponse{
      405, "application/json",
      ErrorBody(util::Status::InvalidArgument(std::string("use ") + hint))});
}

void SendNotFound(Responder& responder, std::string message) {
  responder.Send(HttpResponse{
      404, "application/json",
      ErrorBody(util::Status::NotFound(std::move(message)))});
}

/// Whether this /metrics request asked for the OpenMetrics exposition: an
/// explicit ?exemplars= query parameter, or content negotiation via an
/// Accept header naming application/openmetrics-text.
bool WantsOpenMetrics(const HttpRequest& request) {
  std::string value;
  if (QueryParam(request.target, "exemplars", &value)) {
    return value != "0" && value != "false";
  }
  const std::string* accept = request.FindHeader("Accept");
  return accept != nullptr &&
         accept->find("application/openmetrics-text") != std::string::npos;
}

}  // namespace

void PlanHandler::Handle(HttpRequest request, Responder responder) {
  const std::string_view path = TargetPath(request.target);
  if (path == "/v1/plan") {
    if (request.method != "POST") {
      SendMethodNotAllowed(responder, "POST /v1/plan");
      return;
    }
    HandlePlan(request, std::move(responder));
    return;
  }
  if (request.method != "GET" &&
      (path == "/healthz" || path == "/metrics" || path == "/debug/statusz" ||
       path == "/debug/tracez" || path == "/debug/pprof" ||
       path == "/fleet/status")) {
    SendMethodNotAllowed(responder, ("GET " + std::string(path)).c_str());
    return;
  }
  if (path == "/healthz") {
    responder.Send(HttpResponse{200, "application/json",
                                "{\"status\":\"ok\"}\n"});
    return;
  }
  if (path == "/metrics") {
    if (metrics_ == nullptr) {
      SendNotFound(responder, "no metrics registry configured");
      return;
    }
    HttpResponse response;
    response.status = 200;
    if (WantsOpenMetrics(request)) {
      response.content_type =
          "application/openmetrics-text; version=1.0.0; charset=utf-8";
      response.body = obs::ToOpenMetricsText(metrics_->Collect());
    } else {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = obs::ToPrometheusText(metrics_->Collect());
    }
    responder.Send(std::move(response));
    return;
  }
  if (path == "/debug/statusz") {
    responder.Send(HttpResponse{200, "application/json", StatuszBody()});
    return;
  }
  if (path == "/debug/tracez") {
    responder.Send(HttpResponse{
        200, "application/json",
        obs::TracezJson(recorder_, metrics_ != nullptr
                                       ? metrics_->Collect()
                                       : obs::MetricsSnapshot{})});
    return;
  }
  if (path == "/debug/pprof") {
    if (profiler_ == nullptr) {
      SendNotFound(responder,
                   "no sampling profiler running (start with --profile-hz)");
      return;
    }
    double seconds = 60.0;
    std::string value;
    if (QueryParam(request.target, "seconds", &value)) {
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(parsed > 0.0)) {
        responder.Send(HttpResponse{
            400, "application/json",
            ErrorBody(util::Status::InvalidArgument(
                "'seconds' must be a positive number"))});
        return;
      }
      seconds = std::min(parsed, 3600.0);
    }
    responder.Send(HttpResponse{200, "text/plain; charset=utf-8",
                                profiler_->Collapsed(seconds)});
    return;
  }
  if (path == "/fleet/status") {
    if (!fleet_status_) {
      SendNotFound(responder, "no fleet orchestrator attached");
      return;
    }
    responder.Send(HttpResponse{200, "application/json", fleet_status_()});
    return;
  }
  SendNotFound(responder, "no route for '" + request.target + "'");
}

std::string PlanHandler::SlotsJson() const {
  std::string out = "{\"install_count\":";
  out += std::to_string(slots_->install_count());
  out += ",\"slots\":[";
  std::vector<std::string> names = slots_->Names();
  std::sort(names.begin(), names.end());
  bool first = true;
  for (const std::string& name : names) {
    const auto info = slots_->Info(name);
    if (!info.has_value()) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"slot\":\"";
    out += obs::JsonEscape(name);
    out += "\",\"incumbent_version\":";
    out += std::to_string(info->incumbent_version);
    out += ",\"canary_version\":";
    out += std::to_string(info->canary_version);
    out += ",\"canary_permille\":";
    out += std::to_string(info->canary_permille);
    out += ",\"previous_version\":";
    out += std::to_string(info->previous_version);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string PlanHandler::StatuszBody() const {
  std::vector<obs::StatuszSection> sections;
  sections.push_back({"serve", service_->stats().ToJson()});
  if (slots_ != nullptr) sections.push_back({"slots", SlotsJson()});
  if (fleet_status_) sections.push_back({"fleet", fleet_status_()});
  for (const auto& [name, provider] : extra_sections_) {
    sections.push_back({name, provider()});
  }
  return obs::StatuszJson(profiler_, recorder_, sections);
}

void PlanHandler::HandlePlan(const HttpRequest& request,
                             Responder responder) {
  // Allocate the trace id before parsing so the serve_parse span shares the
  // id chain with the service's queue-wait/plan/respond spans.
  const std::uint64_t trace_id =
      trace_ != nullptr ? service_->AllocateTraceId() : 0;
  const auto parse_begin = trace_ != nullptr
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  serve::PlanRequest plan_request;
  util::Status parse_status = util::Status::Ok();
  {
    auto document = util::json::Parse(request.body);
    if (!document.ok()) {
      parse_status = document.status();
    } else {
      auto decoded = PlanRequestFromJson(document.value());
      if (!decoded.ok()) {
        parse_status = decoded.status();
      } else {
        plan_request = std::move(decoded).value();
      }
    }
  }
  if (trace_ != nullptr) {
    trace_->Emit(obs::TraceEvent{.name = "serve_parse",
                                 .trace_id = trace_id,
                                 .begin = parse_begin,
                                 .end = std::chrono::steady_clock::now()}
                     .AddArg("status", parse_status.ok() ? "ok" : "error"));
  }
  if (!parse_status.ok()) {
    responder.Send(HttpResponse{StatusToHttpCode(parse_status),
                                "application/json", ErrorBody(parse_status)});
    return;
  }
  plan_request.trace_id = trace_id;
  // PlanService::Callback is a std::function and must stay copyable; the
  // move-only Responder rides in a shared_ptr.
  auto shared = std::make_shared<Responder>(std::move(responder));
  const util::Status submitted = service_->SubmitAsync(
      std::move(plan_request),
      [shared](util::Result<serve::PlanResponse> result) {
        if (result.ok()) {
          shared->Send(HttpResponse{200, "application/json",
                                    PlanResponseToJson(result.value())});
        } else {
          shared->Send(HttpResponse{StatusToHttpCode(result.status()),
                                    "application/json",
                                    ErrorBody(result.status())});
        }
      });
  if (!submitted.ok()) {
    // Rejected at admission (queue full, draining): the callback never runs,
    // the Responder is still ours to spend.
    shared->Send(HttpResponse{StatusToHttpCode(submitted), "application/json",
                              ErrorBody(submitted)});
  }
}

}  // namespace rlplanner::net
