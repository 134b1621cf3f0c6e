#include "workload.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/scoring.h"
#include "core/validation.h"
#include "datagen/synthetic.h"
#include "obs/export.h"
#include "util/bitset.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

namespace datagen = rlplanner::datagen;
namespace model = rlplanner::model;
namespace json = rlplanner::util::json;

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

datagen::Dataset PaperCatalog() {
  datagen::SyntheticSpec spec;
  spec.num_items = 114;
  spec.vocab_size = 228;
  return datagen::GenerateSynthetic(spec);
}

datagen::Dataset Scale10kCatalog() {
  datagen::SyntheticSpec spec;
  spec.num_items = 10000;
  spec.vocab_size = 512;
  spec.seed = 7;
  return datagen::GenerateSynthetic(spec);
}

rlplanner::core::PlannerConfig ServeConfig(const datagen::Dataset& dataset) {
  rlplanner::core::PlannerConfig config =
      rlplanner::core::DefaultUniv1Config();
  config.sarsa.start_item = dataset.default_start;
  return config;
}

RequestMix::RequestMix(const model::TaskInstance& base,
                       std::vector<std::string> slots, std::uint64_t seed,
                       std::size_t count)
    : base_(&base), slots_(std::move(slots)) {
  rlplanner::util::Rng rng(seed);
  const model::Catalog& catalog = *base.catalog;
  const std::size_t n = catalog.size();
  const std::vector<std::string>& vocabulary = catalog.vocabulary();

  for (int p = 0; p < kProfiles; ++p) {
    std::vector<std::string> topics;
    for (const std::string& topic : vocabulary) {
      if (rng.NextBounded(4) == 0) topics.push_back(topic);
    }
    if (topics.empty()) topics.push_back(vocabulary[rng.NextBounded(vocabulary.size())]);
    model::TaskInstance instance = base;
    auto ideal = catalog.MakeTopicVector(topics);
    if (!ideal.ok()) Die("ideal-topics profile: " + ideal.status().ToString());
    instance.soft.ideal_topics = std::move(ideal).value();
    profile_topics_.push_back(std::move(topics));
    profile_instances_.push_back(std::move(instance));
  }

  requests_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    BenchRequest request;
    request.slot = static_cast<int>(rng.NextBounded(slots_.size()));
    request.start = static_cast<ItemId>(rng.NextBounded(n));
    if (rng.NextDouble() < kExcludedShare) {
      while (static_cast<int>(request.excluded.size()) < kExcludedCount) {
        const auto item = static_cast<ItemId>(rng.NextBounded(n));
        bool fresh = item != request.start;
        for (ItemId e : request.excluded) fresh = fresh && e != item;
        if (fresh) request.excluded.push_back(item);
      }
    }
    if (rng.NextDouble() < kIdealShare) {
      request.profile = static_cast<int>(rng.NextBounded(kProfiles));
    }

    std::string& body = request.body;
    body = "{\"start_item\": " + std::to_string(request.start);
    const std::string& slot = slots_[static_cast<std::size_t>(request.slot)];
    if (slot != "default") {
      body += ", \"policy\": \"" + rlplanner::obs::JsonEscape(slot) + "\"";
    }
    if (!request.excluded.empty()) {
      body += ", \"excluded\": [";
      for (std::size_t e = 0; e < request.excluded.size(); ++e) {
        if (e != 0) body += ", ";
        body += std::to_string(request.excluded[e]);
      }
      body += "]";
    }
    if (request.profile >= 0) {
      body += ", \"ideal_topics\": [";
      const auto& topics = ProfileTopics(request.profile);
      for (std::size_t t = 0; t < topics.size(); ++t) {
        if (t != 0) body += ", ";
        body += '"';
        body += rlplanner::obs::JsonEscape(topics[t]);
        body += '"';
      }
      body += "]";
    }
    body += "}";
    requests_.push_back(std::move(request));
  }
}

const model::TaskInstance& RequestMix::InstanceFor(
    const BenchRequest& request) const {
  if (request.profile < 0) return *base_;
  return profile_instances_[static_cast<std::size_t>(request.profile)];
}

namespace {

// The wire's score rendering (PlanResponseToJson prints "%.6g"), read back.
double AsServed(double score) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", score);
  return std::strtod(buf, nullptr);
}

std::string Decode(std::string_view body, ServedPlan* out) {
  auto parsed = json::Parse(body);
  if (!parsed.ok()) return "undecodable body: " + parsed.status().ToString();
  const json::Value& root = parsed.value();
  const json::Value* plan = root.Find("plan");
  const json::Value* score = root.Find("score");
  const json::Value* valid = root.Find("valid");
  const json::Value* violations = root.Find("violations");
  const json::Value* version = root.Find("policy_version");
  const json::Value* queue_ms = root.Find("queue_ms");
  const json::Value* exec_ms = root.Find("exec_ms");
  if (plan == nullptr || !plan->is_array() || score == nullptr ||
      !score->is_number() || valid == nullptr || !valid->is_bool() ||
      violations == nullptr || !violations->is_array() ||
      version == nullptr || !version->is_integer() || queue_ms == nullptr ||
      !queue_ms->is_number() || exec_ms == nullptr || !exec_ms->is_number()) {
    return "response lacks a plan field";
  }
  out->items.clear();
  for (const json::Value& item : plan->AsArray()) {
    if (!item.is_integer()) return "non-integer plan item";
    out->items.push_back(static_cast<ItemId>(item.AsNumber()));
  }
  out->score = score->AsNumber();
  out->valid = valid->AsBool();
  out->violations.clear();
  for (const json::Value& v : violations->AsArray()) {
    if (!v.is_string()) return "non-string violation";
    out->violations.push_back(v.AsString());
  }
  out->policy_version = static_cast<std::uint64_t>(version->AsNumber());
  out->queue_ms = queue_ms->AsNumber();
  out->exec_ms = exec_ms->AsNumber();
  return "";
}

// Corrupts a plan that passed every check so that `target`, and no check
// before it, fails. Returns false, leaving the plan alone, when the
// corruption needs what the request or plan lacks.
bool ApplyTamper(Check target, const BenchRequest& request,
                 std::size_t catalog_size, ServedPlan* plan) {
  std::vector<ItemId>& items = plan->items;
  if (items.size() < 2) return false;
  switch (target) {
    case Check::kStart:
      items[0] = static_cast<ItemId>(
          (static_cast<std::size_t>(items[0]) + 1) % catalog_size);
      return true;
    case Check::kRange:
      items.back() = static_cast<ItemId>(catalog_size);
      return true;
    case Check::kDuplicate:
      items[1] = items[0];
      return true;
    case Check::kExcluded:
      if (request.excluded.empty()) return false;
      items[1] = request.excluded[0];
      return true;
    case Check::kValid:
      plan->valid = !plan->valid;
      return true;
    case Check::kViolations:
      if (plan->violations.empty()) {
        plan->violations.push_back("tampered");
      } else {
        plan->violations.pop_back();
      }
      return true;
    case Check::kScore:
      plan->score += 0.125;
      return true;
    default:
      return false;
  }
}

CheckResult Fail(Check check, std::string error, bool tampered) {
  return CheckResult{check, std::move(error), tampered};
}

}  // namespace

const char* CheckName(Check check) {
  switch (check) {
    case Check::kPassed: return "passed";
    case Check::kStatus: return "status";
    case Check::kDecode: return "decode";
    case Check::kStart: return "start";
    case Check::kRange: return "range";
    case Check::kDuplicate: return "duplicate";
    case Check::kExcluded: return "excluded";
    case Check::kValid: return "valid";
    case Check::kViolations: return "violations";
    case Check::kScore: return "score";
  }
  return "unknown";
}

CheckResult CheckResponse(const RequestMix& mix, const BenchRequest& request,
                          int status, std::string_view body, Check tamper,
                          ServedPlan* out) {
  if (status != 200) {
    return Fail(Check::kStatus, "HTTP status " + std::to_string(status),
                false);
  }
  if (std::string error = Decode(body, out); !error.empty()) {
    return Fail(Check::kDecode, std::move(error), false);
  }
  const model::TaskInstance& instance = mix.InstanceFor(request);
  const std::size_t n = instance.catalog->size();
  const bool tampered = tamper != Check::kPassed &&
                        ApplyTamper(tamper, request, n, out);

  const std::vector<ItemId>& items = out->items;
  if (items.empty() || items[0] != request.start) {
    return Fail(Check::kStart,
                "plan does not start at item " + std::to_string(request.start),
                tampered);
  }
  rlplanner::util::DynamicBitset seen(n);
  for (ItemId item : items) {
    if (item < 0 || static_cast<std::size_t>(item) >= n) {
      return Fail(Check::kRange,
                  "plan item " + std::to_string(item) + " out of range",
                  tampered);
    }
    if (seen.Test(static_cast<std::size_t>(item))) {
      return Fail(Check::kDuplicate,
                  "plan repeats item " + std::to_string(item), tampered);
    }
    seen.Set(static_cast<std::size_t>(item));
  }
  for (ItemId excluded : request.excluded) {
    if (seen.Test(static_cast<std::size_t>(excluded))) {
      return Fail(Check::kExcluded,
                  "plan contains excluded item " + std::to_string(excluded),
                  tampered);
    }
  }

  const model::Plan plan(items);
  const rlplanner::core::ValidationReport report =
      rlplanner::core::ValidatePlan(instance, plan);
  if (report.valid != out->valid) {
    return Fail(Check::kValid, "reported validity disagrees", tampered);
  }
  if (report.violations != out->violations) {
    return Fail(Check::kViolations, "reported violations disagree", tampered);
  }
  if (AsServed(rlplanner::core::ScorePlan(instance, plan)) != out->score) {
    return Fail(Check::kScore, "reported score disagrees", tampered);
  }
  return CheckResult{Check::kPassed, "", tampered};
}

std::uint64_t PlanDigest(const std::vector<std::vector<ItemId>>& plans) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (value >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  for (const auto& plan : plans) {
    for (ItemId item : plan) mix(static_cast<std::uint64_t>(item));
    mix(~0ull);
  }
  return hash;
}

}  // namespace perfbench
