// Inputs and output checks shared by every workload: the catalog recipes,
// the serving configuration the CLI would build for them, the seeded
// request mix, and the per-response correctness check.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "datagen/dataset.h"
#include "model/constraints.h"
#include "model/plan.h"

namespace perfbench {

using rlplanner::model::ItemId;

/// Reports `message` on stderr and exits with status 1.
[[noreturn]] void Die(const std::string& message);

/// 114 items over 228 topics: the size of the paper's largest course
/// catalog (Univ-1), built by serve_bench's synthetic generator.
rlplanner::datagen::Dataset PaperCatalog();

/// 10k items over 512 topics, the catalog of serve_bench's big snapshot.
rlplanner::datagen::Dataset Scale10kCatalog();

/// What `rlplanner_cli serve` builds for a course dataset with no training
/// flags: Table III Univ-1 defaults, starting at the dataset's default item.
rlplanner::core::PlannerConfig ServeConfig(
    const rlplanner::datagen::Dataset& dataset);

// The request mix. No request log of the planner exists to measure these
// from: they are assumptions. The one constraint on them is that an
// ideal-topics request, slower by its reward rebuild, stays far from half
// of the stream, so the gated median does not land on the boundary between
// request kinds. A result that depends on them must name the input
// properties the traced run reports for them (bench.override_share,
// bench.repeat_request_share, bench.profile_reuse_share).
//
// Share of requests carrying `excluded`, and how many items each names.
constexpr double kExcludedShare = 0.3;
constexpr int kExcludedCount = 3;
// Share of requests carrying `ideal_topics`, drawn uniformly from
// kProfiles per-user topic profiles of a quarter of the vocabulary each:
// after the first few override requests of a run nearly every override
// repeats a profile (bench.profile_reuse_share), so a cache keyed by the
// profile would hit.
constexpr double kIdealShare = 0.2;
constexpr int kProfiles = 16;

/// One generated POST /v1/plan request and what its answer must respect.
struct BenchRequest {
  std::string body;
  int slot = 0;
  ItemId start = 0;
  std::vector<ItemId> excluded;
  /// Index of the ideal-topics profile, or -1 for the dataset default.
  int profile = -1;
};

/// A seeded request stream over one task instance: the start item is
/// uniform over the catalog, the slot uniform over `slots`, and the
/// override shares are the constants above. The same (instance, slots,
/// seed, count) always yields the same requests.
class RequestMix {
 public:
  RequestMix(const rlplanner::model::TaskInstance& base,
             std::vector<std::string> slots, std::uint64_t seed,
             std::size_t count);

  const std::vector<BenchRequest>& requests() const { return requests_; }

  /// The instance a response to `request` is validated against: the base
  /// instance, or a copy carrying the request's ideal-topics override.
  const rlplanner::model::TaskInstance& InstanceFor(
      const BenchRequest& request) const;

  const std::vector<std::string>& ProfileTopics(int profile) const {
    return profile_topics_[static_cast<std::size_t>(profile)];
  }

 private:
  const rlplanner::model::TaskInstance* base_;
  std::vector<std::string> slots_;
  std::vector<std::vector<std::string>> profile_topics_;
  std::vector<rlplanner::model::TaskInstance> profile_instances_;
  std::vector<BenchRequest> requests_;
};

/// A decoded POST /v1/plan response.
struct ServedPlan {
  std::vector<ItemId> items;
  double score = 0.0;
  bool valid = false;
  std::vector<std::string> violations;
  std::uint64_t policy_version = 0;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
};

/// The output checks, in the order CheckResponse applies them.
enum class Check {
  kPassed = 0,
  kStatus,      // HTTP 200
  kDecode,      // the body is a plan response
  kStart,       // the plan starts at the requested item
  kRange,       // every item is in the catalog
  kDuplicate,   // no item repeats
  kExcluded,    // no excluded item
  kValid,       // `valid` equals core::ValidatePlan's
  kViolations,  // `violations` equal core::ValidatePlan's
  kScore,       // `score` equals core::ScorePlan's
};

/// Name of a check, as the self-test report prints it.
const char* CheckName(Check check);

/// The checks a deliberate corruption of the decoded response can trip,
/// for the benchmark's self-test: CheckResponse(..., tamper = c, ...)
/// corrupts the response so that check c, and no earlier one, fails.
constexpr Check kTamperable[] = {
    Check::kStart,    Check::kRange,      Check::kDuplicate, Check::kExcluded,
    Check::kValid,    Check::kViolations, Check::kScore,
};

/// What CheckResponse found.
struct CheckResult {
  Check failed = Check::kPassed;  // the first check that failed
  std::string error;              // what failed; empty when all passed
  bool tampered = false;          // the requested corruption was applied
};

/// Checks one response: HTTP 200; the plan starts at the requested item and
/// holds no duplicate, out-of-range or excluded item; and the reported
/// `valid`, `violations` and `score` equal the benchmark's own
/// core::ValidatePlan and core::ScorePlan of the returned plan. `tamper`
/// other than kPassed first corrupts the decoded response so that check
/// fails; a corruption that needs what the response lacks (an excluded
/// item on a request without exclusions, a second plan item) is skipped,
/// and the result's `tampered` says which happened. `out` receives the
/// decoded response when it could be decoded.
CheckResult CheckResponse(const RequestMix& mix, const BenchRequest& request,
                          int status, std::string_view body, Check tamper,
                          ServedPlan* out);

/// FNV-1a over a sequence of plans (item ids and a separator per plan).
std::uint64_t PlanDigest(const std::vector<std::vector<ItemId>>& plans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
