// Tests for the CMDP constraint functionals (Eq. 1's D_j(H) <= c_j view of
// P_hard) and the plan validator built on them.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/validation.h"
#include "datagen/course_data.h"
#include "datagen/trip_data.h"
#include "mdp/cmdp.h"

namespace rlplanner::mdp {
namespace {

using model::Plan;

class ToyCmdpTest : public ::testing::Test {
 protected:
  ToyCmdpTest()
      : dataset_(datagen::MakeTableIIToy()), instance_(dataset_.Instance()) {}

  model::ItemId Id(const char* code) {
    return dataset_.catalog.FindByCode(code).value();
  }

  datagen::Dataset dataset_;
  model::TaskInstance instance_;
};

TEST_F(ToyCmdpTest, FullValidPlanSatisfiesEverything) {
  // The paper's own sequence m1->m2->m4->m5->m6->m3: all 6 courses, m5
  // after m2, m6 after m4 AND m2 (gap 1).
  const Plan plan({0, 1, 3, 4, 5, 2});
  const CmdpSpec spec = CmdpSpec::FromInstance(instance_);
  EXPECT_TRUE(spec.Satisfied(plan));
  EXPECT_TRUE(spec.Violations(plan).empty());
  for (double cost : spec.Evaluate(plan)) {
    EXPECT_DOUBLE_EQ(cost, 0.0);
  }
}

TEST_F(ToyCmdpTest, MissingCreditsDetected) {
  const Plan plan({0, 1, 3});  // 9 credits of the required 18
  const CmdpSpec spec = CmdpSpec::FromInstance(instance_);
  EXPECT_FALSE(spec.Satisfied(plan));
  const auto violations = spec.Violations(plan);
  EXPECT_NE(std::find(violations.begin(), violations.end(), "min_credits"),
            violations.end());
  EXPECT_NE(std::find(violations.begin(), violations.end(), "plan_length"),
            violations.end());
}

TEST_F(ToyCmdpTest, GapViolationDetected) {
  // m6 (needs m4 AND m2 before) placed before m4.
  const Plan plan({0, 1, 5, 3, 4, 2});
  const CmdpSpec spec = CmdpSpec::FromInstance(instance_);
  const auto violations = spec.Violations(plan);
  EXPECT_NE(std::find(violations.begin(), violations.end(),
                      "prerequisite_gap"),
            violations.end());
}

TEST_F(ToyCmdpTest, RepeatedAntecedentCountsAtItsLastPosition) {
  // m1 -> m2 -> m5 -> m2 -> m4 -> m6, gap 1. m5 needs m2 OR m3: m2 sits
  // one step before it, but also two steps after, and the gap check reads
  // an item's last position, so m5 is one gap violation. m6 (m4 AND m2)
  // still meets both.
  const Plan plan({0, 1, 4, 1, 3, 5});
  const CmdpSpec spec = CmdpSpec::FromInstance(instance_);
  const std::vector<double> costs = spec.Evaluate(plan);
  bool found = false;
  for (std::size_t i = 0; i < spec.constraints().size(); ++i) {
    if (spec.constraints()[i].name == "prerequisite_gap") {
      EXPECT_DOUBLE_EQ(costs[i], 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ToyCmdpTest, DuplicateItemsDetected) {
  const Plan plan({0, 0, 1, 3, 4, 2});
  const CmdpSpec spec = CmdpSpec::FromInstance(instance_);
  const auto violations = spec.Violations(plan);
  EXPECT_NE(std::find(violations.begin(), violations.end(),
                      "no_duplicate_items"),
            violations.end());
}

TEST_F(ToyCmdpTest, PrimaryShortfallDetected) {
  // Drop a primary: m1, m2, m4, m5 + 2 more secondaries do not exist, so
  // build a 6-item plan with only 2 primaries by replacing m6 (primary)
  // with nothing available -> use 5 items to also trip length; the split
  // cost must be positive.
  const Plan plan({1, 3, 4, 0, 2});  // 2 primaries (m1, m3), needs 3
  const CmdpSpec spec = CmdpSpec::FromInstance(instance_);
  const auto violations = spec.Violations(plan);
  EXPECT_NE(std::find(violations.begin(), violations.end(), "primary_split"),
            violations.end());
}

TEST_F(ToyCmdpTest, ExtraPrimariesAreAllowedByCaseI) {
  // Theorem 1 Case I: more primaries than required is consistent. Toy
  // requires 3 primary / 3 secondary; m1,m3,m6 primary + m2,m4,m5
  // secondary is the only full split, so check the cost function directly:
  // a plan with all three primaries plus three secondaries has cost 0, and
  // the constraint only lower-bounds primaries.
  const CmdpSpec spec = CmdpSpec::FromInstance(instance_);
  const Plan plan({0, 1, 3, 4, 5, 2});
  for (std::size_t i = 0; i < spec.constraints().size(); ++i) {
    if (spec.constraints()[i].name == "primary_split") {
      EXPECT_DOUBLE_EQ(spec.Evaluate(plan)[i], 0.0);
    }
  }
}

TEST(TripCmdpTest, TimeBudgetIsUpperBound) {
  datagen::Dataset dataset = datagen::MakeNycTrip();
  const model::TaskInstance instance = dataset.Instance();
  const CmdpSpec spec = CmdpSpec::FromInstance(instance);

  // Greedily overfill the budget with primaries.
  Plan plan;
  double hours = 0.0;
  for (const model::Item& item : dataset.catalog.items()) {
    plan.Append(item.id);
    hours += item.credits;
    if (hours > instance.hard.min_credits + 2.0) break;
  }
  const auto violations = spec.Violations(plan);
  EXPECT_NE(std::find(violations.begin(), violations.end(), "time_budget"),
            violations.end());
}

TEST(TripCmdpTest, ConsecutiveThemeRuleEnforced) {
  datagen::Dataset dataset = datagen::MakeNycTrip();
  const model::TaskInstance instance = dataset.Instance();
  const CmdpSpec spec = CmdpSpec::FromInstance(instance);

  // Two POIs sharing a primary theme back to back.
  model::ItemId a = -1;
  model::ItemId b = -1;
  for (const auto& first : dataset.catalog.items()) {
    for (const auto& second : dataset.catalog.items()) {
      if (first.id != second.id && first.primary_theme >= 0 &&
          first.primary_theme == second.primary_theme) {
        a = first.id;
        b = second.id;
        break;
      }
    }
    if (a >= 0) break;
  }
  ASSERT_GE(a, 0);
  const Plan plan({a, b});
  const auto violations = spec.Violations(plan);
  EXPECT_NE(std::find(violations.begin(), violations.end(),
                      "consecutive_theme"),
            violations.end());
}

TEST(TripCmdpTest, DistanceThresholdEnforced) {
  datagen::Dataset dataset = datagen::MakeNycTrip();
  dataset.hard.distance_threshold_km = 0.001;  // essentially nothing allowed
  const model::TaskInstance instance = dataset.Instance();
  const CmdpSpec spec = CmdpSpec::FromInstance(instance);
  const Plan plan({0, 1, 2});
  const auto violations = spec.Violations(plan);
  EXPECT_NE(std::find(violations.begin(), violations.end(),
                      "distance_threshold"),
            violations.end());
}

TEST(CategoryCmdpTest, Univ2CategoryMinimaChecked) {
  datagen::Dataset dataset = datagen::MakeUniv2Ds();
  const model::TaskInstance instance = dataset.Instance();
  const CmdpSpec spec = CmdpSpec::FromInstance(instance);
  // 15 items all from category 3 (only 8 exist) -> take first 15 items of
  // the catalog; whatever the mix, removing every elective breaks cat 5's
  // minimum of 4.
  Plan plan;
  for (const model::Item& item : dataset.catalog.items()) {
    if (item.category != 5 && plan.size() < 15) plan.Append(item.id);
  }
  const auto violations = spec.Violations(plan);
  EXPECT_NE(std::find(violations.begin(), violations.end(),
                      "category_minima"),
            violations.end());
}

TEST(ValidationReportTest, ReportsNamesAndCosts) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const Plan bad({0});
  const auto report = core::ValidatePlan(instance, bad);
  EXPECT_FALSE(report.valid);
  EXPECT_FALSE(report.violations.empty());
  EXPECT_EQ(report.costs.size(), report.constraint_names.size());
  EXPECT_NE(report.ToString().find("INVALID"), std::string::npos);

  const Plan good({0, 1, 3, 4, 5, 2});
  const auto ok_report = core::ValidatePlan(instance, good);
  EXPECT_TRUE(ok_report.valid);
  EXPECT_EQ(ok_report.ToString(), "valid");
}

}  // namespace
}  // namespace rlplanner::mdp
