// Regenerates Table IV: average ratings of RL-Planner plans vs gold
// standards on the four study questions, from the simulated user study
// (25 simulated students for course planning, 50 simulated travelers with
// 5 raters per itinerary for trip planning; see eval/user_study.h for the
// substitution).
//
// Expected shape (paper): RL-Planner rates close to but slightly below the
// gold standard on every question (paper: 3.6 vs 4.12 overall for courses,
// 4.2 vs 4.5 for trips).

#include <cstdio>

#include "core/config.h"
#include "datagen/course_data.h"
#include "datagen/trip_data.h"
#include "eval/user_study.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace rlplanner::datagen;
  using rlplanner::eval::AverageRatings;
  using rlplanner::eval::RunUserStudy;
  using rlplanner::eval::UserStudyResult;

  // Course planning: 25 simulated DS-CT students rating 5 plan pairs.
  const UserStudyResult course =
      RunUserStudy(MakeUniv1DsCt(), rlplanner::core::DefaultUniv1Config(),
                   /*plans_per_method=*/5, /*raters=*/25);

  // Trip planning: 5 itineraries per city, 5 simulated travelers each
  // (matching the paper's 10 itineraries x 5 raters = 50 workers).
  const UserStudyResult nyc =
      RunUserStudy(MakeNycTrip(), rlplanner::core::DefaultTripConfig(), 5, 5);
  const UserStudyResult paris = RunUserStudy(
      MakeParisTrip(), rlplanner::core::DefaultTripConfig(), 5, 5);
  const UserStudyResult trip = {AverageRatings({nyc.rl, paris.rl}),
                                AverageRatings({nyc.gold, paris.gold})};

  rlplanner::util::AsciiTable table(
      {"Question", "Course RL-Planner", "Course Gold", "Trip RL-Planner",
       "Trip Gold"});
  auto fmt = [](double v) { return rlplanner::util::FormatDouble(v, 2); };
  table.AddRow({"Overall Rating", fmt(course.rl.overall),
                fmt(course.gold.overall), fmt(trip.rl.overall),
                fmt(trip.gold.overall)});
  table.AddRow({"Ordering of Items", fmt(course.rl.ordering),
                fmt(course.gold.ordering), fmt(trip.rl.ordering),
                fmt(trip.gold.ordering)});
  table.AddRow({"Topic/Theme Coverage", fmt(course.rl.topic_coverage),
                fmt(course.gold.topic_coverage), fmt(trip.rl.topic_coverage),
                fmt(trip.gold.topic_coverage)});
  table.AddRow({"Interleaving / Thresholds", fmt(course.rl.interleaving),
                fmt(course.gold.interleaving), fmt(trip.rl.interleaving),
                fmt(trip.gold.interleaving)});
  std::printf("Table IV: simulated user-study ratings (1..5)\n%s",
              table.ToString().c_str());
  return 0;
}
