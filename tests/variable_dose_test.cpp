// Tests for the variable-dose extension: dose-aware verification,
// edge+dose refinement, and shot-count reduction under dose freedom.
#include <gtest/gtest.h>

#include <random>

#include "ebeam/intensity_map.h"
#include "extensions/variable_dose.h"
#include "fracture/model_based_fracturer.h"

namespace mbf {
namespace {

Polygon square(int size) {
  return Polygon({{0, 0}, {size, 0}, {size, size}, {0, size}});
}

class VariableDoseTest : public ::testing::Test {
 protected:
  VariableDoseTest() : problem_(square(40), FractureParams{}) {}
  Problem problem_;
};

TEST_F(VariableDoseTest, UnitDoseMatchesFixedVerifier) {
  const std::vector<Rect> rects{{0, 0, 40, 40}, {5, 5, 25, 25}};
  Verifier fixedV(problem_);
  fixedV.setShots(rects);
  DoseVerifier dosedV(problem_);
  dosedV.setShots(withUnitDose(rects));
  const Violations a = fixedV.violations();
  const Violations b = dosedV.violations();
  EXPECT_EQ(a.failOn, b.failOn);
  EXPECT_EQ(a.failOff, b.failOff);
  EXPECT_NEAR(a.cost, b.cost, 1e-5);
}

TEST_F(VariableDoseTest, HalfDoseUnderprints) {
  DoseVerifier v(problem_);
  v.setShots(std::vector<DosedShot>{{{0, 0, 40, 40}, 0.5}});
  const Violations viol = v.violations();
  // At half dose even the deep interior only reaches ~0.5; boundary-near
  // Pon pixels drop below threshold.
  EXPECT_GT(viol.failOn, 0);
  EXPECT_EQ(viol.failOff, 0);
}

TEST_F(VariableDoseTest, HighDoseOverprints) {
  // The contour of an isolated edge sits where dose * F(-d) = rho; pushing
  // it past the gamma = 2 band needs dose > rho / F(-2.5/sigma) ~ 1.75.
  DoseVerifier v(problem_);
  v.setShots(std::vector<DosedShot>{{{0, 0, 40, 40}, 2.0}});
  EXPECT_GT(v.violations().failOff, 0);
  EXPECT_EQ(v.violations().failOn, 0);
}

TEST_F(VariableDoseTest, CostDeltaMatchesRecomputationForDoseChange) {
  DoseVerifier v(problem_);
  v.setShots(std::vector<DosedShot>{{{2, 2, 38, 38}, 1.0}});
  const double before = v.violations().cost;
  const DosedShot upDosed{{2, 2, 38, 38}, 1.2};
  const double predicted = v.costDeltaForReplace(0, upDosed);
  v.replaceShot(0, upDosed);
  EXPECT_NEAR(v.violations().cost - before, predicted, 1e-5);
}

TEST_F(VariableDoseTest, ReplaceShotChangesBothRectAndDose) {
  DoseVerifier v(problem_);
  v.setShots(std::vector<DosedShot>{{{0, 0, 40, 40}, 1.0}});
  v.replaceShot(0, {{5, 5, 35, 35}, 1.3});
  EXPECT_EQ(v.shots()[0].rect, Rect(5, 5, 35, 35));
  EXPECT_DOUBLE_EQ(v.shots()[0].dose, 1.3);
  // State consistent with a from-scratch build.
  DoseVerifier fresh(problem_);
  fresh.setShots(v.shots());
  EXPECT_NEAR(fresh.violations().cost, v.violations().cost, 1e-5);
}

TEST_F(VariableDoseTest, RefineFixesUnderdosedShot) {
  VariableDoseRefiner refiner(problem_);
  const VariableDoseResult r =
      refiner.refine({{{0, 0, 40, 40}, 0.7}});
  EXPECT_TRUE(r.feasible()) << r.violations.failOn << "/"
                            << r.violations.failOff;
  ASSERT_EQ(r.shots.size(), 1u);
  // Either the dose was raised back or the rect compensated; dose must
  // stay within configured bounds.
  EXPECT_GE(r.shots[0].dose, 0.6);
  EXPECT_LE(r.shots[0].dose, 1.6);
}

TEST_F(VariableDoseTest, RefineRespectsDoseBounds) {
  VariableDoseConfig cfg;
  cfg.doseMin = 0.9;
  cfg.doseMax = 1.1;
  VariableDoseRefiner refiner(problem_, cfg);
  const VariableDoseResult r = refiner.refine({{{4, 4, 36, 36}, 1.0}});
  for (const DosedShot& s : r.shots) {
    EXPECT_GE(s.dose, 0.9 - 1e-9);
    EXPECT_LE(s.dose, 1.1 + 1e-9);
  }
}

TEST_F(VariableDoseTest, ReduceShotsDropsRedundantShot) {
  // A perfect shot plus a redundant sliver: reduction removes it.
  VariableDoseRefiner refiner(problem_);
  const VariableDoseResult r = refiner.reduceShots(
      withUnitDose(std::vector<Rect>{{0, 0, 40, 40}, {10, 10, 24, 24}}));
  EXPECT_TRUE(r.feasible());
  EXPECT_EQ(r.shots.size(), 1u);
}

TEST_F(VariableDoseTest, ReduceNeverReturnsInfeasibleAfterFeasibleStart) {
  Problem lShape(Polygon({{0, 0}, {80, 0}, {80, 30}, {30, 30}, {30, 80},
                          {0, 80}}),
                 FractureParams{});
  const Solution fixed = ModelBasedFracturer{}.fracture(lShape);
  ASSERT_TRUE(fixed.feasible());
  VariableDoseRefiner refiner(lShape);
  const VariableDoseResult r = refiner.reduceShots(withUnitDose(fixed.shots));
  EXPECT_TRUE(r.feasible());
  EXPECT_LE(r.shots.size(), fixed.shots.size());
}

TEST_F(VariableDoseTest, WithUnitDoseLifts) {
  const std::vector<Rect> rects{{0, 0, 1, 1}, {2, 2, 3, 3}};
  const std::vector<DosedShot> dosed = withUnitDose(rects);
  ASSERT_EQ(dosed.size(), 2u);
  EXPECT_EQ(dosed[0].rect, rects[0]);
  EXPECT_DOUBLE_EQ(dosed[1].dose, 1.0);
}

// --- dose-aware bulk rebuild ---------------------------------------------

TEST_F(VariableDoseTest, BulkDoseSetShotsMatchesSequentialAddBitwise) {
  const ProximityModel model(6.25);
  std::mt19937 rng(314);
  std::uniform_int_distribution<int> pos(0, 60);
  std::uniform_int_distribution<int> len(4, 30);
  std::uniform_real_distribution<double> dose(0.6, 1.6);
  std::vector<Rect> rects;
  std::vector<double> doses;
  for (int i = 0; i < 120; ++i) {
    const int x0 = pos(rng);
    const int y0 = pos(rng);
    rects.push_back({x0, y0, x0 + len(rng), y0 + len(rng)});
    doses.push_back(dose(rng));
  }

  IntensityMap sequential(model, {-20, -20}, 150, 150);
  for (std::size_t i = 0; i < rects.size(); ++i) {
    sequential.addShot(rects[i], doses[i]);
  }

  IntensityMap bulk(model, {-20, -20}, 150, 150);
  bulk.setShots(rects, doses);
  // Exact ==: the bulk path must accumulate the shots in input order,
  // making it bitwise equal to sequential adds.
  ASSERT_EQ(bulk.grid().data(), sequential.grid().data());
}

}  // namespace
}  // namespace mbf
