// Tests for the mask-data-prep layer: ring grouping, method dispatch and
// multi-threaded batch fracturing.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "benchgen/ilt_synth.h"
#include "mdp/layout.h"

namespace mbf {
namespace {

Polygon square(int size, Point at = {0, 0}) {
  return Polygon({{at.x, at.y},
                  {at.x + size, at.y},
                  {at.x + size, at.y + size},
                  {at.x, at.y + size}});
}

TEST(GroupRingsTest, SeparateShapesStaySeparate) {
  const std::vector<LayoutShape> shapes =
      groupRings({square(40), square(40, {100, 0})});
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(shapes[0].rings.size(), 1u);
  EXPECT_EQ(shapes[1].rings.size(), 1u);
}

TEST(GroupRingsTest, NestedRingBecomesHole) {
  const std::vector<LayoutShape> shapes =
      groupRings({square(100), square(30, {30, 30})});
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0].rings.size(), 2u);
  // Outer ring first.
  EXPECT_EQ(shapes[0].rings[0].bbox(), Rect(0, 0, 100, 100));
}

TEST(GroupRingsTest, MixedLayout) {
  const std::vector<LayoutShape> shapes = groupRings(
      {square(30, {200, 200}), square(100), square(30, {35, 35})});
  ASSERT_EQ(shapes.size(), 2u);
  int holed = 0;
  for (const LayoutShape& s : shapes) {
    if (s.rings.size() == 2) ++holed;
  }
  EXPECT_EQ(holed, 1);
}

TEST(GroupRingsTest, EmptyInput) {
  EXPECT_TRUE(groupRings({}).empty());
}

TEST(MethodTest, ParseAndToStringRoundTrip) {
  for (const Method m :
       {Method::kOurs, Method::kGsc, Method::kMp, Method::kProxy}) {
    Method parsed;
    ASSERT_TRUE(parseMethod(toString(m), parsed));
    EXPECT_EQ(parsed, m);
  }
  Method dummy;
  EXPECT_FALSE(parseMethod("ilp", dummy));
  EXPECT_FALSE(parseMethod("", dummy));
}

TEST(MethodTest, DispatchProducesMethodTag) {
  LayoutShape shape;
  shape.rings.push_back(square(40));
  const FractureParams params;
  EXPECT_EQ(fractureShape(shape, params, Method::kOurs).method, "ours");
  EXPECT_EQ(fractureShape(shape, params, Method::kGsc).method, "GSC");
  EXPECT_EQ(fractureShape(shape, params, Method::kProxy).method,
            "EDA-PROXY");
}

TEST(BatchTest, TotalsAggregate) {
  std::vector<LayoutShape> shapes;
  for (int i = 0; i < 3; ++i) {
    LayoutShape s;
    s.rings.push_back(square(40, {i * 100, 0}));
    shapes.push_back(s);
  }
  BatchConfig config;
  const BatchResult result = fractureLayoutParallel(shapes, config);
  ASSERT_EQ(result.solutions.size(), 3u);
  int shots = 0;
  for (const Solution& sol : result.solutions) shots += sol.shotCount();
  EXPECT_EQ(result.totalShots, shots);
  EXPECT_EQ(result.totalShots, 3);  // one shot per isolated square
  EXPECT_EQ(result.totalFailingPixels, 0);
}

TEST(BatchTest, ThreadCountDoesNotChangeResults) {
  std::vector<LayoutShape> shapes;
  for (int i = 0; i < 4; ++i) {
    LayoutShape s;
    IltSynthConfig cfg;
    cfg.seed = 300 + unsigned(i);
    s.rings.push_back(makeIltShape(cfg));
    shapes.push_back(s);
  }
  BatchConfig one;
  one.threads = 1;
  BatchConfig four;
  four.threads = 4;
  const BatchResult a = fractureLayoutParallel(shapes, one);
  const BatchResult b = fractureLayoutParallel(shapes, four);
  ASSERT_EQ(a.solutions.size(), b.solutions.size());
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    EXPECT_EQ(a.solutions[i].shots, b.solutions[i].shots) << i;
  }
  EXPECT_EQ(a.totalShots, b.totalShots);
}

TEST(BatchTest, OneLthDerivationPerRun) {
  // Each run uses a gamma no other test uses, so its first shape derives
  // Lth and the other two reuse it, at any thread count.
  std::vector<LayoutShape> shapes;
  for (int i = 0; i < 3; ++i) {
    LayoutShape s;
    s.rings.push_back(square(40 + 4 * i, {i * 100, 0}));
    shapes.push_back(s);
  }
  for (const auto& [threads, gamma] :
       {std::pair{1, 2.0625}, std::pair{4, 2.1875}}) {
    BatchConfig config;
    config.threads = threads;
    config.params.gamma = gamma;
    const std::uint64_t before = ProximityModel::lthDerivations();
    const BatchResult result = fractureLayoutParallel(shapes, config);
    EXPECT_EQ(result.solutions.size(), 3u);
    EXPECT_EQ(ProximityModel::lthDerivations(), before + 1)
        << threads << " thread(s)";
    fractureLayoutParallel(shapes, config);  // same model: no new derivation
    EXPECT_EQ(ProximityModel::lthDerivations(), before + 1)
        << threads << " thread(s), repeated";
  }
}

TEST(BatchTest, MethodSelectionAffectsAllShapes) {
  std::vector<LayoutShape> shapes(2);
  shapes[0].rings.push_back(square(50));
  shapes[1].rings.push_back(square(50, {100, 100}));
  BatchConfig config;
  config.method = Method::kGsc;
  const BatchResult result = fractureLayoutParallel(shapes, config);
  for (const Solution& sol : result.solutions) {
    EXPECT_EQ(sol.method, "GSC");
  }
}

}  // namespace
}  // namespace mbf
