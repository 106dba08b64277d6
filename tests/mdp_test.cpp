// Tests for the mask-data-prep layer: ring grouping, method dispatch and
// multi-threaded batch fracturing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

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

TEST(GroupRingsTest, DepthOneKeepsInputOrder) {
  // Holes listed before and after their outer ring: shapes follow their
  // outer rings' input order, holes follow theirs.
  const std::vector<LayoutShape> shapes =
      groupRings({square(10, {10, 10}), square(100), square(300, {500, 0}),
                  square(10, {60, 60})});
  ASSERT_EQ(shapes.size(), 2u);
  ASSERT_EQ(shapes[0].rings.size(), 3u);
  EXPECT_EQ(shapes[0].rings[0].bbox(), Rect(0, 0, 100, 100));
  EXPECT_EQ(shapes[0].rings[1].bbox(), Rect(10, 10, 20, 20));
  EXPECT_EQ(shapes[0].rings[2].bbox(), Rect(60, 60, 70, 70));
  ASSERT_EQ(shapes[1].rings.size(), 1u);
  EXPECT_EQ(shapes[1].rings[0].bbox(), Rect(500, 0, 800, 300));
}

/// A grouping as an order-free set: each shape's ring boxes, sorted.
std::vector<std::vector<std::tuple<int, int, int, int>>> shapeSet(
    const std::vector<LayoutShape>& shapes) {
  std::vector<std::vector<std::tuple<int, int, int, int>>> out;
  for (const LayoutShape& s : shapes) {
    std::vector<std::tuple<int, int, int, int>> rings;
    for (const Polygon& ring : s.rings) {
      const Rect b = ring.bbox();
      rings.emplace_back(b.x0, b.y0, b.x1, b.y1);
    }
    std::sort(rings.begin() + 1, rings.end());  // outer ring stays first
    out.push_back(std::move(rings));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(GroupRingsTest, IslandSurvivesEveryRingOrder) {
  // An island (40..80) inside a hole (20..100) of an outer ring (0..120):
  // two shapes, {outer, hole} and {island}, whatever the input order.
  // Listed hole, island, outer, the island once took the hole as its
  // parent and was dropped.
  const std::vector<Polygon> rings = {square(80, {20, 20}),
                                      square(40, {40, 40}), square(120)};
  const auto expected = shapeSet(groupRings({rings[2], rings[0], rings[1]}));
  ASSERT_EQ(expected.size(), 2u);
  std::vector<int> order = {0, 1, 2};
  int orderings = 0;
  do {
    std::vector<Polygon> permuted;
    for (const int i : order) {
      permuted.push_back(rings[static_cast<std::size_t>(i)]);
    }
    std::pair<int, int> coincident;
    EXPECT_EQ(shapeSet(groupRings(permuted, &coincident)), expected)
        << "order " << order[0] << order[1] << order[2];
    EXPECT_EQ(coincident, std::make_pair(-1, -1));
    ++orderings;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orderings, 6);
}

TEST(GroupRingsTest, CoincidentRingsAreReported) {
  std::pair<int, int> coincident;
  const std::vector<LayoutShape> shapes =
      groupRings({square(40, {500, 0}), square(40), square(40)}, &coincident);
  EXPECT_EQ(coincident, std::make_pair(1, 2));
  // Nothing is dropped: the later twin is grouped inside the earlier.
  std::size_t rings = 0;
  for (const LayoutShape& s : shapes) rings += s.rings.size();
  EXPECT_EQ(rings, 3u);
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
