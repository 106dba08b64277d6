// google-benchmark micro-timings of the library's hot kernels: intensity
// accumulation, cost-delta evaluation (the refiner's inner loop, paper
// 4.1), one edge-adjustment pass, pixel classification, EDT, coloring.
#include <benchmark/benchmark.h>

#include "benchgen/ilt_synth.h"
#include "fracture/coloring_fracturer.h"
#include "fracture/refiner.h"
#include "fracture/verifier.h"
#include "geometry/edt.h"
#include "graph/coloring.h"

namespace {

using namespace mbf;

const Problem& iltProblem() {
  static const Problem problem(makeIltShape(iltSuiteConfigs()[4]),
                               FractureParams{});
  return problem;
}

void BM_IntensityMapAddShot(benchmark::State& state) {
  const ProximityModel model;
  IntensityMap map(model, {0, 0}, 300, 300);
  const Rect shot{100, 100, 100 + int(state.range(0)),
                  100 + int(state.range(0))};
  for (auto _ : state) {
    map.addShot(shot);
    map.removeShot(shot);
  }
}
BENCHMARK(BM_IntensityMapAddShot)->Arg(12)->Arg(40)->Arg(120);

void BM_CostDeltaForReplace(benchmark::State& state) {
  const Problem& problem = iltProblem();
  Verifier verifier(problem);
  const ColoringArtifacts art =
      ColoringFracturer{}.fractureWithArtifacts(problem);
  verifier.setShots(art.shots);
  const Rect moved = {art.shots[0].x0 - 1, art.shots[0].y0, art.shots[0].x1,
                      art.shots[0].y1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.costDeltaForReplace(0, moved));
  }
}
BENCHMARK(BM_CostDeltaForReplace);

void BM_EdgeAdjustmentPass(benchmark::State& state) {
  const Problem& problem = iltProblem();
  const ColoringArtifacts art =
      ColoringFracturer{}.fractureWithArtifacts(problem);
  Refiner refiner(problem);
  for (auto _ : state) {
    state.PauseTiming();
    Verifier verifier(problem);
    verifier.setShots(art.shots);
    state.ResumeTiming();
    benchmark::DoNotOptimize(refiner.greedyShotEdgeAdjustment(verifier));
  }
}
BENCHMARK(BM_EdgeAdjustmentPass);

void BM_FullViolationScan(benchmark::State& state) {
  const Problem& problem = iltProblem();
  Verifier verifier(problem);
  verifier.setShots(std::vector<Rect>{problem.target().bbox()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.violations());
  }
}
BENCHMARK(BM_FullViolationScan);

// Lth comes from the process-wide memo after the first iteration, so
// this times the per-shape work: model LUT, rasterization, EDT, classes.
void BM_ProblemConstruction(benchmark::State& state) {
  const Polygon shape = makeIltShape(iltSuiteConfigs()[4]);
  for (auto _ : state) {
    const Problem problem(shape, FractureParams{});
    benchmark::DoNotOptimize(problem.numOnPixels());
  }
}
BENCHMARK(BM_ProblemConstruction);

void BM_Edt(benchmark::State& state) {
  const int n = int(state.range(0));
  MaskGrid mask(n, n, 0);
  mask.at(n / 2, n / 2) = 1;
  mask.at(n / 4, n / 3) = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(squaredDistanceTransform(mask));
  }
}
BENCHMARK(BM_Edt)->Arg(128)->Arg(256)->Arg(512);

void BM_GreedyColoring(benchmark::State& state) {
  const int n = int(state.range(0));
  Graph g(n);
  unsigned s = 12345;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      s = s * 1664525 + 1013904223;
      if ((s >> 24) % 4 == 0) g.addEdge(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedyColoring(g));
  }
}
BENCHMARK(BM_GreedyColoring)->Arg(50)->Arg(200);

// The cold derivation a memo miss pays, once per distinct model.
void BM_Lth(benchmark::State& state) {
  const ProximityModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.computeLthUncached(2.0));
  }
}
BENCHMARK(BM_Lth);

// What every later Problem of a run pays for Lth: a locked memo lookup.
void BM_LthMemoHit(benchmark::State& state) {
  const ProximityModel model;
  benchmark::DoNotOptimize(model.computeLth(2.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.computeLth(2.0));
  }
}
BENCHMARK(BM_LthMemoHit);

}  // namespace

BENCHMARK_MAIN();
