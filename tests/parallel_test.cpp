// Tests for the parallel execution layer: the chunked parallelFor and —
// most importantly — the determinism contract: every parallel path must
// produce byte-identical results for any thread count. FP addition is
// not associative, so these tests compare doubles with exact ==, not
// tolerances.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/opc_synth.h"
#include "ebeam/intensity_map.h"
#include "ebeam/proximity_model.h"
#include "fracture/problem.h"
#include "fracture/verifier.h"
#include "mdp/checkpoint.h"
#include "mdp/hierarchy.h"
#include "mdp/layout.h"
#include "parallel/parallel_for.h"

namespace mbf {
namespace {

// --- parallelFor --------------------------------------------------------

TEST(ParallelForTest, ResolveThreads) {
  EXPECT_GE(resolveThreads(0), 1);
  EXPECT_EQ(resolveThreads(1), 1);
  EXPECT_EQ(resolveThreads(6), 6);
  EXPECT_EQ(resolveThreads(-3), 1);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  const int n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallelFor(0, n, 4, 7, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyAndSingleChunkRanges) {
  int calls = 0;
  parallelFor(5, 5, 8, 1, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(0, 3, 8, 16, [&](int) { ++calls; });  // one chunk: serial
  EXPECT_EQ(calls, 3);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  std::vector<std::atomic<int>> hits(16 * 64);
  parallelFor(0, 16, 4, 1, [&](int outer) {
    parallelFor(0, 64, 4, 4, [&](int inner) {
      hits[static_cast<std::size_t>(outer * 64 + inner)].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelForTest, HelpersNeverExceedHardwareConcurrency) {
  // An absurd request is capped at the core count, caller included. With
  // 64 chunks even a missing cap could start no more than 63 helpers,
  // and each body sleeps so that every started helper claims a chunk.
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallelFor(0, 64, 1 << 20, 1, [&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_LE(ids.size(), std::max(1u, hw));
}

// --- IntensityMap bulk application --------------------------------------

std::vector<Rect> randomShots(std::uint32_t seed, int count, int span) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pos(0, span);
  std::uniform_int_distribution<int> len(4, 40);
  std::vector<Rect> shots;
  shots.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int x0 = pos(rng);
    const int y0 = pos(rng);
    shots.push_back({x0, y0, x0 + len(rng), y0 + len(rng)});
  }
  return shots;
}

TEST(ParallelIntensityTest, BulkSetShotsMatchesSequentialAddBitwise) {
  const ProximityModel model(6.25);
  const std::vector<Rect> shots = randomShots(42, 60, 150);

  IntensityMap sequential(model, {-20, -20}, 230, 230);
  for (const Rect& s : shots) sequential.addShot(s);

  IntensityMap bulk(model, {-20, -20}, 230, 230);
  bulk.setShots(shots);
  ASSERT_EQ(bulk.grid().data(), sequential.grid().data());
}

// --- Violation ledger property test -------------------------------------
//
// The ledger's contract: after ANY interleaving of add/remove/replace
// mutations, the lazily refreshed per-row ledger folds to exactly the
// same Violations a fresh full-grid scan produces — bit for bit.

TEST(ParallelVerifierTest, LedgerEqualsFreshScanOverRandomMutationCycles) {
  const Polygon shape = makeOpcShape(opcSuiteConfigs()[2]);
  const Problem problem(shape, FractureParams{});
  Verifier verifier(problem);

  std::mt19937 rng(1729);
  std::uniform_int_distribution<int> pos(-10, 90);
  std::uniform_int_distribution<int> len(4, 40);
  std::uniform_int_distribution<int> op(0, 2);
  std::uniform_int_distribution<int> jitter(-2, 2);
  const auto randomRect = [&]() -> Rect {
    const int x0 = pos(rng);
    const int y0 = pos(rng);
    return {x0, y0, x0 + len(rng), y0 + len(rng)};
  };

  std::vector<Rect> shots = {randomRect(), randomRect(), randomRect()};
  verifier.setShots(shots);

  const int kCycles = 10000;
  for (int step = 0; step < kCycles; ++step) {
    switch (shots.size() < 2 ? 0 : op(rng)) {
      case 0: {  // add
        const Rect s = randomRect();
        shots.push_back(s);
        verifier.addShot(s);
        break;
      }
      case 1: {  // remove
        const std::size_t i = static_cast<std::size_t>(
            std::uniform_int_distribution<int>(
                0, static_cast<int>(shots.size()) - 1)(rng));
        shots.erase(shots.begin() + static_cast<std::ptrdiff_t>(i));
        verifier.removeShot(i);
        break;
      }
      default: {  // replace (the refiner's edge-move pattern)
        const std::size_t i = static_cast<std::size_t>(
            std::uniform_int_distribution<int>(
                0, static_cast<int>(shots.size()) - 1)(rng));
        Rect r = shots[i];
        r.x0 += jitter(rng);
        r.y1 += jitter(rng);
        if (r.empty()) r = randomRect();
        shots[i] = r;
        verifier.replaceShot(i, r);
        break;
      }
    }
    // Spot-check mid-stream (every mutation would be O(cycles * grid));
    // the final check below covers the fully mixed history.
    if (step % 997 == 0) {
      EXPECT_EQ(verifier.violations(), verifier.scanViolations())
          << "step " << step;
    }
  }

  // Exact ==: Violations comparison is bitwise on the cost double.
  EXPECT_EQ(verifier.violations(), verifier.scanViolations());
  EXPECT_TRUE(verifier.ledgerMatchesScan());
}

// --- End-to-end layout determinism (the issue's acceptance test) --------

TEST(ParallelLayoutTest, FractureLayoutParallelIsByteIdentical) {
  std::vector<LayoutShape> shapes;
  const std::vector<OpcSynthConfig> suite = opcSuiteConfigs();
  for (std::size_t i = 0; i < suite.size() && i < 6; ++i) {
    LayoutShape shape;
    shape.rings.push_back(makeOpcShape(suite[i]));
    shapes.push_back(std::move(shape));
  }

  BatchConfig serialConfig;
  serialConfig.threads = 1;
  const BatchResult serial = fractureLayoutParallel(shapes, serialConfig);
  ASSERT_EQ(serial.solutions.size(), shapes.size());

  for (const int threads : {2, 8}) {
    BatchConfig config;
    config.threads = threads;
    const BatchResult result = fractureLayoutParallel(shapes, config);
    ASSERT_EQ(result.solutions.size(), shapes.size());
    EXPECT_EQ(result.totalShots, serial.totalShots);
    EXPECT_EQ(result.totalFailingPixels, serial.totalFailingPixels);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      // Byte-identical shot lists, not merely equivalent ones.
      EXPECT_EQ(result.solutions[i].shots, serial.solutions[i].shots)
          << "shape " << i << ", threads=" << threads;
      // And identical Violations when re-evaluated serially.
      FractureParams evalParams;
      const Problem problem(shapes[i].rings, evalParams);
      const Violations a =
          evaluateShots(problem, serial.solutions[i].shots);
      const Violations b =
          evaluateShots(problem, result.solutions[i].shots);
      EXPECT_EQ(a.failOn, b.failOn);
      EXPECT_EQ(a.failOff, b.failOff);
      EXPECT_EQ(a.cost, b.cost);
    }
  }
}

TEST(ParallelLayoutTest, JournaledExecutorIsThreadCountInvariant) {
  // The journaled plan executor appends CellRecords from helper threads
  // (whichever thread finishes a cell's last shape); under ThreadSanitizer
  // this is the concurrency surface of every journaled run.
  std::vector<LayoutShape> shapes;
  const std::vector<OpcSynthConfig> suite = opcSuiteConfigs();
  for (std::size_t i = 0; i < suite.size() && i < 6; ++i) {
    LayoutShape shape;
    shape.rings.push_back(makeOpcShape(suite[i]));
    shapes.push_back(std::move(shape));
  }

  struct Run {
    std::vector<Solution> solutions;
    std::vector<CellRecord> records;  ///< decoded, sorted by cell index
  };
  auto journaledRun = [&](int threads) {
    BatchConfig config;
    config.threads = threads;
    HierPlan plan;
    planFlatLayout(shapes, config, plan);
    const std::string path =
        "parallel_test_journal_" + std::to_string(threads) + ".tmp";
    HierOptions options;
    options.journalPath = path;
    HierarchicalResult result;
    EXPECT_TRUE(executePlan(plan, config, options, result).ok());
    Run run;
    run.solutions = std::move(result.batch.solutions);
    std::string meta;
    std::vector<std::string> frames;
    EXPECT_TRUE(recoverJournal(path, meta, frames).ok());
    for (const std::string& frame : frames) {
      CellRecord record;
      EXPECT_TRUE(decodeCellRecord(frame, record).ok());
      run.records.push_back(std::move(record));
    }
    std::sort(run.records.begin(), run.records.end(),
              [](const CellRecord& a, const CellRecord& b) {
                return a.cellIndex < b.cellIndex;
              });
    std::remove(path.c_str());
    std::remove((path + ".sha256").c_str());
    return run;
  };

  const Run serial = journaledRun(1);
  const Run parallel = journaledRun(4);
  ASSERT_EQ(serial.solutions.size(), shapes.size());
  ASSERT_EQ(parallel.solutions.size(), shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ(parallel.solutions[i].shots, serial.solutions[i].shots)
        << "shape " << i;
    EXPECT_EQ(parallel.solutions[i].cost, serial.solutions[i].cost)
        << "shape " << i;
  }
  // One record per cell at either thread count, with identical content
  // (runtimeSeconds is wall clock and excluded).
  ASSERT_EQ(serial.records.size(), shapes.size());
  ASSERT_EQ(parallel.records.size(), serial.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const CellRecord& a = serial.records[i];
    const CellRecord& b = parallel.records[i];
    EXPECT_EQ(a.cellIndex, static_cast<int>(i));
    EXPECT_EQ(b.cellIndex, a.cellIndex);
    EXPECT_EQ(b.key, a.key);
    ASSERT_EQ(a.solutions.size(), 1u);
    ASSERT_EQ(b.solutions.size(), 1u);
    EXPECT_EQ(b.solutions[0].shots, a.solutions[0].shots);
    EXPECT_EQ(b.solutions[0].cost, a.solutions[0].cost);
    EXPECT_EQ(b.solutions[0].failOn, a.solutions[0].failOn);
    EXPECT_EQ(b.solutions[0].failOff, a.solutions[0].failOff);
    EXPECT_EQ(b.reports[0].status.code(), a.reports[0].status.code());
  }
}

// --- Lth memo -----------------------------------------------------------

TEST(LthMemoConcurrencyTest, SimultaneousFirstCallsDeriveOnce) {
  // Eight threads ask for a key nothing else uses at the same moment;
  // the memo must derive it once and hand every thread the same bits.
  constexpr int kThreads = 8;
  const ProximityModel model(8.125, 0.5, 0.0, 0.0);
  const double gamma = 2.75;
  const std::uint64_t before = ProximityModel::lthDerivations();
  std::vector<std::uint64_t> bits(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      bits[static_cast<std::size_t>(t)] =
          std::bit_cast<std::uint64_t>(model.computeLth(gamma));
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(ProximityModel::lthDerivations(), before + 1);
  const std::uint64_t reference =
      std::bit_cast<std::uint64_t>(model.computeLthUncached(gamma));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bits[static_cast<std::size_t>(t)], reference) << "thread " << t;
  }
}

}  // namespace
}  // namespace mbf
