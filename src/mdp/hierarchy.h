// Hierarchical mask fracturing: a GDSII cell referenced N times is
// fractured ONCE and its shot list instantiated at every reference
// offset. This is the leverage that keeps full-mask MDP tractable
// ("a mask contains billions of polygons", paper section 2 -- but only
// thousands of unique cells), and with the persistent cell-fracture
// cache (mdp/cell_cache) it extends across runs: a warm re-run
// fractures only the cells whose geometry or parameters changed.
//
// Correctness contract: fracturing is invariant under whole-pixel
// (integer-nm) translation — pinned by the audit layer's metamorphic
// test — so a cell's cell-local solution translated to an instance
// offset is bitwise the solution a flat run would have produced there.
// The instance expansion mirrors flattenGdsChecked's traversal order
// (own polygons, then SREFs, then AREFs, row-major), so the hierarchical
// shape list lines up one-to-one with the flattened one whenever
// instances don't interleave ring containment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/gdsii.h"
#include "mdp/checkpoint.h"
#include "mdp/layout.h"
#include "mdp/supervisor.h"
#include "support/status.h"

namespace mbf {

/// The deterministic skeleton of a hierarchical run: unique cells in
/// first-visit (DFS) order — the PLAN CELL INDEX every journal record,
/// worker shard and supervisor range refers to — plus every instance
/// placement. Two processes planning the same GDS under the same config
/// produce identical plans, which is what lets a worker shard cells by
/// index and a resumed run trust journaled indices.
struct HierPlan {
  std::string topStruct;
  int reachableCells = 0;
  std::int64_t instancesExpanded = 0;

  struct Cell {
    std::vector<LayoutShape> shapes;  ///< cell-local, groupRings order
    std::string key;                  ///< cellFractureKey under the config
  };
  /// One entry per CONTENT key, in first-visit order.
  std::vector<Cell> cells;

  struct Instance {
    int cell = -1;  ///< index into `cells`
    Point offset;
  };
  /// Every placement carrying geometry, in DFS (flat-equivalent) order.
  std::vector<Instance> instances;
};

/// Expands and dedupes the hierarchy without fracturing anything.
/// Errors match fractureGdsHierarchical (unresolvable top, cycles,
/// depth, out-of-range placements, AREF caps).
Status planGdsHierarchy(const GdsLibrary& lib, const BatchConfig& config,
                        const std::string& topStruct, HierPlan& out);

struct HierOptions {
  /// Top structure; empty auto-detects via findGdsTopStructure.
  std::string topStruct;
  /// Persistent cell-fracture cache directory; empty = in-memory
  /// dedupe only (each unique cell still fractures once per run).
  std::string cellCacheDir;
  /// Best-effort byte cap on the cache directory (0 = unlimited): after
  /// each store, least-recently-modified entries NOT touched by this
  /// run are evicted until under the cap (--cell-cache-quota-mb).
  std::int64_t cellCacheQuotaBytes = 0;
  /// Cell-level result journal (DESIGN.md section 19): every completed
  /// unique cell appends one CellRecord the moment its last shape
  /// finishes; `resume` replays intact records and fractures only the
  /// missing cells, converging byte-identically to an uninterrupted
  /// run. Empty = unjournaled.
  std::string journalPath;
  bool resume = false;
  JournalFsync fsync = JournalFsync::kNone;
  /// Worker shard: fracture only plan cells [cellBegin, cellEnd) and
  /// skip instantiation (the batch concatenates the shard's cell-local
  /// results; the supervising parent instantiates). Both -1 = full run.
  int cellBegin = -1;
  int cellEnd = -1;
};

struct HierarchicalResult {
  /// One entry per instantiated shape, in expansion (DFS) order,
  /// translated into top coordinates — the same list a flat run
  /// fractures, which is what lets --verify re-derive the layout.
  std::vector<LayoutShape> instanceShapes;
  /// Parallel to instanceShapes: per-instance solutions (shots in top
  /// coordinates) and reports, merged aggregates, and the refiner stats
  /// of the cells actually fractured this run.
  BatchResult batch;

  /// The resolved top structure name.
  std::string topStruct;

  /// Cells reachable from the top (including polygon-less wrappers).
  int reachableCells = 0;
  /// Distinct content keys that had to be fractured this run (cache
  /// misses + rejected entries; 0 on a fully warm run).
  int uniqueCellsFractured = 0;
  /// Shapes fractured this run (summed over fractured unique cells).
  int uniqueShapesFractured = 0;
  /// Failing pixels summed over unique fractures (each instance prints
  /// identically, so per-instance violations scale by instance count).
  std::int64_t uniqueFailingPixels = 0;
  /// Persistent-cache outcome counts (all zero when no cache dir, and
  /// zero in the supervised parent — workers own all cache I/O there).
  int cellCacheHits = 0;
  int cellCacheMisses = 0;
  int cellCacheRejected = 0;
  /// Quota-eviction candidates spared because a concurrently live
  /// process had noted the key (multi-process cache sharing).
  int cellCacheEvictionsSkippedLive = 0;
  /// Cache I/O failures and quota evictions this run (section 18: the
  /// cache degrades — a failure disables it with a counted warning and
  /// the run completes uncached).
  int cellCacheIoErrors = 0;
  int cellCacheEvicted = 0;
  bool cellCacheDisabled = false;
  /// First failure that disabled the cache, one line, for the warning.
  std::string cellCacheDisableCause;
  /// Cell placements materialised during expansion.
  std::int64_t instancesExpanded = 0;
  double wallSeconds = 0.0;
  /// Supervised runs only: trace spans harvested from worker span files
  /// (SupervisorConfig::collectTraceSpans), merged into --trace-json.
  std::vector<TraceSpan> workerSpans;

  std::int64_t instantiatedShapes() const {
    return static_cast<std::int64_t>(instanceShapes.size());
  }

  /// The flat-equivalent shot count a non-hierarchical flow would have
  /// produced (instancing repeats shots — the saving is in *fracture
  /// work*, not shot count). int64: shot counts at full-mask instance
  /// multiplicity overflow 32 bits.
  std::int64_t flatShotCount() const {
    std::int64_t n = 0;
    for (const Solution& sol : batch.solutions) {
      n += static_cast<std::int64_t>(sol.shots.size());
    }
    return n;
  }
};

/// Reconstructs the instantiated shape list (top coordinates, expansion
/// order) without fracturing anything — the layout a flat run over the
/// same GDS would see. Used by the --verify gate to re-derive a
/// hierarchical run's input. `resolvedTop`, when non-null, receives the
/// top structure name actually used. Errors match fractureGdsHierarchical
/// (unresolvable top, cycles, depth, out-of-range placements).
Status hierarchicalInstanceShapes(const GdsLibrary& lib,
                                  const std::string& topStruct,
                                  std::vector<LayoutShape>& out,
                                  std::string* resolvedTop = nullptr);

/// Fractures `lib` hierarchically from the resolved top: groups each
/// REACHABLE cell's polygons into shapes, dedupes cells by content key,
/// consults the persistent cache when options.cellCacheDir is set,
/// fractures all missing cells in one parallelFor batch (per-shape
/// budgets and degradation ladder apply per cell shape), and
/// expands instances by translating the cell-local solutions. Traversal
/// errors (no unique top, reference cycle, depth overflow, placement
/// outside int32) return a Status naming the cell chain; `out` then
/// holds whatever was computed and must not be shipped. Cache I/O
/// failures (prepare, load, store) never fail the run: the cache is
/// disabled for the remainder with a counted warning surfaced via the
/// cellCache* result fields (degrade, don't die — section 18).
Status fractureGdsHierarchical(const GdsLibrary& lib,
                               const BatchConfig& config,
                               const HierOptions& options,
                               HierarchicalResult& out,
                               RunCounters* countersOut = nullptr);

/// Supervised hierarchical fracturing (mbf_cli --hier --isolate): plans
/// the hierarchy, replays the parent cell journal when resuming, shards
/// the MISSING unique cells across --isolate worker processes via
/// mdp/supervisor (workers run the journaled hierarchical driver above
/// with --cell-range, sharing the watchdog/retry/bisect/ENOSPC-abort
/// ladder), validates every harvested CellRecord against the plan keys,
/// appends fresh records to the parent journal, then performs
/// instantiation and hole-filling in the parent. `interrupted`,
/// `abortCause` and `isolatedCells` (PLAN CELL indices, not shape
/// indices) mirror the flat supervised run's reporting. The returned
/// Status is only non-ok for supervisor-fatal conditions; per-cell
/// failures degrade records instead.
Status fractureGdsHierarchicalSupervised(
    const GdsLibrary& lib, const BatchConfig& config,
    const HierOptions& options, SupervisorConfig supervisor,
    HierarchicalResult& out, RunCounters& counters, bool& interrupted,
    std::string& abortCause, std::vector<int>& isolatedCells);

}  // namespace mbf
