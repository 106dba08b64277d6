// Plans and the one plan executor. A run is a PLAN of units -- the
// unique cells of a GDS hierarchy, or one unit per shape of a flat
// layout -- executed in one pass: replay the journal, look up the cell
// cache, fracture the misses, journal every installed unit, seal the
// journal, store clean cells and instantiate every unit at its
// placements. Only "fracture the misses" branches: one parallelFor in
// this process, or (--isolate) supervised worker processes whose sealed
// journals are harvested back into the same pass. planInputFile is the
// one front end from an input file to a plan; the run and its --verify
// gate both go through it.
//
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
// Flat and hierarchical plans are built from the same walk (expandGds:
// own polygons, then SREFs, then AREFs, row-major), so the hierarchical
// shape list lines up one-to-one with the flattened one whenever
// instances don't interleave ring containment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/gdsii.h"
#include "mdp/checkpoint.h"
#include "mdp/layout.h"
#include "mdp/supervisor.h"
#include "support/status.h"
#include "support/telemetry.h"

namespace mbf {

/// The deterministic skeleton of a run: units ("cells") in plan order —
/// the PLAN CELL INDEX every journal record, worker shard and supervisor
/// range refers to — plus every instance placement. Two processes
/// planning the same input under the same config produce identical
/// plans, which is what lets a worker shard cells by index and a resumed
/// run trust journaled indices.
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

/// Expands and dedupes the hierarchy without fracturing anything: unique
/// cells in first-visit (DFS) order. Errors: unresolvable top, cycles,
/// depth, out-of-range placements, AREF caps, a cell holding two
/// coincident rings (see groupRings).
Status planGdsHierarchy(const GdsLibrary& lib, const BatchConfig& config,
                        const std::string& topStruct, HierPlan& out);

/// A flat layout as a one-level plan: one cell per shape, in layout
/// order and WITHOUT content dedup, so plan cell i is flat shape i
/// (--inject=kind@i, reports and crash isolation address it directly).
/// Each cell has one instance at (0, 0); its key is
/// cellFractureKey({shape}, config). topStruct stays empty.
void planFlatLayout(std::vector<LayoutShape> shapes,
                    const BatchConfig& config, HierPlan& out);

/// True when `path` names a GDSII input (".gds"); anything else is read
/// as a .poly ring list.
bool isGdsPath(const std::string& path);

/// The one front end from an input file to a plan, shared by mbf_cli
/// and --verify. A .poly is read line-tolerantly (bad lines and rings
/// are skipped and summarized in `warning`; empty when the file parsed
/// cleanly) and planned flat. A .gds is walked once from `topCell`
/// (empty = auto-detected): planGdsHierarchy under `hier`, otherwise
/// planFlatLayout of the grouped, flattened rings. Refused, with a
/// one-line diagnostic naming the file as the message: an unreadable or
/// unparseable file; a defective hierarchy (unresolvable top, cycle,
/// depth, out-of-range placement, AREF cap); an input with no polygons;
/// a .gds whose reachable BOUNDARYs carry more than one layer/datatype
/// pair (the message lists them: one run fractures one mask layer); two
/// coincident rings (each contains the other) in the flat ring list or
/// in one --hier cell (the message names both ring indices).
Status planInputFile(const std::string& path, bool hier,
                     const std::string& topCell, const BatchConfig& config,
                     HierPlan& out, std::string& warning);

/// The plan's instantiated shape list: every instance's cell shapes
/// translated to its offset, in instance order -- the layout a flat run
/// over the same input fractures, one entry per result of executePlan.
std::vector<LayoutShape> planInstanceShapes(const HierPlan& plan);

/// Execution options of a plan.
struct HierOptions {
  /// Persistent cell-fracture cache directory; empty = in-memory
  /// dedupe only (each unique cell still fractures once per run).
  std::string cellCacheDir;
  /// Best-effort byte cap on the cache directory (0 = unlimited): after
  /// each store, least-recently-modified entries NOT touched by this
  /// run are evicted until under the cap (--cell-cache-quota-mb).
  std::int64_t cellCacheQuotaBytes = 0;
  /// Result journal (DESIGN.md sections 14 and 19): every completed
  /// plan cell appends one CellRecord the moment its last shape
  /// finishes; `resume` replays intact records and fractures only the
  /// missing cells, converging byte-identically to an uninterrupted
  /// run. Empty = unjournaled.
  std::string journalPath;
  bool resume = false;
  JournalFsync fsync = JournalFsync::kNone;
  /// Worker shard: execute only plan cells [cellBegin, cellEnd) and
  /// skip instantiation -- the shard's product is its sealed journal,
  /// which the supervising parent harvests. Both -1 = full run.
  int cellBegin = -1;
  int cellEnd = -1;
  /// --isolate: fracture the misses in supervised worker processes
  /// (mdp/supervisor) instead of this process's parallelFor. The
  /// executor fills in initialRanges (the contiguous runs of cells
  /// neither the journal nor the cache supplied); the worker arguments
  /// must make every worker replan the identical plan.
  std::optional<SupervisorConfig> isolate;
};

struct HierarchicalResult {
  /// One entry per instantiated shape, in expansion (DFS) order,
  /// translated into top coordinates — the same list a flat run
  /// fractures, which is what lets --verify re-derive the layout.
  std::vector<LayoutShape> instanceShapes;
  /// Parallel to instanceShapes: per-instance solutions (shots in top
  /// coordinates) and reports, merged aggregates, and the refiner stats
  /// of the cells this process fractured (none under --isolate).
  BatchResult batch;

  /// The resolved top structure name.
  std::string topStruct;
  /// The run's hierarchy and cell-cache counters, as the manifest's
  /// "hier" block records them: reachable cells and placements walked
  /// (from the plan), unique cells and shapes fractured this run (cache
  /// misses + rejected entries; 0 on a fully warm run), and the
  /// persistent-cache lookups and stores, which this process makes in
  /// every mode (all zero without a cache dir). The caller sets
  /// `enabled`, `topCell` and `cacheDir`.
  RunManifestInfo::HierInfo hier;
  /// First cache failure that disabled the cache, one line, for the
  /// warning (section 18: the cache degrades, the run completes).
  std::string cellCacheDisableCause;
  /// --isolate only: non-empty when the supervisor aborted the run (a
  /// worker hit ENOSPC); every cell no worker journaled is degraded
  /// with this cause.
  std::string abortCause;
  /// --isolate only: the crash-isolated plan cell indices, ascending
  /// (flat layout indices for a flat plan).
  std::vector<int> isolatedCells;

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

/// Executes `plan`: replays options.journalPath when resuming (a journal
/// of another plan, or a per-shape journal of an older build, is refused
/// by name), looks up the cell cache, fractures the misses, journals
/// every installed cell (a fractured one as its last shape completes),
/// seals a complete run's journal, stores clean fractured cells and
/// instantiates every placement. The misses fracture in one parallelFor
/// (each shape under the flat index of its cell's first instance, so
/// budgets, degradation and fault injection address flat layout
/// indices) or, under options.isolate, in supervised workers whose
/// harvested records are validated against the plan keys; a cell no
/// worker delivered is hole-filled with a degraded or interrupted
/// record naming why. With options.cellBegin >= 0 only that cell range
/// is executed and nothing is instantiated (worker shard). Cache I/O
/// failures never fail the run (the cache disables itself, counted in
/// the hier.cache* fields). Returns supervisor-fatal errors; a journal
/// append or close failure downgrades the run: every result is still in
/// `out`, counters.journalDowngraded is set, and the failure is
/// returned.
Status executePlan(const HierPlan& plan, const BatchConfig& config,
                   const HierOptions& options, HierarchicalResult& out,
                   RunCounters* countersOut = nullptr);

}  // namespace mbf
