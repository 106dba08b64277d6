// Plans and the one plan executor. A run is a PLAN of units -- the
// unique cells of a GDS hierarchy, or one unit per shape of a flat
// layout -- executed in one pass: replay the journal, look up the cell
// cache, fracture the misses in one parallelFor (or in --isolate worker
// processes), then instantiate every unit at its placements.
// planInputFile is the one front end from an input file to a plan; the
// run and its --verify gate both go through it.
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
/// depth, out-of-range placements, AREF caps.
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
/// pair (the message lists them: one run fractures one mask layer).
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
  /// The run's hierarchy and cell-cache counters, as the manifest's
  /// "hier" block records them: reachable cells and placements walked
  /// (from the plan), unique cells and shapes fractured this run (cache
  /// misses + rejected entries; 0 on a fully warm run), and the
  /// persistent-cache outcomes (all zero without a cache dir, and in
  /// the supervised parent -- workers own all cache I/O there). The
  /// caller sets `enabled`, `topCell` and `cacheDir`.
  RunManifestInfo::HierInfo hier;
  /// First cache failure that disabled the cache, one line, for the
  /// warning (section 18: the cache degrades, the run completes).
  std::string cellCacheDisableCause;
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

/// Executes `plan`: replays options.journalPath when resuming (a journal
/// of another plan, or a per-shape journal of an older build, is refused
/// by name), consults the persistent cache when options.cellCacheDir is
/// set, fractures all missing cells' shapes in one parallelFor (each
/// shape under the flat index of its cell's first instance, so budgets,
/// degradation and fault injection address flat layout indices),
/// journals each cell as its last shape completes, seals the journal of
/// a complete run, stores clean cells in the cache, and instantiates
/// every placement. With options.cellBegin >= 0 only that cell range is
/// fractured and nothing is instantiated (worker shard: `out.batch`
/// concatenates the range's cell-local results). Cache I/O failures
/// never fail the run (the cache disables itself, counted in the
/// hier.cache* fields). A journal append or close failure downgrades the
/// run: every result is still in `out`, counters.journalDowngraded is
/// set, and the failure is returned.
Status executePlan(const HierPlan& plan, const BatchConfig& config,
                   const HierOptions& options, HierarchicalResult& out,
                   RunCounters* countersOut = nullptr);

/// The supervised twin of executePlan (mbf_cli --isolate): replays the
/// parent journal when resuming, shards the MISSING cells across worker
/// processes via mdp/supervisor (`supervisor.workerArgs` must make each
/// worker replan the identical plan; workers run executePlan over a
/// --cell-range and own all cell-cache I/O), validates every harvested
/// CellRecord against the plan keys, appends fresh records to the
/// parent journal, fills holes, and instantiates in the parent. A hole
/// whose fallback-only worker also died is degraded as kExecFault; the
/// rest are named after the abort cause, the graceful drain, or a
/// supervisor bug. `isolatedCells` receives the crash-isolated plan
/// cell indices (flat layout indices for a flat plan). Returns
/// supervisor-fatal errors, or the journal failure of a downgraded run.
Status executePlanSupervised(const HierPlan& plan, const BatchConfig& config,
                             const HierOptions& options,
                             SupervisorConfig supervisor,
                             HierarchicalResult& out, RunCounters& counters,
                             std::string& abortCause,
                             std::vector<int>& isolatedCells);

}  // namespace mbf
