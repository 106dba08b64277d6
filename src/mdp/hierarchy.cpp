#include "mdp/hierarchy.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "io/atomic_file.h"
#include "io/poly_io.h"
#include "mdp/cell_cache.h"
#include "parallel/parallel_for.h"
#include "support/sysio.h"

namespace mbf {
namespace {

LayoutShape translatedShape(const LayoutShape& shape, Point offset) {
  LayoutShape t = shape;
  for (Polygon& ring : t.rings) ring.translate(offset);
  return t;
}

/// Fallback-config content key of plan cell `i`, computed lazily and
/// cached (only replays of a --degrade-only worker's records need one:
/// such workers journal under a fallbackOnly=true key, which the parent
/// — planning with fallbackOnly=false — must still accept as this
/// cell's result).
const std::string& fallbackKeyFor(const HierPlan& plan,
                                  const BatchConfig& config, int i,
                                  std::vector<std::string>& cache) {
  if (cache.empty()) cache.resize(plan.cells.size());
  std::string& slot = cache[static_cast<std::size_t>(i)];
  if (slot.empty()) {
    BatchConfig fallback = config;
    fallback.fallbackOnly = true;
    slot = cellFractureKey(plan.cells[static_cast<std::size_t>(i)].shapes,
                           fallback);
  }
  return slot;
}

/// A journaled CellRecord is only installed if it provably describes
/// the plan cell it claims: in-range index, the cell's content key
/// (primary or fallback-only), and one solution per cell shape.
Status validateCellRecord(const HierPlan& plan, const BatchConfig& config,
                          const CellRecord& record,
                          std::vector<std::string>& fallbackKeys) {
  if (record.cellIndex < 0 ||
      record.cellIndex >= static_cast<int>(plan.cells.size())) {
    return Status(StatusCode::kInvalidArgument,
                  "journal cell record for cell " +
                      std::to_string(record.cellIndex) +
                      " is outside this plan's " +
                      std::to_string(plan.cells.size()) + " unique cells");
  }
  const HierPlan::Cell& cell =
      plan.cells[static_cast<std::size_t>(record.cellIndex)];
  if (record.key != cell.key &&
      record.key != fallbackKeyFor(plan, config, record.cellIndex,
                                   fallbackKeys)) {
    return Status(StatusCode::kInvalidArgument,
                  "journal cell record for cell " +
                      std::to_string(record.cellIndex) +
                      " carries key " + record.key +
                      " but the plan expects " + cell.key);
  }
  if (record.solutions.size() != cell.shapes.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "journal cell record for cell " +
                      std::to_string(record.cellIndex) + " has " +
                      std::to_string(record.solutions.size()) +
                      " solutions but the cell has " +
                      std::to_string(cell.shapes.size()) + " shapes");
  }
  return {};
}

/// Expands the plan: translates each instance's cell-local shapes and
/// solutions into top coordinates in DFS order — the order a flat run
/// sees — re-stamping non-ok statuses with the global instance index,
/// then recomputes the batch aggregates. (mergeBatchAggregates resets
/// refinerStats; callers restore the stats of what THEY fractured.)
void instantiatePlan(const HierPlan& plan,
                     const std::vector<CellFracture>& fractures,
                     HierarchicalResult& out) {
  out.instanceShapes = planInstanceShapes(plan);
  for (const HierPlan::Instance& inst : plan.instances) {
    const HierPlan::Cell& cell =
        plan.cells[static_cast<std::size_t>(inst.cell)];
    const CellFracture& fracture =
        fractures[static_cast<std::size_t>(inst.cell)];
    for (std::size_t i = 0; i < cell.shapes.size(); ++i) {
      Solution sol =
          fracture.solutions.size() > i ? fracture.solutions[i] : Solution{};
      for (Rect& shot : sol.shots) shot = shot.translated(inst.offset);
      ShapeReport report =
          fracture.reports.size() > i ? fracture.reports[i] : ShapeReport{};
      if (!report.status.ok()) {
        // Cell-local batch indices mean nothing in the expanded layout;
        // re-stamp with the instance shape's global index.
        report.status.withShape(static_cast<int>(out.batch.solutions.size()));
      }
      out.batch.solutions.push_back(std::move(sol));
      out.batch.reports.push_back(std::move(report));
    }
  }
  mergeBatchAggregates(out.batch, {});
}

/// What a run knows per plan cell: its result and whether it is final.
struct PlanProgress {
  explicit PlanProgress(const HierPlan& plan)
      : fractures(plan.cells.size()), done(plan.cells.size(), 0) {}
  std::vector<CellFracture> fractures;
  std::vector<char> done;
  std::vector<std::string> fallbackKeys;  ///< see fallbackKeyFor
};

/// Creates the plan journal covering cells [begin, end), or on resume
/// opens it and installs every replayed record into `progress`.
/// Records address cells by plan index; duplicates keep the first copy
/// — both are results of the same deterministic computation. CRC
/// framing already passed; a record that then fails decoding or plan
/// validation is not ours and fails the resume.
Status openPlanJournal(const HierPlan& plan, const BatchConfig& config,
                       const HierOptions& options, int begin, int end,
                       JournalWriter& journal, PlanProgress& progress,
                       RunCounters& counters) {
  std::vector<std::string> keys;
  keys.reserve(plan.cells.size());
  for (const HierPlan::Cell& cell : plan.cells) keys.push_back(cell.key);
  const std::string meta =
      cellJournalMetaFor(plan.topStruct, keys, begin, end);
  if (!options.resume) {
    return journal.create(options.journalPath, meta, options.fsync);
  }
  std::vector<std::string> replayed;
  JournalRecoveryStats rstats;
  Status status = journal.openForAppend(options.journalPath, meta,
                                        options.fsync, replayed, &rstats);
  counters.tornTail = rstats.tornTail;
  if (status.code() == StatusCode::kInvalidArgument) {
    // Name the one foreign journal an operator is likely to hold: a
    // flat run of an older build journaled per-shape frames under a
    // journalMetaFor header. Journals are run-scoped, never migrated.
    std::string storedMeta;
    std::vector<std::string> ignored;
    if (recoverJournal(options.journalPath, storedMeta, ignored).ok() &&
        storedMeta.rfind("mbf-shape-journal", 0) == 0) {
      return Status(StatusCode::kUnsupported,
                    "journal '" + options.journalPath +
                        "' is an older build's per-shape (ShapeRecord) "
                        "journal; journals are run-scoped, not archival: "
                        "delete it and rerun");
    }
  }
  if (!status.ok()) return status;
  for (const std::string& bytes : replayed) {
    CellRecord record;
    Status dec = decodeCellRecord(bytes, record);
    if (!dec.ok()) return dec;
    Status valid =
        validateCellRecord(plan, config, record, progress.fallbackKeys);
    if (!valid.ok()) return valid;
    const auto c = static_cast<std::size_t>(record.cellIndex);
    if (progress.done[c] != 0) continue;
    progress.fractures[c].solutions = std::move(record.solutions);
    progress.fractures[c].reports = std::move(record.reports);
    progress.done[c] = 1;
    ++counters.resumedCells;
    counters.resumedShapes += static_cast<int>(plan.cells[c].shapes.size());
  }
  return {};
}

/// Closes the journal — a failed ::close() under kEachRecord can mean
/// the last records never became durable, so it joins `appendError` —
/// then seals a complete, undowngraded journal with its SHA-256 sidecar
/// (what the supervisor and --verify trust) or drops any stale seal so
/// nothing ever trusts an incomplete journal as a finished run. Returns
/// only a failure to write the seal.
Status closePlanJournal(JournalWriter& journal, const std::string& path,
                        bool complete, Status& appendError) {
  Status closed = journal.closeChecked();
  if (!closed.ok() && appendError.ok()) appendError = closed;
  if (appendError.ok() && complete) {
    std::string hexDigest;
    Status sealed = sha256File(path, hexDigest);
    if (sealed.ok()) sealed = writeHashSidecar(path, hexDigest);
    return sealed;
  }
  sysio::unlink(sidecarPathFor(path).c_str());
  return {};
}

/// Journals plan cell `cellIdx`'s installed result under `key`.
using JournalCellFn = std::function<void(int cellIdx, const std::string& key)>;

/// In-process miss step: every missing cell's shapes as ONE parallelFor
/// batch. Each shape is fractured under the flat index its cell's FIRST
/// instance gives it — the index budgets, degradation reports and fault
/// injection address. A cell is journaled the moment its LAST shape
/// completes; interrupted cells are never journaled — a later resume
/// re-fractures them instead of replaying unfinished work. Every missing
/// cell ends installed; returns whether any shape was interrupted.
bool fractureInProcess(const HierPlan& plan, const BatchConfig& config,
                       const std::vector<int>& missCells,
                       PlanProgress& progress,
                       const JournalCellFn& journalCell,
                       std::vector<RefinerStats>& shapeStats) {
  const std::size_t numCells = plan.cells.size();
  std::vector<int> firstIndex(numCells, -1);
  int flatIndex = 0;
  for (const HierPlan::Instance& inst : plan.instances) {
    const auto c = static_cast<std::size_t>(inst.cell);
    if (firstIndex[c] < 0) firstIndex[c] = flatIndex;
    flatIndex += static_cast<int>(plan.cells[c].shapes.size());
  }

  std::vector<CellFracture>& fractures = progress.fractures;
  std::vector<std::pair<int, int>> missSlot;  // (cell, cell-local shape)
  std::vector<std::atomic<int>> cellRemaining(numCells);
  std::vector<std::atomic<bool>> cellInterrupted(numCells);
  for (const int cellIdx : missCells) {
    const auto c = static_cast<std::size_t>(cellIdx);
    const std::size_t n = plan.cells[c].shapes.size();
    fractures[c].solutions.resize(n);
    fractures[c].reports.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      missSlot.emplace_back(cellIdx, static_cast<int>(i));
    }
    cellRemaining[c].store(static_cast<int>(n), std::memory_order_relaxed);
    cellInterrupted[c].store(false, std::memory_order_relaxed);
  }
  shapeStats.assign(missSlot.size(), RefinerStats{});
  parallelFor(0, static_cast<int>(missSlot.size()), config.threads, 1,
              [&](int k) {
    const auto s = static_cast<std::size_t>(k);
    const int cellIdx = missSlot[s].first;
    const auto c = static_cast<std::size_t>(cellIdx);
    const int local = missSlot[s].second;
    ShapeOutcome outcome = fractureShapeGuarded(
        plan.cells[c].shapes[static_cast<std::size_t>(local)], config.params,
        config.method, firstIndex[c] + local, config.allowDegradation,
        &shapeStats[s], config.fallbackOnly);
    if (outcome.interrupted) {
      cellInterrupted[c].store(true, std::memory_order_relaxed);
    }
    fractures[c].solutions[static_cast<std::size_t>(local)] =
        std::move(outcome.solution);
    fractures[c].reports[static_cast<std::size_t>(local)] = {
        std::move(outcome.status), outcome.degraded, outcome.interrupted};
    // acq_rel: the thread finishing the cell's last shape observes
    // every sibling slot written before their decrements.
    if (cellRemaining[c].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        !cellInterrupted[c].load(std::memory_order_relaxed)) {
      journalCell(cellIdx, plan.cells[c].key);
    }
  });

  bool anyInterrupted = false;
  for (const int cellIdx : missCells) {
    const auto c = static_cast<std::size_t>(cellIdx);
    progress.done[c] = 1;
    if (cellInterrupted[c].load(std::memory_order_relaxed)) {
      anyInterrupted = true;
    }
  }
  return anyInterrupted;
}

/// Gives every missing cell no worker journaled a result naming why, so
/// every INSTANCE still gets a record: a culprit whose fallback-only
/// worker died too, the abort cause, the graceful drain, or a supervisor
/// bug. Hole-filled cells stay not done: never journaled, sealed or
/// cached.
void fillHoles(const HierPlan& plan, const std::vector<int>& missCells,
               const SupervisorResult& sres, PlanProgress& progress) {
  for (const int cellIdx : missCells) {
    const auto c = static_cast<std::size_t>(cellIdx);
    if (progress.done[c] != 0) continue;
    const auto crash = sres.fallbackCrashes.find(cellIdx);
    ShapeReport report;
    if (crash != sres.fallbackCrashes.end()) {
      report.status = Status(StatusCode::kExecFault,
                             "worker crashed even in fallback-only mode (" +
                                 crash->second + ")");
    } else if (!sres.abortCause.empty()) {
      report.status = Status(
          StatusCode::kResourceExhausted,
          "run aborted before any worker fractured this shape (" +
              sres.abortCause + ")");
    } else if (sres.interrupted) {
      report.interrupted = true;
      report.status = Status(
          StatusCode::kBudgetExceeded,
          "interrupted before any worker fractured this shape (graceful "
          "drain); resume the run to finish it");
    } else {
      report.status = Status(StatusCode::kInternal,
                             "shape was never journaled by any worker");
    }
    report.degraded = !report.interrupted;
    Solution sol;
    sol.method = "empty";
    sol.degraded = report.degraded;
    const std::size_t n = plan.cells[c].shapes.size();
    progress.fractures[c].solutions.assign(n, sol);
    progress.fractures[c].reports.assign(n, report);
  }
}

/// Supervised miss step (--isolate): the contiguous runs of missing
/// cells become the supervised ranges. Every harvested record that
/// provably matches the plan (primary or fallback-only key, right shape
/// count) is installed and journaled in plan order, so a later resume
/// needs only the parent journal; an invalid one is dropped and its
/// cell hole-filled. Returns supervisor-fatal errors.
Status fractureSupervised(const HierPlan& plan, const BatchConfig& config,
                          SupervisorConfig supervisor,
                          const std::vector<int>& missCells,
                          PlanProgress& progress,
                          const JournalCellFn& journalCell,
                          RunCounters& counters, HierarchicalResult& out,
                          bool& interrupted) {
  if (missCells.empty()) return {};
  supervisor.initialRanges.clear();
  for (const int cellIdx : missCells) {
    if (!supervisor.initialRanges.empty() &&
        supervisor.initialRanges.back().second == cellIdx) {
      ++supervisor.initialRanges.back().second;
    } else {
      supervisor.initialRanges.emplace_back(cellIdx, cellIdx + 1);
    }
  }
  SupervisorResult sres = superviseFracture(supervisor);
  if (!sres.status.ok()) return sres.status;
  counters.retriedRanges = sres.counters.retriedRanges;
  counters.bisectedRanges = sres.counters.bisectedRanges;
  counters.crashedWorkers = sres.counters.crashedWorkers;
  counters.hungWorkers = sres.counters.hungWorkers;
  counters.crashedShapes = sres.counters.crashedShapes;
  counters.corruptJournals = sres.counters.corruptJournals;
  counters.staleTempsRemoved = sres.counters.staleTempsRemoved;
  interrupted = sres.interrupted;
  out.abortCause = sres.abortCause;
  out.isolatedCells = sres.isolatedUnits;

  for (auto& [cellIdx, record] : sres.cellRecords) {
    const auto c = static_cast<std::size_t>(cellIdx);
    if (!validateCellRecord(plan, config, record, progress.fallbackKeys)
             .ok() ||
        progress.done[c] != 0) {
      continue;
    }
    progress.fractures[c].solutions = std::move(record.solutions);
    progress.fractures[c].reports = std::move(record.reports);
    progress.done[c] = 1;
    journalCell(cellIdx, record.key);
  }
  fillHoles(plan, missCells, sres, progress);
  return {};
}

/// The refusal of two coincident rings; `where` names the ring list.
Status coincidentRings(std::pair<int, int> pair, const std::string& where) {
  return Status(StatusCode::kInvalidArgument,
                "rings " + std::to_string(pair.first) + " and " +
                    std::to_string(pair.second) + " of " + where +
                    " coincide (each contains the other): remove the "
                    "duplicate ring");
}

/// One plan cell per CONTENT key, in first-visit order: two GDS cells
/// with identical geometry (under identical parameters) share one
/// fracture, one cache slot and one plan index. Refuses a cell holding
/// two coincident rings.
Status planExpansion(const GdsExpansion& expansion, const BatchConfig& config,
                     HierPlan& out) {
  out = HierPlan{};
  out.topStruct = expansion.top;
  out.reachableCells = static_cast<int>(expansion.reachable.size());
  out.instancesExpanded = expansion.visits;
  std::unordered_map<const GdsStructure*, int> cellToEntry;
  std::unordered_map<std::string, int> keyToEntry;
  for (const GdsInstance& inst : expansion.instances) {
    auto it = cellToEntry.find(inst.structure);
    if (it == cellToEntry.end()) {
      std::vector<Polygon> rings;
      rings.reserve(inst.structure->polygons.size());
      for (const GdsPolygon& gp : inst.structure->polygons) {
        rings.push_back(gp.polygon);
      }
      std::pair<int, int> coincident;
      std::vector<LayoutShape> shapes =
          groupRings(std::move(rings), &coincident);
      if (coincident.first >= 0) {
        return coincidentRings(coincident,
                               "cell '" + inst.structure->name + "'");
      }
      std::string key = cellFractureKey(shapes, config);
      const auto known = keyToEntry.find(key);
      int index;
      if (known != keyToEntry.end()) {
        index = known->second;
      } else {
        index = static_cast<int>(out.cells.size());
        out.cells.push_back(HierPlan::Cell{std::move(shapes),
                                           std::move(key)});
        keyToEntry.emplace(out.cells.back().key, index);
      }
      it = cellToEntry.emplace(inst.structure, index).first;
    }
    out.instances.push_back(HierPlan::Instance{it->second, inst.offset});
  }
  return {};
}

/// An input refusal: the one-line diagnostic is the whole message (the
/// cause's code and byte offset carry over).
Status inputError(const Status& cause, const std::string& message) {
  return Status(cause.code(), message).withOffset(cause.byteOffset());
}

}  // namespace

Status planGdsHierarchy(const GdsLibrary& lib, const BatchConfig& config,
                        const std::string& topStruct, HierPlan& out) {
  out = HierPlan{};
  GdsExpansion expansion;
  Status status = expandGds(lib, topStruct, expansion);
  if (status.ok()) status = planExpansion(expansion, config, out);
  return status;
}

void planFlatLayout(std::vector<LayoutShape> shapes,
                    const BatchConfig& config, HierPlan& out) {
  out = HierPlan{};
  out.instancesExpanded = static_cast<std::int64_t>(shapes.size());
  out.cells.reserve(shapes.size());
  out.instances.reserve(shapes.size());
  for (LayoutShape& shape : shapes) {
    std::vector<LayoutShape> unit;
    unit.push_back(std::move(shape));
    std::string key = cellFractureKey(unit, config);
    out.instances.push_back(
        HierPlan::Instance{static_cast<int>(out.cells.size()), Point{0, 0}});
    out.cells.push_back(HierPlan::Cell{std::move(unit), std::move(key)});
  }
}

bool isGdsPath(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".gds") == 0;
}

Status planInputFile(const std::string& path, bool hier,
                     const std::string& topCell, const BatchConfig& config,
                     HierPlan& out, std::string& warning) {
  out = HierPlan{};
  warning.clear();
  const Status noPolygons(StatusCode::kInvalidArgument,
                          "no polygons in " + path);
  std::vector<Polygon> rings;  // the flat layout's rings
  if (!isGdsPath(path)) {
    PolyReadStats stats;
    const Status st = parsePolygonsFile(path, rings, &stats);
    if (!st.ok()) {
      if (rings.empty()) {
        return inputError(st, "cannot parse " + path + ": " + st.str());
      }
      // Line-tolerant parse: the polygons that survived are the layout.
      warning = path + ": " + st.str() + " (" +
                std::to_string(stats.badLines) + " bad line(s), " +
                std::to_string(stats.skippedRings) + " skipped ring(s))";
    }
  } else {
    GdsLibrary lib;
    Status st = parseGdsFile(path, lib);
    if (!st.ok()) {
      return inputError(st, "cannot parse GDSII " + path + ": " + st.str());
    }
    GdsExpansion expansion;
    st = expandGds(lib, topCell, expansion);
    if (!st.ok()) {
      return inputError(st, hier ? "hier: " + st.str()
                                 : "cannot flatten GDSII " + path + ": " +
                                       st.str());
    }
    if (expansion.instances.empty()) return noPolygons;
    // One run fractures one mask layer: parseGds keeps LAYER/DATATYPE,
    // and a file mixing several would be fractured as one merged mask.
    std::set<std::pair<int, int>> layers;
    for (const GdsStructure* s : expansion.reachable) {
      for (const GdsPolygon& gp : s->polygons) {
        layers.emplace(gp.layer, gp.datatype);
      }
    }
    if (layers.size() > 1) {
      std::string list;
      for (const auto& [layer, datatype] : layers) {
        if (!list.empty()) list += ", ";
        list += std::to_string(layer) + "/" + std::to_string(datatype);
      }
      return Status(StatusCode::kUnsupported,
                    path + " mixes " + std::to_string(layers.size()) +
                        " layer/datatype pairs (" + list +
                        ") in the polygons reachable from '" +
                        expansion.top +
                        "'; one run fractures one mask layer: split the "
                        "file by layer");
    }
    if (hier) {
      st = planExpansion(expansion, config, out);
      return st.ok() ? st
                     : inputError(st, "hier: " + path + ": " + st.message());
    }
    for (GdsPolygon& gp : expansion.flattened()) {
      rings.push_back(std::move(gp.polygon));
    }
  }
  if (rings.empty()) return noPolygons;
  std::pair<int, int> coincident;
  std::vector<LayoutShape> shapes = groupRings(std::move(rings), &coincident);
  if (coincident.first >= 0) return coincidentRings(coincident, path);
  planFlatLayout(std::move(shapes), config, out);
  return {};
}

std::vector<LayoutShape> planInstanceShapes(const HierPlan& plan) {
  std::vector<LayoutShape> out;
  for (const HierPlan::Instance& inst : plan.instances) {
    for (const LayoutShape& shape :
         plan.cells[static_cast<std::size_t>(inst.cell)].shapes) {
      out.push_back(translatedShape(shape, inst.offset));
    }
  }
  return out;
}

Status executePlan(const HierPlan& plan, const BatchConfig& config,
                   const HierOptions& options, HierarchicalResult& out,
                   RunCounters* countersOut) {
  const auto start = std::chrono::steady_clock::now();
  out = HierarchicalResult{};
  out.topStruct = plan.topStruct;
  out.hier.reachableCells = plan.reachableCells;
  out.hier.instancesExpanded = plan.instancesExpanded;
  RunCounters counters;

  const int numCells = static_cast<int>(plan.cells.size());
  const bool workerShard = options.cellBegin >= 0;
  const int shardBegin = workerShard ? options.cellBegin : 0;
  const int shardEnd = workerShard ? options.cellEnd : numCells;
  if (workerShard &&
      (shardBegin > shardEnd || shardEnd > numCells)) {
    return Status(StatusCode::kInvalidArgument,
                  "cell range " + std::to_string(shardBegin) + ":" +
                      std::to_string(shardEnd) + " is outside the plan's " +
                      std::to_string(numCells) + " cells");
  }

  PlanProgress progress(plan);
  const bool journaled = !options.journalPath.empty();
  JournalWriter journal;
  if (journaled) {
    // Open/replay before any fracturing, so a resumed run knows which
    // cells are already finished work.
    Status status = openPlanJournal(plan, config, options, shardBegin,
                                    shardEnd, journal, progress, counters);
    if (!status.ok()) return status;
  }
  std::vector<CellFracture>& fractures = progress.fractures;
  std::vector<char>& done = progress.done;

  // Journal appends come from the coordinating thread (cache hits,
  // harvested worker records) AND from helper threads (the last shape
  // of a fracturing cell); append() itself is thread-safe. Degrade,
  // don't die: the first failed append downgrades the run to
  // unjournaled completion — remaining cells still fracture and ship, we
  // just stop issuing appends a full filer would fail one by one.
  std::mutex appendErrorMutex;
  Status appendError;
  std::atomic<bool> journalBroken{false};
  auto journalCell = [&](int cellIdx, const std::string& key) {
    if (!journaled || journalBroken.load(std::memory_order_relaxed)) return;
    const auto c = static_cast<std::size_t>(cellIdx);
    CellRecord record;
    record.cellIndex = cellIdx;
    record.key = key;
    record.solutions = fractures[c].solutions;
    record.reports = fractures[c].reports;
    const Status appended = journal.append(encodeCellRecord(record));
    if (!appended.ok()) {
      journalBroken.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(appendErrorMutex);
      if (appendError.ok()) appendError = appended;
    }
  };

  // Persistent-cache lookups (hits fill their cell directly). A
  // journaled cache hit is appended like a fractured cell: the journal
  // must be self-contained — a resume replays it without consulting the
  // cache.
  CellFractureCache cache(options.cellCacheDir);
  const bool useCache = !options.cellCacheDir.empty();
  if (useCache) {
    // Degrade, don't die: an uncreatable cache directory (read-only
    // filer, quota) costs cross-run reuse, never the run itself. Every
    // lookup below reads as a miss and every cell fractures fresh.
    Status prep = cache.prepare();
    if (!prep.ok()) cache.disable(prep);
    cache.setQuotaBytes(options.cellCacheQuotaBytes);
  }
  std::vector<int> missCells;
  for (int i = shardBegin; i < shardEnd; ++i) {
    const auto c = static_cast<std::size_t>(i);
    if (done[c] != 0) continue;
    if (useCache &&
        cache.load(plan.cells[c].key, fractures[c]) ==
            CellFractureCache::Lookup::kHit) {
      done[c] = 1;
      journalCell(i, plan.cells[c].key);
      continue;
    }
    missCells.push_back(i);
  }

  // Fracture the misses: the only step that differs between modes.
  bool interrupted = false;
  std::vector<RefinerStats> shapeStats;
  if (options.isolate.has_value()) {
    const Status status =
        fractureSupervised(plan, config, *options.isolate, missCells,
                           progress, journalCell, counters, out, interrupted);
    if (!status.ok()) return status;
  } else {
    interrupted = fractureInProcess(plan, config, missCells, progress,
                                    journalCell, shapeStats);
  }

  bool complete = !interrupted && out.abortCause.empty();
  for (int i = shardBegin; i < shardEnd; ++i) {
    if (done[static_cast<std::size_t>(i)] == 0) complete = false;
  }
  if (journaled) {
    Status sealed =
        closePlanJournal(journal, options.journalPath, complete, appendError);
    counters.journalDowngraded = !appendError.ok();
    if (!sealed.ok()) return sealed;
  }

  std::vector<int> freshCells;
  for (const int cellIdx : missCells) {
    const auto c = static_cast<std::size_t>(cellIdx);
    if (done[c] == 0) continue;
    freshCells.push_back(cellIdx);
    counters.freshShapes += static_cast<int>(plan.cells[c].shapes.size());
  }
  counters.freshCells = static_cast<int>(freshCells.size());
  out.hier.uniqueCellsFractured = counters.freshCells;
  out.hier.uniqueShapesFractured = counters.freshShapes;
  if (useCache) {
    out.hier.cacheHits = cache.stats().hits;
    out.hier.cacheMisses = cache.stats().misses;
    out.hier.cacheRejected = cache.stats().rejected;
  } else {
    out.hier.cacheMisses = static_cast<int>(missCells.size());
  }

  // Store freshly fractured cells — but only CLEAN ones. A degraded or
  // interrupted result is wall-clock dependent (time budgets) or
  // unfinished; replaying it from the cache would freeze an accident of
  // this run's scheduling into every future run. A store failure
  // disables the cache (inside store()) and is NOT a run failure: the
  // results being stored are already in memory and ship below.
  if (useCache) {
    for (const int cellIdx : freshCells) {
      const CellFracture& fracture =
          fractures[static_cast<std::size_t>(cellIdx)];
      bool clean = true;
      for (const ShapeReport& report : fracture.reports) {
        if (!report.status.ok() || report.degraded || report.interrupted) {
          clean = false;
          break;
        }
      }
      if (!clean) continue;
      (void)cache.store(plan.cells[static_cast<std::size_t>(cellIdx)].key,
                        fracture);
      if (cache.disabled()) break;  // further stores are no-ops anyway
    }
    out.hier.cacheIoErrors = cache.stats().ioErrors;
    out.hier.cacheEvicted = cache.stats().evicted;
    out.hier.cacheEvictionsSkippedLive = cache.stats().evictionsSkippedLive;
    out.hier.cacheDisabled = cache.disabled();
    if (cache.disabled()) {
      out.cellCacheDisableCause = cache.disableCause().str();
    }
  }

  // A worker shard stops here: its product is the sealed journal, and
  // the supervising parent instantiates.
  if (!workerShard) instantiatePlan(plan, fractures, out);
  // mergeBatchAggregates resets refinerStats (per-instance stats don't
  // exist); the run's true profiling is what THIS process fractured.
  RefinerStats fresh{};
  for (const RefinerStats& st : shapeStats) fresh += st;
  out.batch.refinerStats = fresh;
  out.batch.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (countersOut != nullptr) *countersOut = counters;

  // An append failure does not invalidate the in-memory batch, but the
  // journal is no longer a faithful checkpoint — surface it. Callers
  // read countersOut->journalDowngraded to keep the completed work.
  return appendError;
}

}  // namespace mbf
