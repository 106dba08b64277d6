// Result-journal records (DESIGN.md sections 14 and 19). Every journaled
// run -- flat or hierarchical, single process or --isolate worker --
// executes a plan of units (mdp/hierarchy) and appends one CellRecord
// the moment a unit's last shape completes; `--resume` replays every
// intact record, fractures only the missing units, and converges
// byte-identically to an uninterrupted run (tested at 1/4/8 threads and
// against SIGKILL at every frame in tests/crash_drill_test.cpp and
// tests/hier_drill_test.cpp). A ShapeRecord is the per-shape payload
// inside a CellRecord and a cell-cache entry, never a journal frame of
// its own.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "mdp/layout.h"
#include "support/journal.h"
#include "support/status.h"

namespace mbf {

/// One shape's solution and report, addressed by its index inside the
/// enclosing CellRecord or cell-cache entry.
struct ShapeRecord {
  int shapeIndex = -1;
  Solution solution;
  ShapeReport report;
};

/// Binary little-endian serialization of a ShapeRecord. Doubles round
/// trip bit-for-bit (memcpy, no text formatting), which is what makes a
/// replayed shape byte-identical to a freshly fractured one. The Status
/// source location is not serialized (it is a pointer into the binary
/// that wrote the record); code, message, shapeIndex and byteOffset are.
std::string encodeShapeRecord(const ShapeRecord& record);
Status decodeShapeRecord(std::string_view bytes, ShapeRecord& out);

/// Manifest fingerprint of a run: shape count, index base, and an FNV-1a
/// hash over every ring vertex and the result-relevant FractureParams.
/// `mbf_cli --verify` recomputes it over the re-read input to prove the
/// audit compares against the right layout and parameters. (Builds
/// before the plan executor also used it as the header of flat
/// ShapeRecord journals; a resume refuses such a journal by this
/// "mbf-shape-journal" prefix.)
std::string journalMetaFor(const std::vector<LayoutShape>& shapes,
                           const BatchConfig& config);

/// The one journal record: a plan unit's complete fracture result,
/// addressed by its index in the plan (unique cells in first-visit order
/// for a GDS hierarchy, layout order for a flat layout) and stamped with
/// the unit's content key so replay can prove the record still
/// describes the unit it claims to. Instantiation re-stamps the report
/// statuses with flat layout indices.
struct CellRecord {
  int cellIndex = -1;
  std::string key;  ///< cellFractureKey of the cell's shapes + config
  std::vector<Solution> solutions;
  std::vector<ShapeReport> reports;
};

/// Binary serialization of a CellRecord: version byte 2, the unit index,
/// the key, then one nested ShapeRecord per shape. A ShapeRecord starts
/// with version byte 1, so neither decoder misreads the other's bytes.
std::string encodeCellRecord(const CellRecord& record);
Status decodeCellRecord(std::string_view bytes, CellRecord& out);

/// Header meta of a journal: unit count, the [begin, end) unit range
/// this journal covers (workers journal a shard; the parent journal
/// covers 0:n), the top structure (empty for a flat layout), and an
/// FNV-1a hash over the top name and every unit's content key in plan
/// order. The keys already commit to the geometry and the
/// result-relevant FractureParams, so a parameter or layout change
/// reshapes the fingerprint and a resume refuses the journal.
std::string cellJournalMetaFor(const std::string& topStruct,
                               const std::vector<std::string>& cellKeys,
                               int cellBegin, int cellEnd);

/// Crash-recovery bookkeeping surfaced in the mbf_cli degradation
/// report. The plan executor fills the first five; the supervisor
/// (mdp/supervisor) fills the rest.
struct RunCounters {
  int resumedShapes = 0;   ///< replayed from the journal, not recomputed
  int freshShapes = 0;     ///< fractured this run
  int resumedCells = 0;    ///< plan units replayed from the journal
  int freshCells = 0;      ///< plan units fractured this run
  bool tornTail = false;   ///< recovery truncated a partial record
  int retriedRanges = 0;   ///< worker ranges relaunched after a failure
  int bisectedRanges = 0;  ///< failing ranges split to localize a culprit
  int crashedWorkers = 0;  ///< abnormal worker exits (signal / bad code)
  int hungWorkers = 0;     ///< workers SIGKILLed by the watchdog
  int crashedShapes = 0;   ///< culprit shapes isolated by bisection
  /// Worker journals rejected (and re-run) because their bytes failed
  /// the SHA-256 seal the worker wrote at clean completion.
  int corruptJournals = 0;
  /// Orphaned `*.tmp.<pid>` files of dead writers removed by the
  /// stale-temp sweep (--resume and supervisor harvest).
  int staleTempsRemoved = 0;
  /// A journal append (or close under kEachRecord) failed mid-batch and
  /// the run completed unjournaled: every shape's result is in the
  /// output, but the journal on disk is not a faithful checkpoint and
  /// its seal was dropped. A later --resume recomputes what is missing.
  bool journalDowngraded = false;
};

}  // namespace mbf
