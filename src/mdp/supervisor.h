// Supervised multi-process fracturing (mbf_cli --isolate). The
// supervisor shards ranges of plan units (mdp/hierarchy: one unit per
// shape of a flat layout, one per unique cell of a GDS hierarchy) across
// worker subprocesses — each worker is mbf_cli re-exec'd in a hidden
// worker mode that replans the same input and journals one CellRecord
// per completed unit of its range — and survives what no in-process
// ladder can: segfaults, OOM-kills and hard hangs of the fracture engine
// itself.
//
// State machine per range task:
//
//   queued -> running -> completed          (worker exit 0/1/4, range
//                                            fully journaled)
//                     -> progressed         (worker died mid-range; the
//                                            journaled prefix is kept and
//                                            the remainder is requeued)
//                     -> retried            (no progress; relaunch after
//                                            capped exponential backoff)
//                     -> bisected           (retries exhausted on a
//                                            multi-unit range: split in
//                                            half, recurse)
//                     -> isolated           (retries exhausted on a
//                                            single unit: the culprit is
//                                            re-fractured fallback-only,
//                                            degrading one unit instead
//                                            of poisoning the batch)
//
// A wall-clock watchdog SIGKILLs workers that exceed workerTimeoutMs
// (hard hangs never reach a cooperative checkpoint). Because workers
// journal as they go, every retry resumes instead of recomputing, and
// the records the supervisor harvests are bitwise identical to what a
// single-process run would have produced. A worker's only product is
// its sealed journal: it writes no output and touches no cell cache.
// The caller (the plan executor's --isolate miss step) owns the plan
// and the cache: it validates harvested records, stores clean cells,
// fills holes and instantiates.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mdp/checkpoint.h"
#include "support/status.h"

namespace mbf {

struct SupervisorConfig {
  /// The mbf_cli binary to re-exec as workers (see selfExePath()).
  std::string cliPath;
  /// Input layout file; workers re-read and replan it, so unit indices
  /// agree across every process by construction.
  std::string inputPath;
  /// Scratch directory for per-range journals, worker outputs and logs;
  /// created if missing.
  std::string workDir;
  /// Flags forwarded verbatim to every worker (--gamma=..., --inject=...
  /// and friends). The supervisor adds the worker-mode plumbing itself.
  std::vector<std::string> workerArgs;

  int jobs = 2;            ///< concurrent worker processes
  double workerTimeoutMs = 0.0;  ///< watchdog; 0 = no timeout
  int maxRetries = 2;      ///< relaunches of one range before bisection
  double backoffBaseMs = 50.0;
  double backoffCapMs = 2000.0;
  bool verbose = false;    ///< supervisor event log on stderr
  /// The [begin, end) unit ranges to fracture, chunked across workers:
  /// the units neither the parent's journal nor its cell cache supplied.
  std::vector<std::pair<int, int>> initialRanges;
};

struct SupervisorResult {
  /// Supervisor-level fatal error (worker binary unrunnable, worker
  /// rejected its arguments, scratch dir unwritable). Per-unit failures
  /// never land here — they become degraded records.
  Status status;
  /// Harvested records keyed by plan unit index. Holes (drained or
  /// aborted ranges, units whose fallback-only worker died too) are the
  /// CALLER's to fill — it owns the plan.
  std::map<int, CellRecord> cellRecords;
  /// Units whose fallback-only worker died as well, with why (the
  /// caller records each of their shapes as kExecFault).
  std::map<int, std::string> fallbackCrashes;
  RunCounters counters;
  /// Plan unit indices of crash-isolated culprits, ascending.
  std::vector<int> isolatedUnits;
  /// A SIGTERM/SIGINT graceful drain cut the run short: queued ranges
  /// were dropped and live workers were asked to drain.
  bool interrupted = false;
  /// Non-empty when the run was ABORTED rather than retried to
  /// completion: a worker hit a condition every future worker would hit
  /// identically (today: ENOSPC on the shared filer). No new workers
  /// were spawned and running ones were terminated. The caller gives
  /// every unjournaled shape a degraded record naming this cause and
  /// reports the partial result (exit 5) with this string in the
  /// manifest instead of burning the retry/bisect ladder against a full
  /// disk.
  std::string abortCause;
};

/// Runs the supervised ranges to completion. While tracing is enabled
/// (traceEnabled()), every worker also records trace spans into a
/// per-range span file (--trace-raw), merged into this process's
/// TraceRecorder at the end (each span keeps its worker's pid; a worker
/// that died before writing its file contributes nothing), so one
/// --trace-json timeline covers every process. Lifecycle events
/// (spawn/retry/bisect/isolate/watchdog kills) are recorded by the
/// supervisor itself.
SupervisorResult superviseFracture(const SupervisorConfig& config);

/// Absolute path of the running executable (/proc/self/exe), falling
/// back to `argv0` when the proc link is unreadable.
std::string selfExePath(const char* argv0);

}  // namespace mbf
