// Persistent, content-addressed cell-fracture cache (DESIGN.md section
// 17). A hierarchical run fractures each UNIQUE cell once; this cache
// extends that leverage across runs: a cell's fracture result is stored
// on disk under a SHA-256 key over its normalized cell-local geometry
// plus the result-relevant fracture configuration, so a warm re-run (or
// a run on a revision touching a few cells) fractures only cache
// misses.
//
// Integrity: every cache artifact is written with the atomic-write
// protocol (io/atomic_file) and carries a `.sha256` sidecar. A lookup
// first verifies the sidecar, then checks the embedded key; any
// mismatch — bit rot, a tampered byte, a truncation, a hash collision
// in the file name — REJECTS the entry (counted separately from a plain
// miss) and the caller re-fractures and overwrites. A cached result is
// never trusted on file-name match alone.
//
// Determinism: solutions round trip bit-exactly (the cache reuses the
// journal's binary ShapeRecord encoding — memcpy'd doubles, no text
// formatting), so a warm run's output is byte-identical to the cold
// run that populated the cache. The one exception is deliberate:
// Solution::runtimeSeconds — the only wall-clock field — is stored as
// 0.0, making an entry's bytes a pure function of its key. A replayed
// runtime would be a lie anyway (no fracture happened this run), and
// canonical bytes are what make concurrent publication races benign
// (below). The key deliberately EXCLUDES the
// thread counts (results are byte-identical at any thread count, a
// tested contract) and INCLUDES every other FractureParams field plus
// method / strictness, so changing any result-relevant knob invalidates
// the entry. Cells whose fracture degraded, was interrupted, or carries
// a non-ok report are never stored — a time-budget degradation is
// wall-clock dependent and must not be replayed as if it were the
// shape's true result.
//
// Concurrency (DESIGN.md section 19): the cache directory is safe to
// SHARE between simultaneously running processes. Publication is
// two-phase (`.cell` rename, then `.sha256` rename) and a lookup that
// observes the window between them — or a concurrent writer's
// half-published entry — reports kMiss, not kRejected: the entry simply
// is not published yet, and the caller re-fractures. Rename races on
// one key are benign because the key addresses the content — every
// writer of `<key>.cell` produces bit-identical bytes (wall-clock
// runtime canonicalized to zero, see above), so last-writer-wins
// replaces a file with itself and any interleaving of two writers'
// `.cell`/`.sha256` renames leaves a self-consistent pair. Each process holds an advisory
// flock-based liveness lock (`.mbf-live.<pid>.lck`, io/atomic_file) in
// the cache directory and notes every key it loads or stores there;
// quota eviction skips keys noted by any LIVE process (counted in
// `evictionsSkippedLive`), and the stale-temp sweep never removes a
// live writer's temp files. Within one process the class is still
// single-threaded: the hierarchy driver does all cache I/O from the
// coordinating thread (fracturing, not cache I/O, is the parallel
// part).
#pragma once

#include <string>
#include <vector>

#include "io/atomic_file.h"
#include "mdp/layout.h"
#include "support/status.h"

namespace mbf {

/// A cell's fracture result in CELL-LOCAL coordinates: one solution and
/// one report per shape of the cell, in groupRings order.
struct CellFracture {
  std::vector<Solution> solutions;
  std::vector<ShapeReport> reports;
};

/// Content address of a cell fracture: SHA-256 over a version tag, the
/// result-relevant BatchConfig fingerprint (every FractureParams field
/// except the fault-injector pointer — an armed injector contributes a
/// flag so injection runs never alias clean keys — and never
/// BatchConfig::threads), and the cell's shapes (ring and vertex counts
/// plus raw int32 vertex coordinates). 64-char lowercase hex.
std::string cellFractureKey(const std::vector<LayoutShape>& shapes,
                            const BatchConfig& config);

/// On-disk cache: one `<dir>/<key>.cell` artifact per cell plus its
/// `.sha256` sidecar. Safe to share between processes (see the header
/// comment); not thread-safe within one — the hierarchy driver does all
/// cache I/O from the coordinating thread (fracturing, not cache I/O,
/// is the parallel part).
class CellFractureCache {
 public:
  enum class Lookup {
    kHit,       ///< verified entry decoded; `out` is filled
    kMiss,      ///< no (fully published) entry on disk
    kRejected,  ///< entry failed sidecar/key/decode checks; re-fracture
  };

  struct Stats {
    int hits = 0;
    int misses = 0;
    int rejected = 0;  ///< integrity failures, never silently reused
    int stored = 0;
    int ioErrors = 0;  ///< store/load I/O failures (each one warns once)
    int evicted = 0;   ///< entries removed by the quota sweep
    /// Quota-sweep candidates spared because a concurrently LIVE
    /// process noted the key in its liveness lock.
    int evictionsSkippedLive = 0;
  };

  explicit CellFractureCache(std::string dir) : dir_(std::move(dir)) {}

  /// Creates the cache directory (and parents) if absent, acquires this
  /// process's liveness lock in it, and sweeps temp debris of provably
  /// dead writers.
  Status prepare();

  /// Looks up `key`; fills `out` only on kHit. A rejected entry stays on
  /// disk until the caller store()s a fresh result over it. When the
  /// cache is disabled every lookup is a kMiss.
  Lookup load(const std::string& key, CellFracture& out);

  /// Atomically writes the entry and its sidecar. The cache is an
  /// optimization, never a correctness dependency: a write failure
  /// disables the cache for the rest of the run (degrade, don't die)
  /// and is returned once so the caller can log a counted warning; all
  /// later store()s are silent no-ops. After a successful store the
  /// quota sweep runs if a quota is set.
  Status store(const std::string& key, const CellFracture& cell);

  /// Best-effort size cap on the cache directory (0 = unlimited).
  /// After each store, if `.cell` + `.sha256` bytes exceed the quota,
  /// entries are evicted oldest-mtime-first — skipping every key this
  /// run touched (hit or stored), which must stay warm for a --verify
  /// or an immediate re-run.
  void setQuotaBytes(std::int64_t bytes) { quotaBytes_ = bytes; }

  /// Stops all cache I/O for the rest of the run, remembering the first
  /// cause. load() degrades to kMiss, store() to a no-op.
  void disable(Status cause);
  bool disabled() const { return disabled_; }
  const Status& disableCause() const { return disableCause_; }

  std::string pathFor(const std::string& key) const;
  const std::string& dir() const { return dir_; }
  const Stats& stats() const { return stats_; }

 private:
  void enforceQuota();

  std::string dir_;
  Stats stats_;
  std::int64_t quotaBytes_ = 0;
  bool disabled_ = false;
  Status disableCause_;
  std::vector<std::string> touchedKeys_;
  DirLivenessLock liveLock_;
};

}  // namespace mbf
