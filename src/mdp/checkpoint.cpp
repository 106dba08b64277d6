#include "mdp/checkpoint.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>

#include "io/atomic_file.h"
#include "parallel/parallel_for.h"
#include "support/sysio.h"

namespace mbf {
namespace {

// --- little-endian primitives (host is LE, the only target) -----------

void putU8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void putI32(std::string& out, std::int32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}
void putI64(std::string& out, std::int64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}
void putF64(std::string& out, double v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}
void putString(std::string& out, const std::string& s) {
  putI32(out, static_cast<std::int32_t>(s.size()));
  out.append(s);
}

/// Cursor with bounds checking; any overrun flips `ok` and sticks.
struct Reader {
  std::string_view bytes;
  std::size_t at = 0;
  bool ok = true;

  bool take(void* dst, std::size_t n) {
    if (!ok || at + n > bytes.size()) {
      ok = false;
      return false;
    }
    std::memcpy(dst, bytes.data() + at, n);
    at += n;
    return true;
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    take(&v, 1);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v = 0;
    take(&v, 4);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    take(&v, 8);
    return v;
  }
  double f64() {
    double v = 0;
    take(&v, 8);
    return v;
  }
  std::string str() {
    const std::int32_t n = i32();
    if (!ok || n < 0 || at + static_cast<std::size_t>(n) > bytes.size()) {
      ok = false;
      return {};
    }
    std::string s(bytes.data() + at, static_cast<std::size_t>(n));
    at += static_cast<std::size_t>(n);
    return s;
  }
};

constexpr std::uint8_t kRecordVersion = 1;
// CellRecord frames lead with a different version byte so the two
// record kinds never decode as each other (see checkpoint.h).
constexpr std::uint8_t kCellRecordVersion = 2;
// A cell-cache key is a 64-char sha256 hex digest; anything much longer
// in a CellRecord frame is corruption, not a future format.
constexpr std::int32_t kMaxCellKeyBytes = 256;
constexpr std::int32_t kMaxCellShapes = 1 << 24;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t fnv1aF64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return fnv1a(h, &bits, 8);
}

std::string hex(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return s;
}

}  // namespace

std::string encodeShapeRecord(const ShapeRecord& record) {
  std::string out;
  putU8(out, kRecordVersion);
  putI32(out, record.shapeIndex);
  // Solution.
  const Solution& sol = record.solution;
  putString(out, sol.method);
  putU8(out, sol.degraded ? 1 : 0);
  putI64(out, sol.failOn);
  putI64(out, sol.failOff);
  putF64(out, sol.cost);
  putF64(out, sol.runtimeSeconds);
  putI32(out, static_cast<std::int32_t>(sol.shots.size()));
  for (const Rect& r : sol.shots) {
    putI32(out, r.x0);
    putI32(out, r.y0);
    putI32(out, r.x1);
    putI32(out, r.y1);
  }
  // Report.
  putU8(out, record.report.degraded ? 1 : 0);
  putU8(out, static_cast<std::uint8_t>(record.report.status.code()));
  putI32(out, record.report.status.shapeIndex());
  putI64(out, record.report.status.byteOffset());
  putString(out, record.report.status.message());
  return out;
}

Status decodeShapeRecord(std::string_view bytes, ShapeRecord& out) {
  Reader r{bytes};
  const std::uint8_t version = r.u8();
  if (r.ok && version != kRecordVersion) {
    return Status(StatusCode::kParseError,
                  "unknown shape-record version " + std::to_string(version));
  }
  out = {};
  out.shapeIndex = r.i32();
  out.solution.method = r.str();
  out.solution.degraded = r.u8() != 0;
  out.solution.failOn = r.i64();
  out.solution.failOff = r.i64();
  out.solution.cost = r.f64();
  out.solution.runtimeSeconds = r.f64();
  const std::int32_t shots = r.i32();
  if (r.ok && (shots < 0 || static_cast<std::size_t>(shots) * 16 >
                                bytes.size() - r.at)) {
    r.ok = false;
  }
  if (r.ok) {
    out.solution.shots.reserve(static_cast<std::size_t>(shots));
    for (std::int32_t i = 0; i < shots; ++i) {
      Rect rect;
      rect.x0 = r.i32();
      rect.y0 = r.i32();
      rect.x1 = r.i32();
      rect.y1 = r.i32();
      out.solution.shots.push_back(rect);
    }
  }
  out.report.degraded = r.u8() != 0;
  const std::uint8_t code = r.u8();
  const std::int32_t shapeIndex = r.i32();
  const std::int64_t byteOffset = r.i64();
  const std::string message = r.str();
  if (!r.ok || r.at != bytes.size()) {
    return Status(StatusCode::kParseError,
                  "shape record is truncated or has trailing bytes");
  }
  if (code > static_cast<std::uint8_t>(StatusCode::kNotFound)) {
    return Status(StatusCode::kParseError,
                  "shape record carries unknown status code " +
                      std::to_string(code));
  }
  if (static_cast<StatusCode>(code) == StatusCode::kOk && message.empty()) {
    out.report.status = Status();
  } else {
    out.report.status = Status(static_cast<StatusCode>(code), message);
  }
  if (shapeIndex >= 0) out.report.status.withShape(shapeIndex);
  if (byteOffset >= 0) out.report.status.withOffset(byteOffset);
  return {};
}

std::string encodeCellRecord(const CellRecord& record) {
  std::string out;
  putU8(out, kCellRecordVersion);
  putI32(out, record.cellIndex);
  putString(out, record.key);
  putI32(out, static_cast<std::int32_t>(record.solutions.size()));
  for (std::size_t i = 0; i < record.solutions.size(); ++i) {
    // Each cell-local result rides as a nested ShapeRecord frame with
    // the cell-local index, reusing the tested shape codec verbatim.
    ShapeRecord shape{static_cast<int>(i), record.solutions[i],
                      i < record.reports.size() ? record.reports[i]
                                                : ShapeReport{}};
    putString(out, encodeShapeRecord(shape));
  }
  return out;
}

Status decodeCellRecord(std::string_view bytes, CellRecord& out) {
  Reader r{bytes};
  const std::uint8_t version = r.u8();
  if (r.ok && version != kCellRecordVersion) {
    return Status(StatusCode::kParseError,
                  "unknown cell-record version " + std::to_string(version));
  }
  out = {};
  out.cellIndex = r.i32();
  out.key = r.str();
  if (r.ok && static_cast<std::int32_t>(out.key.size()) > kMaxCellKeyBytes) {
    return Status(StatusCode::kParseError,
                  "cell record key is implausibly long (" +
                      std::to_string(out.key.size()) + " bytes)");
  }
  const std::int32_t shapeCount = r.i32();
  if (r.ok && (shapeCount < 0 || shapeCount > kMaxCellShapes)) {
    return Status(StatusCode::kParseError,
                  "cell record claims " + std::to_string(shapeCount) +
                      " shapes");
  }
  if (r.ok) {
    out.solutions.reserve(static_cast<std::size_t>(shapeCount));
    out.reports.reserve(static_cast<std::size_t>(shapeCount));
    for (std::int32_t i = 0; i < shapeCount && r.ok; ++i) {
      const std::string frame = r.str();
      if (!r.ok) break;
      ShapeRecord shape;
      Status dec = decodeShapeRecord(frame, shape);
      if (!dec.ok()) {
        return Status(StatusCode::kParseError,
                      "cell record shape " + std::to_string(i) + ": " +
                          dec.message());
      }
      if (shape.shapeIndex != i) {
        return Status(StatusCode::kParseError,
                      "cell record shape " + std::to_string(i) +
                          " carries index " +
                          std::to_string(shape.shapeIndex));
      }
      out.solutions.push_back(std::move(shape.solution));
      out.reports.push_back(std::move(shape.report));
    }
  }
  if (!r.ok || r.at != bytes.size()) {
    return Status(StatusCode::kParseError,
                  "cell record is truncated or has trailing bytes");
  }
  return {};
}

std::string cellJournalMetaFor(const std::string& topStruct,
                               const std::vector<std::string>& cellKeys,
                               int cellBegin, int cellEnd) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  h = fnv1a(h, topStruct.data(), topStruct.size());
  for (const std::string& key : cellKeys) {
    h = fnv1a(h, key.data(), key.size());
    const char sep = '\n';
    h = fnv1a(h, &sep, 1);
  }
  return "mbf-cell-journal v1 cells=" + std::to_string(cellKeys.size()) +
         " range=" + std::to_string(cellBegin) + ":" +
         std::to_string(cellEnd) + " top=" + topStruct + " fp=" + hex(h);
}

std::string journalMetaFor(const std::vector<LayoutShape>& shapes,
                           const BatchConfig& config) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  for (const LayoutShape& shape : shapes) {
    const std::int32_t rings = static_cast<std::int32_t>(shape.rings.size());
    h = fnv1a(h, &rings, 4);
    for (const Polygon& ring : shape.rings) {
      for (const Point& v : ring.vertices()) {
        h = fnv1a(h, &v.x, sizeof(v.x));
        h = fnv1a(h, &v.y, sizeof(v.y));
      }
    }
  }
  // Every parameter that changes the computed result belongs in the
  // fingerprint; execution knobs (threads, budgets, fsync) do not —
  // resuming with a different thread count is explicitly supported.
  const FractureParams& p = config.params;
  h = fnv1aF64(h, p.gamma);
  h = fnv1aF64(h, p.sigma);
  h = fnv1aF64(h, p.rho);
  const std::int32_t lmin = p.lmin;
  h = fnv1a(h, &lmin, 4);
  h = fnv1aF64(h, p.backscatterEta);
  h = fnv1aF64(h, p.backscatterSigma);
  h = fnv1aF64(h, p.lth);
  h = fnv1aF64(h, p.overlapFraction);
  const std::int32_t nmax = p.nmax;
  h = fnv1a(h, &nmax, 4);
  const std::int32_t nh = p.nh;
  h = fnv1a(h, &nh, 4);
  const std::uint8_t flags =
      static_cast<std::uint8_t>((config.allowDegradation ? 1 : 0) |
                                (config.fallbackOnly ? 2 : 0) |
                                (p.enableBias ? 4 : 0) |
                                (p.enableAddRemove ? 8 : 0) |
                                (p.enableMerge ? 16 : 0));
  h = fnv1a(h, &flags, 1);
  const std::int32_t method = static_cast<std::int32_t>(config.method);
  h = fnv1a(h, &method, 4);
  return "mbf-shape-journal v1 shapes=" + std::to_string(shapes.size()) +
         " base=" + std::to_string(config.shapeIndexBase) + " fp=" + hex(h);
}

Status fractureLayoutJournaled(const std::vector<LayoutShape>& shapes,
                               const BatchConfig& config,
                               const JournaledRunOptions& options,
                               BatchResult& out, RunCounters* countersOut) {
  const auto start = std::chrono::steady_clock::now();
  const std::string meta = journalMetaFor(shapes, config);
  const int base = config.shapeIndexBase;
  const std::size_t n = shapes.size();

  RunCounters counters;
  JournalWriter journal;
  std::vector<std::string> replayed;
  Status st;
  if (options.resume) {
    JournalRecoveryStats rstats;
    st = journal.openForAppend(options.journalPath, meta, options.fsync,
                               replayed, &rstats);
    counters.tornTail = rstats.tornTail;
  } else {
    st = journal.create(options.journalPath, meta, options.fsync);
  }
  if (!st.ok()) return st;

  out = {};
  out.solutions.resize(n);
  out.reports.resize(n);
  std::vector<RefinerStats> shapeStats(n);
  std::vector<char> done(n, 0);

  // Replay. Records address shapes by original index; duplicates (a
  // record journaled twice across interrupted attempts) keep the first
  // copy — both are results of the same deterministic computation.
  for (const std::string& bytes : replayed) {
    ShapeRecord record;
    Status dec = decodeShapeRecord(bytes, record);
    if (!dec.ok()) return dec;  // CRC passed but bytes are not ours
    const int local = record.shapeIndex - base;
    if (local < 0 || static_cast<std::size_t>(local) >= n) {
      return Status(StatusCode::kInvalidArgument,
                    "journal record for shape " +
                        std::to_string(record.shapeIndex) +
                        " is outside this run's range");
    }
    const auto s = static_cast<std::size_t>(local);
    if (done[s] != 0) continue;
    out.solutions[s] = std::move(record.solution);
    out.reports[s] = std::move(record.report);
    done[s] = 1;
    ++counters.resumedShapes;
  }

  std::vector<int> pending;
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (done[i] == 0) pending.push_back(static_cast<int>(i));
  }
  counters.freshShapes = static_cast<int>(pending.size());

  // Fracture the missing shapes exactly as fractureLayoutParallel would
  // (same guarded path, same original indices), appending each record as
  // its shape completes. Append order is completion order — irrelevant,
  // since replay installs by index and the merge below is input-ordered.
  std::mutex appendErrorMutex;
  Status appendError;
  std::atomic<bool> journalBroken{false};
  parallelFor(0, static_cast<int>(pending.size()), config.threads, 1,
              [&](int k) {
    const auto s = static_cast<std::size_t>(pending[static_cast<std::size_t>(k)]);
    ShapeOutcome outcome = fractureShapeGuarded(
        shapes[s], config.params, config.method, base + static_cast<int>(s),
        config.allowDegradation, &shapeStats[s], config.fallbackOnly);
    out.solutions[s] = std::move(outcome.solution);
    out.reports[s] = {std::move(outcome.status), outcome.degraded,
                      outcome.interrupted};
    // An interrupted shape was never attempted: journaling it would make
    // a later --resume replay the empty solution as finished work.
    if (outcome.interrupted) return;
    // Degrade, don't die: the first append failure downgrades the run to
    // unjournaled completion. Remaining shapes still fracture — their
    // results live in `out` and ship with the batch — we just stop
    // issuing appends that a full filer would fail one by one.
    if (journalBroken.load(std::memory_order_relaxed)) return;
    ShapeRecord record{base + static_cast<int>(s), out.solutions[s],
                       out.reports[s]};
    const Status appended = journal.append(encodeShapeRecord(record));
    if (!appended.ok()) {
      journalBroken.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(appendErrorMutex);
      if (appendError.ok()) appendError = appended;
    }
  });

  // Surface a close-time error (satellite of DESIGN.md section 18): under
  // kEachRecord a failed ::close() can mean the last records never became
  // durable, which must hold back the seal exactly like an append error.
  Status closed = journal.closeChecked();
  if (!closed.ok() && appendError.ok()) {
    journalBroken.store(true, std::memory_order_relaxed);
    appendError = closed;
  }

  mergeBatchAggregates(out, shapeStats);
  out.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  counters.journalDowngraded = !appendError.ok();
  if (countersOut != nullptr) *countersOut = counters;

  // Seal a fully-journaled run with its digest so downstream consumers
  // (the supervisor before merging a worker range, mbf_cli --verify) can
  // prove the journal bytes are the ones this process wrote. A drained
  // (interrupted) run holds back the seal — the journal is consistent
  // but incomplete, and the resumed run that finishes it re-seals.
  if (appendError.ok()) {
    if (out.interruptedShapes == 0) {
      std::string hex;
      Status sealed = sha256File(options.journalPath, hex);
      if (sealed.ok()) sealed = writeHashSidecar(options.journalPath, hex);
      if (!sealed.ok()) return sealed;
    } else {
      sysio::unlink(sidecarPathFor(options.journalPath).c_str());
    }
  } else {
    // The journal stopped short of the batch: drop any stale seal from a
    // previous attempt so --resume/--verify never trust it as complete.
    sysio::unlink(sidecarPathFor(options.journalPath).c_str());
  }

  // An append failure does not invalidate the in-memory batch, but the
  // journal is no longer a faithful checkpoint — surface it. Callers
  // read countersOut->journalDowngraded to keep the completed work.
  return appendError;
}

}  // namespace mbf
