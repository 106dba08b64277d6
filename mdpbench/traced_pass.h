// The in-process pass of the end-to-end MDP benchmark. It runs one
// workload serially through the public entry points of each layer (io,
// mdp, ebeam, fracture, analysis, support) and, when tracing is on,
// records a span around every call: id, parent, name, start and end,
// kept in memory and written out once the pass ends. Spans are taken
// from outside the program, around its calls; nothing inside the
// library is instrumented by this pass.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/status.h"

namespace mdpbench {

struct Span {
  int id = 0;
  int parent = -1;  ///< -1 for the workload root
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

/// In-memory span log. A disabled log records nothing and reads no
/// clock, so the same code serves the traced and the untraced pass.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int open(const char* name);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

struct PassOptions {
  std::string workload;   ///< names the root span
  std::string inputPath;  ///< .poly (flat) or .gds (hierarchical)
  bool hier = false;
  /// Hierarchical only: the cell cache to read and fill (a copy the
  /// caller restores between passes; the pass stores its misses).
  std::string cacheDir;
  /// Directory for the pass's own .shots and manifest.
  std::string outDir;
  bool trace = true;
};

struct PassResult {
  double totalSeconds = 0.0;  ///< root span, or the whole pass untraced
  std::string shotsSha256;    ///< digest of the .shots bytes written
  std::int64_t shapes = 0;    ///< flat-equivalent shapes
  std::int64_t shots = 0;
  std::int64_t failingPx = 0;
  /// Per-layer metrics by name (BENCHMARK.json per_layer names).
  std::map<std::string, double> metrics;
  /// Self seconds per layer: span time minus child-span time, summed.
  std::map<std::string, double> layerSelfSeconds;
  std::vector<Span> spans;
};

mbf::Status runPass(const PassOptions& options, PassResult& out);

/// {"spans": [...], "layer_self_s": {...}} for the trace artifact.
std::string spansJson(const PassResult& result);

}  // namespace mdpbench
