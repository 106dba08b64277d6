#include "traced_pass.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "analysis/shot_stats.h"
#include "ebeam/proximity_model.h"
#include "fracture/coloring_fracturer.h"
#include "fracture/problem.h"
#include "fracture/refiner.h"
#include "io/atomic_file.h"
#include "io/gdsii.h"
#include "io/poly_io.h"
#include "mdp/cell_cache.h"
#include "mdp/checkpoint.h"
#include "mdp/hierarchy.h"
#include "mdp/layout.h"
#include "support/telemetry.h"

namespace mdpbench {
namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counters gathered at the fracture-layer boundary.
struct FractureTally {
  double gridMpx = 0.0;
  std::int64_t corners = 0;
  std::int64_t graphEdges = 0;
  mbf::RefinerStats refiner;
};

/// One shape through the paper's two stages, split at the public entry
/// points mbf::ModelBasedFracturer chains together. Lth is probed once
/// through the ebeam layer and handed to the Problem, which would
/// otherwise derive the same value itself; the Problem span therefore
/// covers rasterization, EDT and classification only.
mbf::Solution fractureShape(const mbf::LayoutShape& shape,
                            const mbf::FractureParams& params,
                            const mbf::ProximityModel& model, SpanLog& log,
                            FractureTally& tally) {
  SpanScope shapeSpan(log, "fracture.shape");
  // The sanitation the per-shape fracturing path applies before a
  // Problem sees the rings (mdp/layout): canonical vertices, no
  // degenerate rings.
  std::vector<mbf::Polygon> rings;
  for (mbf::Polygon ring : shape.rings) {
    ring.normalize();
    if (ring.size() >= 3 && ring.area() != 0.0) rings.push_back(std::move(ring));
  }

  mbf::FractureParams resolved = params;
  {
    SpanScope span(log, "ebeam.lth");
    resolved.lth = model.computeLth(params.gamma);
  }
  std::unique_ptr<mbf::Problem> problem;
  {
    SpanScope span(log, "fracture.problem");
    problem = std::make_unique<mbf::Problem>(std::move(rings), resolved);
  }
  tally.gridMpx += static_cast<double>(problem->gridWidth()) *
                   problem->gridHeight() / 1e6;

  mbf::ColoringArtifacts art;
  {
    SpanScope span(log, "fracture.stage1");
    art = mbf::ColoringFracturer{}.fractureWithArtifacts(*problem);
  }
  tally.corners += static_cast<std::int64_t>(art.extraction.corners.size());
  tally.graphEdges += art.compatibility.numEdges();

  mbf::Solution sol;
  {
    SpanScope span(log, "fracture.stage2");
    mbf::Refiner refiner(*problem);
    sol = refiner.refine(std::move(art.shots));
    tally.refiner += refiner.stats();
  }
  sol.method = "ours";
  return sol;
}

/// Translation-free content key of a single shape, for the dedup ratio
/// of flat layouts (the hierarchical plan dedupes whole cells itself).
std::string contentKey(const mbf::LayoutShape& shape,
                       const mbf::BatchConfig& config) {
  mbf::LayoutShape local = shape;
  const mbf::Rect box = local.rings.front().bbox();
  for (mbf::Polygon& ring : local.rings) ring.translate({-box.x0, -box.y0});
  return mbf::cellFractureKey({local}, config);
}

double secondsIn(const std::vector<Span>& spans, const std::string& name) {
  double s = 0.0;
  for (const Span& span : spans) {
    if (span.name == name) s += (span.endNs - span.startNs) / 1e9;
  }
  return s;
}

std::string layerOf(const std::string& spanName) {
  return spanName.substr(0, spanName.find_first_of(".:"));
}

}  // namespace

int SpanLog::open(const char* name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {id, stack_.empty() ? -1 : stack_.back(), name, nowNs(), 0});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].endNs = nowNs();
  stack_.pop_back();
}

mbf::Status runPass(const PassOptions& options, PassResult& out) {
  out = PassResult{};
  SpanLog log(options.trace);
  // The CLI's defaults: the paper's parameters, the kOurs method.
  mbf::BatchConfig config;
  const mbf::ProximityModel model = config.params.makeModel();

  std::vector<mbf::LayoutShape> shapes;  // flat-equivalent, in order
  std::vector<mbf::Solution> solutions;  // parallel to shapes
  FractureTally tally;
  double maxShapeSeconds = 0.0;
  std::int64_t units = 0;
  std::int64_t instances = 0;
  std::int64_t uniqueShapes = 0;
  int cacheHits = 0;
  int cacheLookups = 0;

  const std::int64_t t0 = nowNs();
  const int root = log.open(("workload:" + options.workload).c_str());
  auto timedShape = [&](const mbf::LayoutShape& shape) {
    const std::int64_t s0 = nowNs();
    mbf::Solution sol = fractureShape(shape, config.params, model, log, tally);
    maxShapeSeconds = std::max(maxShapeSeconds, (nowNs() - s0) / 1e9);
    return sol;
  };

  if (!options.hier) {
    std::vector<mbf::Polygon> rings;
    {
      SpanScope span(log, "io.parse");
      mbf::Status st = mbf::parsePolygonsFile(options.inputPath, rings);
      if (!st.ok()) return st;
    }
    {
      SpanScope span(log, "mdp.plan");
      shapes = mbf::groupRings(std::move(rings));
    }
    for (const mbf::LayoutShape& shape : shapes) {
      solutions.push_back(timedShape(shape));
    }
    units = instances = static_cast<std::int64_t>(shapes.size());
  } else {
    mbf::GdsLibrary lib;
    {
      SpanScope span(log, "io.parse");
      mbf::Status st = mbf::parseGdsFile(options.inputPath, lib);
      if (!st.ok()) return st;
    }
    mbf::HierPlan plan;
    {
      SpanScope span(log, "mdp.plan");
      mbf::Status st = mbf::planGdsHierarchy(lib, config, "", plan);
      if (!st.ok()) return st;
    }
    mbf::CellFractureCache cache(options.cacheDir);
    {
      SpanScope span(log, "mdp.cache_prepare");
      mbf::Status st = cache.prepare();
      if (!st.ok()) return st;
    }
    std::vector<mbf::CellFracture> fractures(plan.cells.size());
    std::vector<std::size_t> misses;
    for (std::size_t c = 0; c < plan.cells.size(); ++c) {
      SpanScope span(log, "mdp.cache_load");
      ++cacheLookups;
      if (cache.load(plan.cells[c].key, fractures[c]) ==
          mbf::CellFractureCache::Lookup::kHit) {
        ++cacheHits;
      } else {
        misses.push_back(c);
      }
    }
    for (const std::size_t c : misses) {
      for (const mbf::LayoutShape& shape : plan.cells[c].shapes) {
        fractures[c].solutions.push_back(timedShape(shape));
        fractures[c].reports.emplace_back();
      }
    }
    for (const std::size_t c : misses) {
      SpanScope span(log, "mdp.cache_store");
      mbf::Status st = cache.store(plan.cells[c].key, fractures[c]);
      if (!st.ok()) return st;
    }
    {
      // Benchmark glue: the whole-pixel translation the hierarchical
      // fracturing path applies per instance, so the pass can write the
      // same flat-equivalent .shots the CLI writes.
      SpanScope span(log, "bench.instantiate");
      for (const mbf::HierPlan::Instance& inst : plan.instances) {
        const mbf::HierPlan::Cell& cell = plan.cells[std::size_t(inst.cell)];
        const mbf::CellFracture& fr = fractures[std::size_t(inst.cell)];
        for (std::size_t i = 0; i < cell.shapes.size(); ++i) {
          mbf::LayoutShape shape = cell.shapes[i];
          for (mbf::Polygon& ring : shape.rings) ring.translate(inst.offset);
          shapes.push_back(std::move(shape));
          mbf::Solution sol = fr.solutions[i];
          for (mbf::Rect& shot : sol.shots) shot = shot.translated(inst.offset);
          solutions.push_back(std::move(sol));
        }
      }
    }
    units = static_cast<std::int64_t>(plan.cells.size());
    instances = static_cast<std::int64_t>(plan.instances.size());
    for (const mbf::HierPlan::Cell& cell : plan.cells) {
      uniqueShapes += static_cast<std::int64_t>(cell.shapes.size());
    }
  }

  std::string shotsBytes;
  const std::string shotsPath = options.outDir + "/traced.shots";
  {
    SpanScope span(log, "io.write");
    std::ostringstream os;
    mbf::writeBatchShots(os, solutions);
    shotsBytes = os.str();
    mbf::Status st =
        mbf::atomicWriteFile(shotsPath, shotsBytes, &out.shotsSha256);
    if (!st.ok()) return st;
  }
  std::vector<mbf::Rect> allShots;
  for (const mbf::Solution& sol : solutions) {
    allShots.insert(allShots.end(), sol.shots.begin(), sol.shots.end());
  }
  mbf::ShotStats shotStats;
  {
    SpanScope span(log, "analysis.shot_stats");
    shotStats = mbf::computeShotStats(allShots);
  }
  {
    // The manifest the CLI writes last under --metrics-json.
    SpanScope span(log, "support.manifest");
    mbf::BatchResult batch;
    batch.solutions = solutions;
    batch.reports.resize(solutions.size());
    mbf::mergeBatchAggregates(batch, {});
    batch.refinerStats = tally.refiner;
    mbf::RunManifestInfo info;
    info.inputPath = options.inputPath;
    info.outputPath = shotsPath;
    info.fingerprint = mbf::journalMetaFor(shapes, config);
    info.artifacts.push_back({"shots", shotsPath,
                              static_cast<std::int64_t>(shotsBytes.size()),
                              out.shotsSha256});
    info.hier.enabled = options.hier;
    const std::string manifest = mbf::buildRunManifest(
        info, config, batch, mbf::RunCounters{}, shotStats);
    mbf::Status st = mbf::atomicWriteFile(
        options.outDir + "/traced.manifest.json", manifest);
    if (!st.ok()) return st;
  }
  log.close(root);
  const std::int64_t t1 = nowNs();
  out.totalSeconds = (t1 - t0) / 1e9;

  out.shapes = static_cast<std::int64_t>(shapes.size());
  for (const mbf::Solution& sol : solutions) {
    out.shots += sol.shotCount();
    out.failingPx += sol.failingPixels();
  }
  if (!options.hier) {
    // Untimed: how much of the flat layout repeats up to translation.
    std::vector<std::string> keys;
    for (const mbf::LayoutShape& shape : shapes) {
      keys.push_back(contentKey(shape, config));
    }
    std::sort(keys.begin(), keys.end());
    uniqueShapes = std::unique(keys.begin(), keys.end()) - keys.begin();
  }
  if (!options.trace) return {};

  const std::vector<Span>& spans = log.spans();
  const mbf::RefinerStats& rs = tally.refiner;
  const mbf::PerfCounters& perf = rs.perf;
  auto& m = out.metrics;
  m["io.parse_s"] = secondsIn(spans, "io.parse");
  m["io.write_s"] = secondsIn(spans, "io.write");
  m["io.shots_mb"] = static_cast<double>(shotsBytes.size()) / 1e6;
  m["analysis.shot_stats_s"] = secondsIn(spans, "analysis.shot_stats");
  m["support.manifest_s"] = secondsIn(spans, "support.manifest");
  m["mdp.plan_s"] = secondsIn(spans, "mdp.plan");
  m["mdp.units"] = static_cast<double>(units);
  m["mdp.instances"] = static_cast<double>(instances);
  m["mdp.dedup_ratio"] =
      out.shapes > 0 ? static_cast<double>(uniqueShapes) / out.shapes : 0.0;
  m["mdp.cache_load_s"] = secondsIn(spans, "mdp.cache_load");
  m["mdp.cache_store_s"] = secondsIn(spans, "mdp.cache_store");
  m["mdp.cache_hit_rate"] =
      cacheLookups > 0 ? static_cast<double>(cacheHits) / cacheLookups : 0.0;
  m["fracture.serial_s"] = secondsIn(spans, "fracture.shape");
  m["fracture.problem_s"] = secondsIn(spans, "fracture.problem");
  m["fracture.grid_mpx"] = tally.gridMpx;
  m["ebeam.lth_s"] = secondsIn(spans, "ebeam.lth");
  m["fracture.stage1_s"] = secondsIn(spans, "fracture.stage1");
  m["fracture.corners"] = static_cast<double>(tally.corners);
  m["fracture.graph_edges"] = static_cast<double>(tally.graphEdges);
  m["fracture.stage2_s"] = secondsIn(spans, "fracture.stage2");
  m["fracture.edge_move_s"] = rs.edgeMoveSeconds;
  m["fracture.violation_s"] = rs.violationSeconds;
  m["fracture.iterations"] = rs.iterations;
  m["fracture.candidate_evals"] = static_cast<double>(perf.candidateEvals);
  m["fracture.candidate_hit_rate"] =
      perf.candidateEvals > 0 ? static_cast<double>(perf.candidateCacheHits) /
                                    static_cast<double>(perf.candidateEvals)
                              : 0.0;
  m["fracture.profile_evals"] = static_cast<double>(perf.profileEvals);
  m["fracture.ledger_row_updates"] =
      static_cast<double>(perf.ledgerRowUpdates);
  m["parallel.critical_shape_s"] = maxShapeSeconds;

  // Self time: a span's duration minus the time its children cover.
  // The pass is serial, so children never overlap each other.
  std::vector<double> childNs(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      childNs[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.endNs - span.startNs);
    }
  }
  for (const Span& span : spans) {
    const double self =
        (span.endNs - span.startNs - childNs[std::size_t(span.id)]) / 1e9;
    out.layerSelfSeconds[layerOf(span.name)] += self;
  }
  out.spans = spans;
  return {};
}

std::string spansJson(const PassResult& result) {
  std::ostringstream os;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < result.spans.size(); ++i) {
    const Span& s = result.spans[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"name\": \""
       << mbf::jsonEscape(s.name) << "\", \"start_ns\": " << s.startNs
       << ", \"end_ns\": " << s.endNs << "}";
  }
  os << "\n], \"layer_self_s\": {";
  bool first = true;
  for (const auto& [layer, seconds] : result.layerSelfSeconds) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", seconds);
    os << (first ? "" : ", ") << "\"" << mbf::jsonEscape(layer)
       << "\": " << buf;
    first = false;
  }
  os << "}}\n";
  return os.str();
}

}  // namespace mdpbench
