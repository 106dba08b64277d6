// Accumulated exposure map. Maintains the total intensity Itot(x, y) of a
// set of shots sampled at pixel centres, with incremental add/remove so
// the refiner can evaluate candidate edge moves cheaply (paper 4.1: "we
// compute the cost incrementally, and only recompute the intensity of the
// shot corresponding to the shot edge").
//
// The grid accumulates in double: the refiner applies thousands of
// add/remove cycles to the same pixels, and float accumulation leaves
// rounding residue (~1e-3 after 10k cycles) large enough to skew
// Violations::cost near the rho threshold.
#pragma once

#include <span>

#include "ebeam/proximity_model.h"
#include "geometry/rect.h"
#include "grid/grid.h"
#include "support/perf_counters.h"

namespace mbf {

class IntensityMap {
 public:
  /// Pixel (i, j) samples the model at (origin.x + i + 0.5,
  /// origin.y + j + 0.5). The model reference must outlive the map.
  IntensityMap(const ProximityModel& model, Point origin, int width,
               int height);

  const ProximityModel& model() const { return *model_; }
  Point origin() const { return origin_; }
  int width() const { return grid_.width(); }
  int height() const { return grid_.height(); }

  double at(int x, int y) const { return grid_.at(x, y); }
  const Grid<double>& grid() const { return grid_; }

  void clear() { grid_.fill(0.0); }

  /// Adds / removes one shot's contribution. Only pixels within the
  /// model's influence radius of the shot are touched. `dose` scales the
  /// contribution (1.0 = the paper's fixed-dose model; other values
  /// support the variable-dose extension).
  void addShot(const Rect& shot, double dose = 1.0) {
    applyShot(shot, +dose);
  }
  void removeShot(const Rect& shot, double dose = 1.0) {
    applyShot(shot, -dose);
  }

  /// Clears the grid and applies `shots` in input order, exactly like a
  /// sequential addShot loop. Shot `i` contributes with multiplier
  /// `doses[i]` (the variable-dose extension); an empty `doses` span
  /// means unit dose for every shot, otherwise doses.size() must equal
  /// shots.size().
  void setShots(std::span<const Rect> shots,
                std::span<const double> doses = {});

  /// Grid-local pixel window affected by `shot` (shot bbox inflated by the
  /// influence radius, clamped to the grid). Cell range [x0,x1) x [y0,y1).
  Rect influenceWindow(const Rect& shot) const;

  /// Non-owning counter sink for profile-evaluation accounting (nullptr
  /// disables). Must not be shared with another thread's writer.
  void setPerfSink(PerfCounters* sink) { perf_ = sink; }

 private:
  void applyShot(const Rect& shot, double sign);

  const ProximityModel* model_;
  Point origin_;
  Grid<double> grid_;
  PerfCounters* perf_ = nullptr;
};

}  // namespace mbf
