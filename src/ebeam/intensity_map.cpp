#include "ebeam/intensity_map.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace mbf {

IntensityMap::IntensityMap(const ProximityModel& model, Point origin,
                           int width, int height)
    : model_(&model), origin_(origin), grid_(width, height, 0.0) {}

Rect IntensityMap::influenceWindow(const Rect& shot) const {
  const int r = model_->influenceRadiusPx();
  Rect w{shot.x0 - origin_.x - r, shot.y0 - origin_.y - r,
         shot.x1 - origin_.x + r, shot.y1 - origin_.y + r};
  w.x0 = std::max(w.x0, 0);
  w.y0 = std::max(w.y0, 0);
  w.x1 = std::min(w.x1, grid_.width());
  w.y1 = std::min(w.y1, grid_.height());
  if (w.x1 < w.x0) w.x1 = w.x0;
  if (w.y1 < w.y0) w.y1 = w.y0;
  return w;
}

void IntensityMap::applyShot(const Rect& shot, double sign) {
  const Rect w = influenceWindow(shot);
  if (w.empty()) return;

  // Separable evaluation: one pass of 1D profiles per axis, then the
  // outer product over the window.
  std::vector<double> ax;
  std::vector<double> by;
  {
    const PerfTimer timer(perf_, &PerfCounters::profileNanos);
    ax.resize(static_cast<std::size_t>(w.width()));
    by.resize(static_cast<std::size_t>(w.height()));
    for (int x = w.x0; x < w.x1; ++x) {
      const double px = origin_.x + x + 0.5;
      ax[static_cast<std::size_t>(x - w.x0)] =
          sign * (model_->edgeProfile(shot.x1 - px) -
                  model_->edgeProfile(shot.x0 - px));
    }
    for (int y = w.y0; y < w.y1; ++y) {
      const double py = origin_.y + y + 0.5;
      by[static_cast<std::size_t>(y - w.y0)] =
          model_->edgeProfile(shot.y1 - py) - model_->edgeProfile(shot.y0 - py);
    }
    if (perf_ != nullptr) {
      // 2 scalar edgeProfile evaluations per profile entry.
      perf_->profileEvals +=
          2 * static_cast<std::uint64_t>(w.width() + w.height());
    }
  }
  for (int y = w.y0; y < w.y1; ++y) {
    const double b = by[static_cast<std::size_t>(y - w.y0)];
    double* row = grid_.row(y);
    for (int x = w.x0; x < w.x1; ++x) {
      row[x] += ax[static_cast<std::size_t>(x - w.x0)] * b;
    }
  }
}

void IntensityMap::setShots(std::span<const Rect> shots,
                            std::span<const double> doses) {
  assert(doses.empty() || doses.size() == shots.size());
  clear();
  for (std::size_t i = 0; i < shots.size(); ++i) {
    applyShot(shots[i], doses.empty() ? 1.0 : doses[i]);
  }
}

}  // namespace mbf
