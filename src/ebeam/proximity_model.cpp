#include "ebeam/proximity_model.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <compare>
#include <map>
#include <mutex>

namespace mbf {

ProximityModel::ProximityModel(double sigma, double rho, double backscatterEta,
                               double backscatterSigma)
    : sigma_(sigma),
      rho_(rho),
      eta_(backscatterEta),
      sigmaBack_(backscatterSigma > 0.0 ? backscatterSigma : sigma) {
  assert(sigma > 0.0);
  assert(rho > 0.0 && rho < 1.0);
  assert(eta_ >= 0.0 && eta_ < 1.0);
  maxSigma_ = eta_ > 0.0 ? std::max(sigma_, sigmaBack_) : sigma_;
  influencePx_ = static_cast<int>(std::ceil(3.0 * maxSigma_)) + 1;
  lutRange_ = 4.0 * maxSigma_;
  lutStep_ = 1.0 / 16.0;
  const int n = static_cast<int>(std::ceil(2.0 * lutRange_ / lutStep_)) + 2;
  lut_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double t = -lutRange_ + i * lutStep_;
    lut_[static_cast<std::size_t>(i)] = edgeProfileExact(t);
  }
  // Max of edgeProfile(t + 1) - edgeProfile(t). The interpolated profile
  // is piecewise linear with knot spacing 1/16 nm, so t and t + 1 always
  // sit at the same fraction of their pieces (16 pieces apart), g(t) =
  // E(t+1) - E(t) is piecewise linear too, and its maximum is attained at
  // a knot. The clamp boundaries (E = 0 below the range, 1 above) only
  // shrink the step, but the pairs straddling them are included anyway.
  const int stride = static_cast<int>(std::lround(1.0 / lutStep_));
  double m = 0.0;
  for (std::size_t i = 0; i + static_cast<std::size_t>(stride) < lut_.size();
       ++i) {
    m = std::max(m, lut_[i + static_cast<std::size_t>(stride)] - lut_[i]);
  }
  m = std::max(m, lut_[static_cast<std::size_t>(std::min(stride, n - 1))]);
  m = std::max(m, 1.0 - lut_[static_cast<std::size_t>(
                      std::max(0, n - 1 - stride))]);
  maxUnitStep_ = m;
}

double ProximityModel::edgeProfileExact(double t) const {
  const double forward = 0.5 * (1.0 + std::erf(t / sigma_));
  if (eta_ <= 0.0) return forward;
  const double back = 0.5 * (1.0 + std::erf(t / sigmaBack_));
  return (1.0 - eta_) * forward + eta_ * back;
}

double ProximityModel::lutLookup(double t) const {
  const double u = (t + lutRange_) / lutStep_;
  const int i = static_cast<int>(u);
  const double frac = u - i;
  return lut_[static_cast<std::size_t>(i)] * (1.0 - frac) +
         lut_[static_cast<std::size_t>(i + 1)] * frac;
}

double ProximityModel::edgeProfile(double t) const {
  if (t <= -lutRange_) return 0.0;
  if (t >= lutRange_ - lutStep_) return 1.0;
  return lutLookup(t);
}

double ProximityModel::shotIntensity(const Rect& s, double x, double y) const {
  const double a = edgeProfile(s.x1 - x) - edgeProfile(s.x0 - x);
  const double b = edgeProfile(s.y1 - y) - edgeProfile(s.y0 - y);
  return a * b;
}

std::vector<Vec2> ProximityModel::cornerContour(double extent,
                                                double step) const {
  // Shot occupies x <= 0, y <= 0 (arms much longer than 3 sigma). The
  // intensity is F(-x) * F(-y); solve F(-y) = rho / F(-x) by bisection.
  std::vector<Vec2> pts;
  auto solveY = [&](double fx) -> double {
    const double target = rho_ / fx;  // required F(-y), in (0, 1)
    double lo = -extent;              // F(-lo) close to 1
    double hi = extent;               // F(-hi) close to 0
    for (int it = 0; it < 80; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (edgeProfileExact(-mid) > target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return 0.5 * (lo + hi);
  };
  for (double x = -extent; x <= extent; x += step) {
    const double fx = edgeProfileExact(-x);
    if (fx <= rho_) break;  // beyond this x the contour has no solution
    const double y = solveY(fx);
    if (y < -extent) continue;
    pts.push_back({x, y});
  }
  return pts;
}

double ProximityModel::cornerErosionDepth() const {
  // On the diagonal x = y = -t: F(t)^2 = rho  =>  F(t) = sqrt(rho).
  const double target = std::sqrt(rho_);
  double lo = 0.0;
  double hi = 4.0 * maxSigma_;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (edgeProfileExact(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double t = 0.5 * (lo + hi);
  return t * std::sqrt(2.0);  // diagonal distance from corner to contour
}

namespace {

// Memo key: the exact bit patterns of every input computeLthUncached
// reads. Bits, not values: keys one ulp apart may derive different Lth
// and must never be merged, and a NaN field would break the strict weak
// ordering a map of doubles needs.
struct LthKey {
  std::uint64_t sigma, rho, eta, sigmaBack, gamma;
  auto operator<=>(const LthKey&) const = default;
};

struct LthMemo {
  std::mutex mutex;
  // Both guarded by `mutex`.
  std::map<LthKey, double> values;  // never evicted; see DESIGN.md sec. 20
  std::uint64_t derivations = 0;
};

LthMemo& lthMemo() {
  static LthMemo memo;
  return memo;
}

}  // namespace

double ProximityModel::computeLth(double gamma) const {
  const LthKey key{std::bit_cast<std::uint64_t>(sigma_),
                   std::bit_cast<std::uint64_t>(rho_),
                   std::bit_cast<std::uint64_t>(eta_),
                   std::bit_cast<std::uint64_t>(sigmaBack_),
                   std::bit_cast<std::uint64_t>(gamma)};
  LthMemo& memo = lthMemo();
  // The lock is held across the derivation, so concurrent first callers
  // of one key wait for a single derivation instead of racing to repeat
  // it.
  const std::lock_guard<std::mutex> lock(memo.mutex);
  const auto it = memo.values.find(key);
  if (it != memo.values.end()) return it->second;
  const double lth = computeLthUncached(gamma);
  memo.values.emplace(key, lth);
  ++memo.derivations;
  return lth;
}

std::uint64_t ProximityModel::lthDerivations() {
  LthMemo& memo = lthMemo();
  const std::lock_guard<std::mutex> lock(memo.mutex);
  return memo.derivations;
}

double ProximityModel::computeLthUncached(double gamma) const {
  // Work in coordinates rotated 45 degrees: u along the candidate segment,
  // v perpendicular. The corner contour is symmetric in u; v(u) peaks at
  // u = 0 and falls off toward the edges. The best-positioned 45-degree
  // line covers the window where (v_max - v_min) <= 2 * gamma, and Lth is
  // that window's extent in u.
  const std::vector<Vec2> contour = cornerContour(6.0 * maxSigma_, 0.02);
  if (contour.empty()) return 0.0;

  const double inv = 1.0 / std::sqrt(2.0);
  double vMax = -1e30;
  for (const Vec2& p : contour) vMax = std::max(vMax, (p.x + p.y) * inv);

  // Find the largest |u| with v(u) >= vMax - 2 gamma.
  double best = 0.0;
  for (const Vec2& p : contour) {
    const double u = (p.x - p.y) * inv;
    const double v = (p.x + p.y) * inv;
    if (v >= vMax - 2.0 * gamma) best = std::max(best, std::abs(u));
  }
  return 2.0 * best;
}

}  // namespace mbf
