// All knobs of the fracturing flow in one place, defaulted to the paper's
// experimental setup (section 5): gamma = 2 nm, sigma = 6.25 nm,
// dp = 1 nm. Values the paper leaves unstated are documented in
// DESIGN.md section 8.
#pragma once

#include <cstdint>

#include "ebeam/proximity_model.h"
#include "graph/coloring.h"

namespace mbf {

class FaultInjector;

struct FractureParams {
  // --- model (section 2) ---
  double gamma = 2.0;   ///< CD tolerance band around the target boundary, nm
  double sigma = 6.25;  ///< proximity kernel parameter, nm
  double rho = 0.5;     ///< print threshold
  int lmin = 12;        ///< minimum shot side length, nm
  /// Optional two-Gaussian PSF extension (0 = the paper's single-Gaussian
  /// model): PSF = (1 - eta) G(sigma) + eta G(backscatterSigma).
  double backscatterEta = 0.0;
  double backscatterSigma = 0.0;  ///< <= 0 means "same as sigma"

  // --- coloring-based approximate fracturing (section 3) ---
  /// Longest printable 45-degree segment; <= 0 means "derive from the
  /// model and gamma" (the normal case).
  double lth = 0.0;
  /// Minimum fraction of a test-shot's area that must overlap the target
  /// for a graph edge to exist (paper footnote 2: 80 %).
  double overlapFraction = 0.8;
  ColoringOrder coloringOrder = ColoringOrder::kSequential;

  // --- iterative shot refinement (section 4) ---
  int nmax = 1500;  ///< max refinement iterations (N_max)
  int nh = 8;      ///< stagnant iterations before add/remove (N_H)
  /// Improvement below this counts as stagnation (paper: 1e-6).
  double stagnationEps = 1e-6;
  /// Edges within this many sigmas of an accepted move are blocked for
  /// the rest of the iteration (paper 4.1: 2 sigma).
  double blockingSigmas = 2.0;
  /// Fraction of a merged shot that must lie inside the target (4.5: 90 %).
  double mergeInsideFraction = 0.9;

  // --- operation toggles (for the ablation benches; all on by default) ---
  bool enableBias = true;
  bool enableAddRemove = true;
  bool enableMerge = true;

  // --- robustness budgets (DESIGN.md "Failure model") -------------------
  /// Wall-clock budget per shape, milliseconds; 0 = unlimited. Enforced
  /// cooperatively at stage boundaries (Refiner iterations, merge passes,
  /// Verifier full-grid scans, coloring stages); on exhaustion the shape
  /// degrades to the rectangular-partition baseline instead of aborting
  /// the batch. nmax above is the companion iteration budget.
  double shapeTimeBudgetMs = 0.0;
  /// Cap on the estimated per-shape grid memory (bytes across the inside
  /// mask, class grid, prefix sums and intensity map); 0 = unlimited.
  /// A shape whose halo-inflated grid would exceed the cap degrades
  /// before the allocation happens.
  std::int64_t maxGridBytes = 0;
  /// Deterministic fault-injection hook (tests only; see
  /// support/fault_injector.h). Non-owning; nullptr = no faults.
  const FaultInjector* faultInjector = nullptr;

  ProximityModel makeModel() const {
    return ProximityModel(sigma, rho, backscatterEta, backscatterSigma);
  }

  /// Lth actually used: the explicit override, or the model-derived value.
  /// The derivation is memoized per model in the ebeam layer, so every
  /// Problem of a run after the first gets it without recomputing.
  double resolvedLth(const ProximityModel& model) const {
    return lth > 0.0 ? lth : model.computeLth(gamma);
  }
};

}  // namespace mbf
