// Seeded workload generators of the end-to-end MDP benchmark. Every
// input is built from the in-repo generators (benchgen) and written with
// the in-repo writers (io), so the program under test only ever sees the
// files these functions produce. The same seed and size give the same
// bytes.
#pragma once

#include <cstdint>
#include <string>

#include "support/status.h"

namespace mdpbench {

/// Workload sizes. `full()` is what a timed run uses; `smoke()` is the
/// few-second variant the benchmark's own tests drive.
struct Sizes {
  int iltClips = 0;          ///< unique ILT clips in ilt_flat
  int contactUnique = 0;     ///< distinct contact shapes in contact_flat
  int contactRepeatMin = 0;  ///< copies of each distinct contact shape
  int contactRepeatMax = 0;
  int hierCells = 0;         ///< unique cells in hier_revision
  int hierGrid = 0;          ///< each cell sits in a hierGrid^2 AREF

  static Sizes full();
  static Sizes smoke();
};

/// ilt_flat: `iltClips` curvilinear ILT-like clips (varied feature
/// counts and diagonals), pairwise distinct, as one flat .poly layout.
mbf::Status writeIltFlat(std::uint64_t seed, const Sizes& sizes,
                         const std::string& polyPath);

/// contact_flat: `contactUnique` tiny jogged Manhattan shapes, each
/// repeated a few times at whole-pixel offsets, shuffled, as one flat
/// .poly layout.
mbf::Status writeContactFlat(std::uint64_t seed, const Sizes& sizes,
                             const std::string& polyPath);

/// hier_revision: two revisions of one hierarchical layout. Each of the
/// `hierCells` unique cells (ILT clips and small contact clusters) is
/// placed by one AREF; the cells are the same at every seed, which
/// orders and places the AREFs. The earlier revision, which fills the
/// cell cache, differs from the later one in a fixed quarter of its
/// cells. The companion is the later revision with every AREF cut to
/// 2 x 2: the same unique cells in a layout small enough for
/// `mbf_cli --verify` to re-check densely.
mbf::Status writeHierRevision(std::uint64_t seed, const Sizes& sizes,
                              const std::string& earlierGdsPath,
                              const std::string& laterGdsPath,
                              const std::string& companionGdsPath);

}  // namespace mdpbench
