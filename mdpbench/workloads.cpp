#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "benchgen/opc_synth.h"
#include "io/gdsii.h"
#include "io/poly_io.h"

namespace mdpbench {
namespace {

/// splitmix64: a tiny, fully specified generator, so the inputs depend
/// on the seed alone and never on the standard library's distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                              hi - lo + 1));
  }
  std::uint32_t seed32() { return static_cast<std::uint32_t>(next()); }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Independent streams per workload, so resizing one leaves the others'
/// inputs unchanged.
Rng streamFor(std::uint64_t seed, std::uint64_t workload) {
  return Rng(seed * 0x100000001B3ull ^ (workload << 56));
}

/// Translation-invariant signature: the vertex list relative to the
/// bounding-box corner. Two shapes with equal signatures are the same
/// shape at a different whole-pixel offset.
std::vector<int> signature(const mbf::Polygon& p) {
  const mbf::Rect box = p.bbox();
  std::vector<int> sig;
  sig.reserve(2 * p.size());
  for (const mbf::Point& v : p.vertices()) {
    sig.push_back(v.x - box.x0);
    sig.push_back(v.y - box.y0);
  }
  return sig;
}

/// Moves `p` so its bounding box starts at `at`.
mbf::Polygon placedAt(mbf::Polygon p, mbf::Point at) {
  const mbf::Rect box = p.bbox();
  p.translate({at.x - box.x0, at.y - box.y0});
  return p;
}

/// ILT-like clip number `slot` of a workload. The feature ladder is
/// fixed per slot -- 2-5 arms, 0-2 diagonals, widths and lengths around
/// the Table-2 stand-in suite (benchgen iltSuiteConfigs) -- and the seed
/// only moves the features, so every seed draws the same mix of easy
/// and hard clips.
mbf::Polygon iltClip(Rng& rng, int slot) {
  mbf::IltSynthConfig c;
  c.seed = rng.seed32();
  c.numFeatures = 2 + slot % 4;
  c.numDiagonals = (slot / 4) % 3;
  c.minWidth = 13 + slot % 3;
  c.maxWidth = 20 + slot % 6;
  c.minLength = 25 + 2 * (slot % 10);
  c.maxLength = 60 + 4 * (slot % 10);
  c.diagSteps = 4 + slot % 5;
  c.diagWidth = 14 + slot % 4;
  return mbf::makeIltShape(c);
}

/// Tiny jogged Manhattan contact number `slot`: a size ladder of 20-45 x
/// 16-32 nm with 1-2 nm jogs every 6-12 nm, fixed per slot, and a jog
/// pattern drawn from `patternSeed`. `widen` grows the width, for a slot
/// whose jog patterns all repeat earlier shapes.
mbf::Polygon contact(std::uint32_t patternSeed, int slot, int widen = 0) {
  mbf::OpcSynthConfig c;
  c.seed = patternSeed;
  c.width = 20 + (slot * 11) % 26 + widen;
  c.height = 16 + (slot * 7) % 17;
  c.segmentLength = 6 + slot % 7;
  c.maxJog = 1 + slot % 2;
  c.tShaped = false;
  return mbf::makeOpcShape(c);
}

/// Draws shapes for slots 0, 1, ... until `count` pairwise-distinct
/// ones exist. A duplicate is redrawn for the same slot; `draw(slot,
/// retries)` sees how often, so it can leave a slot whose variants are
/// exhausted.
template <typename Draw>
std::vector<mbf::Polygon> distinctShapes(int count, Draw draw) {
  std::vector<mbf::Polygon> out;
  std::set<std::vector<int>> seen;
  int retries = 0;
  while (static_cast<int>(out.size()) < count) {
    mbf::Polygon p = draw(static_cast<int>(out.size()), retries);
    if (p.size() < 3 || !seen.insert(signature(p)).second) {
      ++retries;
      continue;
    }
    out.push_back(std::move(p));
    retries = 0;
  }
  return out;
}

/// Lays shapes out row-major on a square grid of the given pitch.
std::vector<mbf::Polygon> onGrid(std::vector<mbf::Polygon> shapes,
                                 int pitch) {
  const int columns = std::max(
      1, static_cast<int>(std::ceil(std::sqrt(double(shapes.size())))));
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const int col = static_cast<int>(i) % columns;
    const int row = static_cast<int>(i) / columns;
    shapes[i] = placedAt(std::move(shapes[i]), {col * pitch, row * pitch});
  }
  return shapes;
}

mbf::Status savePoly(const std::string& path,
                     const std::vector<mbf::Polygon>& shapes) {
  if (!mbf::savePolygons(path, shapes)) {
    return mbf::Status(mbf::StatusCode::kIoError, "cannot write " + path);
  }
  return {};
}

/// Geometry of hierarchical cell `index` in one revision: an ILT clip
/// (even cells) or a cluster of 2-4 contacts (odd cells), drawn from a
/// fixed stream keyed by the cell and its variant. Like a flat workload
/// slot, the cell is the same at every seed.
std::vector<mbf::GdsPolygon> cellGeometry(int index, int variant) {
  Rng rng = streamFor(0, 3);
  for (int i = 0; i < 2 * index + variant + 1; ++i) rng.next();
  Rng cellRng(rng.next());
  std::vector<mbf::GdsPolygon> polys;
  if (index % 2 == 0) {
    polys.push_back({placedAt(iltClip(cellRng, index / 2), {0, 0}), 1, 0});
  } else {
    const int n = 2 + (index / 2) % 3;
    for (int k = 0; k < n; ++k) {
      polys.push_back(
          {placedAt(contact(cellRng.seed32(), index + k), {k * 100, 0}), 1,
           0});
    }
  }
  return polys;
}

}  // namespace

Sizes Sizes::full() {
  Sizes s;
  s.iltClips = 8;
  s.contactUnique = 20;
  s.contactRepeatMin = 2;
  s.contactRepeatMax = 4;
  s.hierCells = 24;
  s.hierGrid = 24;
  return s;
}

Sizes Sizes::smoke() {
  Sizes s;
  s.iltClips = 3;
  s.contactUnique = 6;
  s.contactRepeatMin = 2;
  s.contactRepeatMax = 3;
  s.hierCells = 4;
  s.hierGrid = 4;
  return s;
}

mbf::Status writeIltFlat(std::uint64_t seed, const Sizes& sizes,
                         const std::string& polyPath) {
  // As in contact_flat, the clips are the same at every seed and the
  // seed orders and places them: seed-drawn clips changed the serial
  // work of the layout from seed to seed by more than the run-to-run
  // noise this benchmark can resolve.
  Rng clipRng = streamFor(0, 1);
  std::vector<mbf::Polygon> clips = distinctShapes(
      sizes.iltClips, [&](int slot, int) { return iltClip(clipRng, slot); });
  Rng rng = streamFor(seed, 1);
  rng.shuffle(clips);
  clips = onGrid(std::move(clips), 600);
  for (mbf::Polygon& p : clips) p.translate({rng.range(0, 99), rng.range(0, 99)});
  return savePoly(polyPath, clips);
}

mbf::Status writeContactFlat(std::uint64_t seed, const Sizes& sizes,
                             const std::string& polyPath) {
  // The contacts themselves do not depend on the seed: with 1-2 nm jogs
  // a few percent of them never converge and run all nmax refinement
  // iterations, so seed-drawn jog patterns would swing the work of a
  // 720-shape layout by half from seed to seed. The seed orders and
  // places them instead (fracturing is translation invariant).
  const std::vector<mbf::Polygon> unique = distinctShapes(
      sizes.contactUnique, [](int slot, int retries) {
        return contact(0x9E3779B9u * static_cast<std::uint32_t>(slot + 1) +
                           static_cast<std::uint32_t>(retries),
                       slot, retries / 8);
      });
  // Copies cycle through the repeat range by slot, so the shape count
  // is the same for every seed.
  const int span = sizes.contactRepeatMax - sizes.contactRepeatMin + 1;
  std::vector<mbf::Polygon> all;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    const int copies = sizes.contactRepeatMin + static_cast<int>(i) % span;
    for (int k = 0; k < copies; ++k) all.push_back(unique[i]);
  }
  Rng rng = streamFor(seed, 2);
  rng.shuffle(all);
  all = onGrid(std::move(all), 160);
  for (mbf::Polygon& p : all) p.translate({rng.range(0, 40), rng.range(0, 40)});
  return savePoly(polyPath, all);
}

mbf::Status writeHierRevision(std::uint64_t seed, const Sizes& sizes,
                              const std::string& earlierGdsPath,
                              const std::string& laterGdsPath,
                              const std::string& companionGdsPath) {
  // The cells are the same at every seed (seed-drawn cells moved the
  // shot count, and with it the instancing and output work, from seed
  // to seed), and so is the set that changed since the earlier
  // revision: every fourth ILT cell and every fourth contact cluster.
  // Which cells a seed picked would decide how much re-fracturing a run
  // does, since the cells differ in cost several times over. The seed
  // orders the AREFs, which sets the order of the plan, and places
  // them.
  const int cells = sizes.hierCells;
  std::vector<bool> isChanged(static_cast<std::size_t>(cells), false);
  for (int c = 0; c < cells; ++c) {
    isChanged[static_cast<std::size_t>(c)] = (c / 2) % 4 == 0;
  }
  Rng rng = streamFor(seed, 4);
  std::vector<int> order(static_cast<std::size_t>(cells));
  for (int i = 0; i < cells; ++i) order[static_cast<std::size_t>(i)] = i;
  rng.shuffle(order);
  std::vector<int> row(order);
  rng.shuffle(row);

  constexpr int kPitch = 600;
  const int rowSpan = sizes.hierGrid * kPitch + 10000;
  const std::pair<const std::string*, int> outputs[] = {
      {&earlierGdsPath, sizes.hierGrid},
      {&laterGdsPath, sizes.hierGrid},
      {&companionGdsPath, 2}};
  for (const auto& [path, grid] : outputs) {
    const bool earlier = path == &earlierGdsPath;
    mbf::GdsLibrary lib;
    mbf::GdsStructure top;
    top.name = "TOP";
    for (int i = 0; i < cells; ++i) {
      const int c = order[static_cast<std::size_t>(i)];
      const int variant =
          earlier && isChanged[static_cast<std::size_t>(c)] ? 1 : 0;
      mbf::GdsStructure cell;
      cell.name = "C" + std::to_string(c);
      cell.polygons = cellGeometry(c, variant);
      mbf::GdsAref aref;
      aref.structName = cell.name;
      aref.origin = {0, row[static_cast<std::size_t>(c)] * rowSpan};
      aref.columns = grid;
      aref.rows = grid;
      aref.columnPitch = {kPitch, 0};
      aref.rowPitch = {0, kPitch};
      top.arefs.push_back(aref);
      lib.structures.push_back(std::move(cell));
    }
    lib.structures.push_back(std::move(top));
    if (!mbf::saveGds(*path, lib)) {
      return mbf::Status(mbf::StatusCode::kIoError, "cannot write " + *path);
    }
  }
  return {};
}

}  // namespace mdpbench
