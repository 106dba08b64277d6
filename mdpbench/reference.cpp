// mdpbench_ref -- the benchmark's fixed reference kernel.
//
//   mdpbench_ref
//
// The end-to-end timings are reported in multiples of this kernel's
// time, measured right before and after each timed mbf_cli run, so a
// host whose single-thread speed drifts (shared cores, neighbours'
// load) moves both alike and the ratio holds still. The kernel mixes
// three kinds of work the fracturer does: double-precision erf over a
// small raster (the e-beam intensity model), dependent irregular loads
// from a table the size of a core's L2 cache (grid and ledger lookups),
// and ordered-map churn that allocates and frees small nodes (candidate
// bookkeeping). On a shared 4-core VM this mix followed mbf_cli's run
// time more closely than any one of its parts, or than branchy sorting
// or DRAM-sized pointer chasing (see README.md). It depends on nothing
// in the mbf sources, so no change to the program under test can change
// it. Prints a checksum so the work cannot be optimized away.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

namespace {

constexpr int kGrid = 192;
constexpr int kRasterPasses = 60;
constexpr std::size_t kTableEntries = 1 << 16;  // 256 KiB of uint32_t
constexpr long kChaseSteps = 8'000'000;
constexpr int kMapOps = 600'000;
constexpr std::size_t kMapCap = 5000;

/// 64-bit LCG step (Knuth's MMIX constants).
std::uint64_t lcg(std::uint64_t& h) {
  h = h * 6364136223846793005ull + 1442695040888963407ull;
  return h;
}

/// Blur-and-threshold passes of an erf profile over the grid.
double raster() {
  std::vector<double> a(kGrid * kGrid), b(kGrid * kGrid, 0.0);
  for (int i = 0; i < kGrid * kGrid; ++i) {
    a[static_cast<std::size_t>(i)] = (i % 97) * 0.01;
  }
  for (int pass = 0; pass < kRasterPasses; ++pass) {
    for (int y = 1; y < kGrid - 1; ++y) {
      for (int x = 1; x < kGrid - 1; ++x) {
        const std::size_t i = static_cast<std::size_t>(y * kGrid + x);
        const double s = 0.2 * (a[i] + a[i - 1] + a[i + 1] + a[i - kGrid] +
                                a[i + kGrid]);
        b[i] = std::erf(s - 0.5) + (s > 0.3 ? 0.01 : -0.01);
      }
    }
    a.swap(b);
  }
  return a[kGrid * 3 + 7];
}

/// Follows one random cycle through the whole table.
std::uint32_t chase() {
  std::vector<std::uint32_t> perm(kTableEntries);
  std::iota(perm.begin(), perm.end(), 0u);
  std::uint64_t h = 12345;
  for (std::size_t i = kTableEntries - 1; i > 0; --i) {
    std::swap(perm[i], perm[lcg(h) % i]);
  }
  std::vector<std::uint32_t> next(kTableEntries);
  for (std::size_t i = 0; i < kTableEntries; ++i) {
    next[perm[i]] = perm[(i + 1) % kTableEntries];
  }
  std::uint32_t at = 0;
  for (long s = 0; s < kChaseSteps; ++s) at = next[at];
  return at;
}

/// Inserts into and trims an ordered map of at most kMapCap keys.
std::size_t churn() {
  std::map<std::uint64_t, double> m;
  std::uint64_t h = 7;
  for (int i = 0; i < kMapOps; ++i) {
    m[lcg(h) >> 44] += 1.0;
    if (m.size() > kMapCap) m.erase(m.begin());
  }
  return m.size();
}

}  // namespace

int main() {
  const double r = raster();
  const std::uint64_t checksum =
      static_cast<std::uint64_t>(std::llround(r * 1e9)) + chase() + churn();
  std::printf("%llu\n", static_cast<unsigned long long>(checksum));
  return 0;
}
