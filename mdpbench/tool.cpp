// mdpbench_tool -- the compiled half of the end-to-end MDP benchmark.
//
//   mdpbench_tool gen --workload=<name> --seed=<n> --dir=<d> [--smoke]
//       writes the workload's inputs into <d>: input.poly for the flat
//       workloads; earlier.gds (fills the cell cache), input.gds (the
//       timed revision) and verify.gds (its 2 x 2-instance companion for
//       mbf_cli --verify) for hier_revision.
//
//   mdpbench_tool pass --workload=<name> --input=<path> --out-dir=<d>
//                      [--cache-dir=<c>] [--no-trace]
//       runs the in-process pass (traced_pass.h) and prints one JSON
//       line; with tracing on it also writes <d>/spans.json.
//
// run.py drives both; see README.md.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "io/atomic_file.h"
#include "traced_pass.h"
#include "workloads.h"

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string jsonObject(const std::map<std::string, double>& values) {
  std::string s = "{";
  for (const auto& [key, value] : values) {
    if (s.size() > 1) s += ", ";
    s += "\"" + key + "\": " + num(value);
  }
  return s + "}";
}

int usage() {
  std::cerr << "usage: mdpbench_tool gen --workload=W --seed=N --dir=D "
               "[--smoke]\n"
               "       mdpbench_tool pass --workload=W --input=P "
               "--out-dir=D [--cache-dir=C] [--no-trace]\n";
  return 2;
}

int gen(const std::map<std::string, std::string>& flags) {
  const auto workload = flags.find("--workload");
  const auto seedFlag = flags.find("--seed");
  const auto dir = flags.find("--dir");
  if (workload == flags.end() || seedFlag == flags.end() ||
      dir == flags.end()) {
    return usage();
  }
  std::uint64_t seed = 0;
  try {
    seed = std::stoull(seedFlag->second);
  } catch (...) {
    return usage();
  }
  const mdpbench::Sizes sizes = flags.count("--smoke") != 0
                                    ? mdpbench::Sizes::smoke()
                                    : mdpbench::Sizes::full();
  mbf::Status st;
  if (workload->second == "ilt_flat") {
    st = mdpbench::writeIltFlat(seed, sizes, dir->second + "/input.poly");
  } else if (workload->second == "contact_flat") {
    st = mdpbench::writeContactFlat(seed, sizes, dir->second + "/input.poly");
  } else if (workload->second == "hier_revision") {
    st = mdpbench::writeHierRevision(seed, sizes, dir->second + "/earlier.gds",
                                     dir->second + "/input.gds",
                                     dir->second + "/verify.gds");
  } else {
    std::cerr << "unknown workload " << workload->second << "\n";
    return 2;
  }
  if (!st.ok()) {
    std::cerr << "gen: " << st.str() << "\n";
    return 3;
  }
  return 0;
}

int pass(const std::map<std::string, std::string>& flags) {
  mdpbench::PassOptions options;
  for (const auto& [key, value] : flags) {
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--input") {
      options.inputPath = value;
    } else if (key == "--out-dir") {
      options.outDir = value;
    } else if (key == "--cache-dir") {
      options.cacheDir = value;
    } else if (key == "--no-trace") {
      options.trace = false;
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || options.inputPath.empty() ||
      options.outDir.empty()) {
    return usage();
  }
  options.hier = options.inputPath.size() > 4 &&
                 options.inputPath.substr(options.inputPath.size() - 4) ==
                     ".gds";
  if (options.hier && options.cacheDir.empty()) return usage();

  mdpbench::PassResult result;
  const mbf::Status st = mdpbench::runPass(options, result);
  if (!st.ok()) {
    std::cerr << "pass: " << st.str() << "\n";
    return 3;
  }
  if (options.trace) {
    const mbf::Status ws = mbf::atomicWriteFile(
        options.outDir + "/spans.json", mdpbench::spansJson(result));
    if (!ws.ok()) {
      std::cerr << "pass: " << ws.str() << "\n";
      return 3;
    }
  }
  std::cout << "{\"total_s\": " << num(result.totalSeconds)
            << ", \"shots_sha256\": \"" << result.shotsSha256
            << "\", \"shapes\": " << result.shapes
            << ", \"shots\": " << result.shots
            << ", \"fail_px\": " << result.failingPx
            << ", \"spans\": " << result.spans.size()
            << ", \"metrics\": " << jsonObject(result.metrics)
            << ", \"layer_self_s\": " << jsonObject(result.layerSelfSeconds)
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    flags[arg.substr(0, eq)] =
        eq == std::string::npos ? std::string{} : arg.substr(eq + 1);
  }
  if (command == "gen") return gen(flags);
  if (command == "pass") return pass(flags);
  return usage();
}
