// Corpus replay: feeds a set of malformed / degenerate input files
// through the real mbf_cli binary and checks that every one of them is
// answered with the documented exit code -- never a crash, never a
// silent success. Run as:
//
//   mbf_corpus_replay <path-to-mbf_cli>
//
// Standalone driver (no gtest) because it exercises the CLI process
// boundary, not library internals.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gds_record_bytes.h"
#include "io/gdsii.h"
#include "mdp/checkpoint.h"
#include "support/journal.h"

namespace {

struct Case {
  std::string name;
  std::string file;
  std::string extraArgs;
  int wantExit = 0;
};

bool writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(os);
}

std::string validGdsBytes() {
  mbf::GdsLibrary lib;
  mbf::GdsStructure top;
  mbf::GdsPolygon gp;
  gp.polygon = mbf::Polygon({{0, 0}, {100, 0}, {100, 60}, {0, 60}});
  top.polygons.push_back(std::move(gp));
  lib.structures.push_back(std::move(top));
  std::stringstream ss;
  mbf::writeGds(ss, lib);
  return ss.str();
}

std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

int runCli(const std::string& cli, const Case& c, const std::string& outDir) {
  const std::string cmd = "'" + cli + "' '" + c.file + "' '" + outDir + "/" +
                          c.name + ".shots' " + c.extraArgs +
                          " > /dev/null 2> '" + outDir + "/" + c.name +
                          ".err'";
  const int raw = std::system(cmd.c_str());
  if (raw == -1) return -1;
#if defined(WIFEXITED)
  if (!WIFEXITED(raw)) return -2;  // killed by a signal = crash
  return WEXITSTATUS(raw);
#else
  return raw;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mbf_corpus_replay <path-to-mbf_cli>\n";
    return 2;
  }
  const std::string cli = argv[1];
  const std::string dir = "corpus_replay_tmp";
  std::system(("mkdir -p '" + dir + "'").c_str());

  const std::string gds = validGdsBytes();
  std::vector<Case> cases;
  // Case name -> text its stderr must contain next to a byte offset.
  std::map<std::string, std::string> wantMessage;

  // --- .poly corpus -----------------------------------------------------
  writeFile(dir + "/comments_only.poly", "# nothing here\n# still nothing\n");
  cases.push_back({"comments_only", dir + "/comments_only.poly", "", 3});

  writeFile(dir + "/two_point_ring.poly", "0 0\n10 0\n");
  cases.push_back({"two_point_ring", dir + "/two_point_ring.poly", "", 3});

  writeFile(dir + "/bad_lines_only.poly", "banana\napple pie crust\nx y\n");
  cases.push_back({"bad_lines_only", dir + "/bad_lines_only.poly", "", 3});

  // Symmetric bowtie: zero signed area, sanitation drops the ring and
  // the shape degrades to an empty solution -> exit 1.
  writeFile(dir + "/bowtie.poly", "0 0\n100 100\n100 0\n0 100\n");
  cases.push_back({"bowtie", dir + "/bowtie.poly", "", 1});

  writeFile(dir + "/duplicate_ring.poly", "5 5\n5 5\n5 5\n5 5\n");
  cases.push_back({"duplicate_ring", dir + "/duplicate_ring.poly", "", 1});

  // Strict mode turns that degradation into a hard failure.
  cases.push_back({"bowtie_strict", dir + "/bowtie.poly", "--strict", 4});

  // --- .gds corpus ------------------------------------------------------
  writeFile(dir + "/garbage.gds", "this is not a gds stream at all......");
  cases.push_back({"garbage", dir + "/garbage.gds", "", 3});

  writeFile(dir + "/truncated.gds", gds.substr(0, gds.size() / 2));
  cases.push_back({"truncated", dir + "/truncated.gds", "", 3});

  writeFile(dir + "/short_record.gds",
            std::string("\x00\x06\x00\x02\x02\x58", 6) +
                std::string("\x00\x02\x00\x02", 4));
  cases.push_back({"short_record", dir + "/short_record.gds", "", 3});

  writeFile(dir + "/overrun.gds",
            std::string("\x00\x06\x00\x02\x02\x58", 6) +
                std::string("\x40\x00\x10\x03", 4) +
                std::string(8, '\x00'));
  cases.push_back({"overrun", dir + "/overrun.gds", "", 3});

  // Records that would move or drop geometry: refused with the record
  // name and its byte offset, never fractured without them.
  namespace gb = mbf::gds_bytes;
  const std::vector<std::pair<std::string, std::string>> refused = {
      {"PATH", gb::library(gb::record(gb::kPath) +
                           gb::record(gb::kLayer, gb::u16(1)) +
                           gb::record(gb::kWidth, gb::i32s({10})) +
                           gb::record(gb::kXy, gb::i32s({0, 0, 100, 0})) +
                           gb::record(gb::kEndEl))},
      {"BOX", gb::library(gb::record(gb::kBox) +
                          gb::record(gb::kLayer, gb::u16(1)) +
                          gb::record(gb::kXy, gb::i32s({0, 0, 50, 0, 50, 50,
                                                        0, 50, 0, 0})) +
                          gb::record(gb::kEndEl))},
      {"STRANS", gb::library(gb::srefWith(
                     gb::record(gb::kStrans, gb::u16(0x8000))))},
      {"MAG", gb::library(gb::arefWith(gb::record(gb::kStrans, gb::u16(0)) +
                                        gb::record(gb::kMag, gb::kReal2)))},
      {"ANGLE",
       gb::library(gb::srefWith(gb::record(gb::kStrans, gb::u16(0)) +
                                gb::record(gb::kAngle, gb::kReal90)))},
  };
  for (const auto& [record, bytes] : refused) {
    const std::string file = dir + "/refused_" + record + ".gds";
    writeFile(file, bytes);
    for (const std::string mode : {"", "--hier"}) {
      const std::string name =
          "refused_" + record + (mode.empty() ? "" : "_hier");
      cases.push_back({name, file, mode, 3});
      wantMessage[name] = record;
    }
  }

  // An AREF whose corner span is no whole multiple of its 3 columns
  // (200 nm) has no integer pitch: refused, never placed at 0/66/132.
  writeFile(dir + "/aref_inexact_pitch.gds",
            gb::library(gb::record(gb::kAref) +
                        gb::record(gb::kSname, "CHILD") +
                        gb::record(gb::kColrow, gb::u16(3) + gb::u16(1)) +
                        gb::record(gb::kXy, gb::i32s({0, 0, 200, 0, 0, 100})) +
                        gb::record(gb::kEndEl)));
  for (const std::string mode : {"", "--hier"}) {
    const std::string name =
        std::string("aref_inexact_pitch") + (mode.empty() ? "" : "_hier");
    cases.push_back({name, dir + "/aref_inexact_pitch.gds", mode, 3});
    wantMessage[name] = "AREF XY";
  }

  // --- bad arguments on a valid file ------------------------------------
  writeFile(dir + "/valid.poly", "0 0\n80 0\n80 50\n0 50\n");

  // A per-shape journal of an older build: --resume refuses it (exit 3)
  // instead of replaying frames of a retired record kind.
  {
    mbf::LayoutShape shape;
    shape.rings.push_back(
        mbf::Polygon({{0, 0}, {80, 0}, {80, 50}, {0, 50}}));
    mbf::JournalWriter writer;
    mbf::ShapeRecord record;
    record.shapeIndex = 0;
    record.solution.shots = {mbf::Rect(0, 0, 80, 50)};
    const std::string journal = dir + "/older_build.jrnl";
    if (!writer
             .create(journal, mbf::journalMetaFor({shape}, mbf::BatchConfig{}),
                     mbf::JournalFsync::kNone)
             .ok() ||
        !writer.append(mbf::encodeShapeRecord(record)).ok()) {
      std::cerr << "cannot write " << journal << "\n";
      return 2;
    }
    cases.push_back({"older_build_journal", dir + "/valid.poly",
                     "--journal=" + journal + " --resume", 3});
  }
  cases.push_back({"neg_gamma", dir + "/valid.poly", "--gamma=-2", 2});
  cases.push_back({"bad_eta", dir + "/valid.poly", "--eta=1.5", 2});

  // And the happy path, to prove the harness itself works.
  cases.push_back({"valid", dir + "/valid.poly", "", 0});

  int failures = 0;
  for (const Case& c : cases) {
    const int got = runCli(cli, c, dir);
    const std::string err = readFile(dir + "/" + c.name + ".err");
    const auto want = wantMessage.find(c.name);
    const bool pass =
        got == c.wantExit &&
        (want == wantMessage.end() ||
         (err.find(want->second) != std::string::npos &&
          err.find("[offset ") != std::string::npos));
    std::printf("%-20s exit=%d want=%d  %s\n", c.name.c_str(), got,
                c.wantExit, pass ? "ok" : "FAIL");
    if (!pass && want != wantMessage.end()) {
      std::printf("  stderr (want '%s' and an offset): %s",
                  want->second.c_str(), err.c_str());
    }
    if (!pass) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d corpus case(s) failed\n", failures);
    return 1;
  }
  std::printf("all %zu corpus cases passed\n", cases.size());
  return 0;
}
