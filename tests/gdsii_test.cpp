// Tests for the GDSII subset: record encoding, 8-byte real round trip,
// polygon round trips, robustness against unknown records, and the
// loud refusal of records that would move or drop geometry.
#include <gtest/gtest.h>

#include <sstream>

#include "gds_record_bytes.h"
#include "io/gdsii.h"

namespace mbf {
namespace {

GdsLibrary sampleLib() {
  GdsLibrary lib;
  lib.libName = "TESTLIB";
  GdsStructure top;
  top.name = "CLIP0";
  GdsPolygon a;
  a.polygon = Polygon({{0, 0}, {100, 0}, {100, 50}, {0, 50}});
  a.layer = 7;
  a.datatype = 1;
  GdsPolygon b;
  b.polygon = Polygon({{-20, -30}, {40, -30}, {40, 10}, {10, 10}, {10, 40},
                       {-20, 40}});
  b.layer = 7;
  top.polygons = {a, b};
  lib.structures = {top};
  return lib;
}

TEST(GdsiiTest, RoundTripPolygons) {
  const GdsLibrary lib = sampleLib();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  ASSERT_EQ(back.structures.size(), 1u);
  const GdsStructure& s0 = back.structures[0];
  ASSERT_EQ(s0.polygons.size(), 2u);
  EXPECT_EQ(s0.polygons[0].polygon.vertices(),
            lib.structures[0].polygons[0].polygon.vertices());
  EXPECT_EQ(s0.polygons[1].polygon.vertices(),
            lib.structures[0].polygons[1].polygon.vertices());
  EXPECT_EQ(s0.polygons[0].layer, 7);
  EXPECT_EQ(s0.polygons[0].datatype, 1);
  EXPECT_EQ(back.libName, "TESTLIB");
  EXPECT_EQ(s0.name, "CLIP0");
}

TEST(GdsiiTest, UnitsRoundTrip) {
  GdsLibrary lib = sampleLib();
  lib.userUnitsPerDbUnit = 1e-3;
  lib.metersPerDbUnit = 1e-9;
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  EXPECT_NEAR(back.userUnitsPerDbUnit, 1e-3, 1e-12);
  EXPECT_NEAR(back.metersPerDbUnit, 1e-9, 1e-18);
}

TEST(GdsiiTest, NegativeCoordinatesSurvive) {
  GdsLibrary lib;
  GdsPolygon p;
  p.polygon = Polygon({{-1000000, -2}, {5, -2}, {5, 3000000}});
  lib.structures = {GdsStructure{"T", {p}, {}, {}}};
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  ASSERT_EQ(back.structures.size(), 1u);
  const auto& polys = back.structures[0].polygons;
  ASSERT_EQ(polys.size(), 1u);
  EXPECT_EQ(polys[0].polygon[0], Point(-1000000, -2));
  EXPECT_EQ(polys[0].polygon[2], Point(5, 3000000));
}

TEST(GdsiiTest, EmptyLibrary) {
  GdsLibrary lib;
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  // Nothing to flatten: the checked traversal names the empty library.
  std::vector<GdsPolygon> flat;
  const Status st = flattenGdsChecked(back, "", flat);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.str();
  EXPECT_TRUE(flat.empty());
}

TEST(GdsiiTest, GarbageRejected) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ss << "this is not gdsii at all, definitely";
  GdsLibrary back;
  EXPECT_FALSE(parseGds(ss, back).ok());
}

TEST(GdsiiTest, TruncatedStreamRejected) {
  const GdsLibrary lib = sampleLib();
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(full, lib);
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2),
                              std::ios::in | std::ios::binary);
  GdsLibrary back;
  EXPECT_FALSE(parseGds(truncated, back).ok());
}

TEST(GdsiiTest, FileRoundTrip) {
  const GdsLibrary lib = sampleLib();
  const std::string path = "gdsii_test_tmp.gds";
  ASSERT_TRUE(saveGds(path, lib));
  GdsLibrary back;
  ASSERT_TRUE(parseGdsFile(path, back).ok());
  std::vector<GdsPolygon> flat;
  ASSERT_TRUE(flattenGdsChecked(back, "", flat).ok());
  EXPECT_EQ(flat.size(), 2u);
  std::remove(path.c_str());
}

TEST(GdsiiTest, OddLengthNamesPadded) {
  GdsLibrary lib = sampleLib();
  lib.libName = "ODD";  // 3 chars -> padded to 4 on disk
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  EXPECT_EQ(back.libName, "ODD");
}

// --- records refused on read --------------------------------------------

namespace gb = gds_bytes;

// Parses `bytes` and expects kUnsupported naming `record` at `offset`.
void expectRefused(const std::string& bytes, const std::string& record,
                   std::size_t offset) {
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  GdsLibrary lib;
  const Status st = parseGds(ss, lib);
  EXPECT_EQ(st.code(), StatusCode::kUnsupported) << st.str();
  EXPECT_EQ(st.byteOffset(), static_cast<std::int64_t>(offset)) << st.str();
  EXPECT_NE(st.message().find(record), std::string::npos) << st.str();
}

TEST(GdsiiTest, PathElementIsRefused) {
  std::size_t at = 0;
  const std::string bytes = gb::library(
      gb::record(gb::kPath) + gb::record(gb::kLayer, gb::u16(1)) +
          gb::record(gb::kDatatype, gb::u16(0)) +
          gb::record(gb::kWidth, gb::i32s({10})) +
          gb::record(gb::kXy, gb::i32s({0, 0, 100, 0})) +
          gb::record(gb::kEndEl),
      &at);
  expectRefused(bytes, "PATH", at);
}

TEST(GdsiiTest, BoxElementIsRefused) {
  std::size_t at = 0;
  const std::string bytes = gb::library(
      gb::record(gb::kBox) + gb::record(gb::kLayer, gb::u16(1)) +
          gb::record(gb::kBoxType, gb::u16(0)) +
          gb::record(gb::kXy,
                     gb::i32s({0, 0, 50, 0, 50, 50, 0, 50, 0, 0})) +
          gb::record(gb::kEndEl),
      &at);
  expectRefused(bytes, "BOX", at);
}

TEST(GdsiiTest, MirroredReferenceIsRefused) {
  std::size_t at = 0;
  const std::string bytes = gb::library(
      gb::srefWith(gb::record(gb::kStrans, gb::u16(0x8000))), &at);
  // The STRANS record follows the SREF and SNAME headers.
  expectRefused(bytes, "STRANS",
                at + gb::record(gb::kSref).size() +
                    gb::record(gb::kSname, "CHILD").size());
}

TEST(GdsiiTest, MagnifiedReferenceIsRefused) {
  std::size_t at = 0;
  const std::string bytes = gb::library(
      gb::arefWith(gb::record(gb::kStrans, gb::u16(0)) +
                   gb::record(gb::kMag, gb::kReal2)),
      &at);
  expectRefused(bytes, "MAG",
                at + gb::record(gb::kAref).size() +
                    gb::record(gb::kSname, "CHILD").size() +
                    gb::record(gb::kColrow, gb::u16(2) + gb::u16(1)).size() +
                    gb::record(gb::kStrans, gb::u16(0)).size());
}

TEST(GdsiiTest, RotatedReferenceIsRefused) {
  std::size_t at = 0;
  const std::string bytes = gb::library(
      gb::srefWith(gb::record(gb::kStrans, gb::u16(0)) +
                   gb::record(gb::kAngle, gb::kReal90)),
      &at);
  expectRefused(bytes, "ANGLE",
                at + gb::record(gb::kSref).size() +
                    gb::record(gb::kSname, "CHILD").size() +
                    gb::record(gb::kStrans, gb::u16(0)).size());
}

/// A COLROW cols x rows AREF of CHILD with XY `xy` (origin, column
/// corner, row corner); `xyOffset` receives the XY record's offset.
std::string arefLibrary(std::uint16_t cols, std::uint16_t rows,
                        std::initializer_list<std::int32_t> xy,
                        std::size_t* xyOffset) {
  std::size_t at = 0;
  const std::string head = gb::record(gb::kAref) +
                           gb::record(gb::kSname, "CHILD") +
                           gb::record(gb::kColrow, gb::u16(cols) + gb::u16(rows));
  const std::string bytes = gb::library(
      head + gb::record(gb::kXy, gb::i32s(xy)) + gb::record(gb::kEndEl), &at);
  *xyOffset = at + head.size();
  return bytes;
}

TEST(GdsiiTest, ArefPitchIsExactInt64OrRefused) {
  std::size_t at = 0;
  // A 3-column AREF spanning 200 nm has no integer pitch; truncating it
  // would place instances at 0, 66, 132 instead of where it was drawn.
  const std::string inexact =
      arefLibrary(3, 1, {0, 0, 200, 0, 0, 100}, &at);
  expectRefused(inexact, "AREF XY", at);
  // A pitch that only int64 can hold (one column spanning 4e9 nm).
  const std::string wide = arefLibrary(
      1, 1, {-2000000000, 0, 2000000000, 0, -2000000000, 50}, &at);
  expectRefused(wide, "AREF XY", at);

  // The same span over 2 columns: exact, and only int64 arithmetic gets
  // it right (the int32 difference of the corners overflows).
  const std::string bytes =
      arefLibrary(2, 1, {-2000000000, 0, 2000000000, 0, -2000000000, 50}, &at);
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  GdsLibrary lib;
  const Status st = parseGds(ss, lib);
  ASSERT_TRUE(st.ok()) << st.str();
  const GdsStructure* top = lib.findStructure("TOP");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->arefs.size(), 1u);
  EXPECT_EQ(top->arefs[0].columnPitch, Point(2000000000, 0));
  EXPECT_EQ(top->arefs[0].rowPitch, Point(0, 50));
}

TEST(GdsiiTest, IdentityTransformsAndGeometryFreeRecordsPass) {
  // Identity STRANS/MAG/ANGLE on references, a rotated and magnified
  // TEXT label, and element properties: none of them moves geometry.
  const std::string identity = gb::record(gb::kStrans, gb::u16(0)) +
                               gb::record(gb::kMag, gb::kReal1) +
                               gb::record(gb::kAngle, gb::kReal0);
  const std::string text =
      gb::record(gb::kText) + gb::record(gb::kLayer, gb::u16(5)) +
      gb::record(gb::kTextType, gb::u16(0)) +
      gb::record(gb::kStrans, gb::u16(0x8000)) +
      gb::record(gb::kMag, gb::kReal2) +
      gb::record(gb::kAngle, gb::kReal90) +
      gb::record(gb::kXy, gb::i32s({5, 5})) +
      gb::record(gb::kString, "LABEL") + gb::record(gb::kEndEl);
  const std::string property = gb::record(gb::kPropAttr, gb::u16(1)) +
                               gb::record(gb::kPropValue, "NOTE");
  const std::string bytes =
      gb::library(gb::srefWith(identity + property) +
                  gb::arefWith(identity) + text);
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  GdsLibrary lib;
  const Status st = parseGds(ss, lib);
  ASSERT_TRUE(st.ok()) << st.str();
  std::vector<GdsPolygon> flat;
  ASSERT_TRUE(flattenGdsChecked(lib, "TOP", flat).ok());
  // One SREF instance plus a 2 x 1 AREF of the one-polygon CHILD.
  EXPECT_EQ(flat.size(), 3u);
}

}  // namespace
}  // namespace mbf
