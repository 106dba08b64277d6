// Raw GDSII byte builders for tests that need records writeGds never
// emits (PATH, BOX, STRANS, MAG, ANGLE, TEXT, properties). Shared by the
// parser unit tests and the CLI corpus replay so both feed the same
// bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace mbf::gds_bytes {

enum : std::uint16_t {
  kHeader = 0x0002,
  kBgnLib = 0x0102,
  kLibName = 0x0206,
  kUnits = 0x0305,
  kEndLib = 0x0400,
  kBgnStr = 0x0502,
  kStrName = 0x0606,
  kEndStr = 0x0700,
  kBoundary = 0x0800,
  kPath = 0x0900,
  kSref = 0x0A00,
  kAref = 0x0B00,
  kText = 0x0C00,
  kLayer = 0x0D02,
  kDatatype = 0x0E02,
  kWidth = 0x0F03,
  kXy = 0x1003,
  kEndEl = 0x1100,
  kSname = 0x1206,
  kColrow = 0x1302,
  kTextType = 0x1602,
  kString = 0x1906,
  kStrans = 0x1A01,
  kMag = 0x1B05,
  kAngle = 0x1C05,
  kPropAttr = 0x2B02,
  kPropValue = 0x2C06,
  kBox = 0x2D00,
  kBoxType = 0x2E02,
};

// 8-byte excess-64 reals, spelled out: sign/exponent byte, then the
// base-16 mantissa.
inline const std::string kReal0(8, '\0');
inline const std::string kReal1("\x41\x10\0\0\0\0\0\0", 8);
inline const std::string kReal2("\x41\x20\0\0\0\0\0\0", 8);
inline const std::string kReal90("\x42\x5A\0\0\0\0\0\0", 8);

inline std::string u16(std::uint16_t v) {
  return {static_cast<char>(v >> 8), static_cast<char>(v & 0xFF)};
}

inline std::string i32s(std::initializer_list<std::int32_t> values) {
  std::string out;
  for (const std::int32_t v : values) {
    const auto u = static_cast<std::uint32_t>(v);
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<char>((u >> shift) & 0xFF));
    }
  }
  return out;
}

inline std::string record(std::uint16_t type,
                          const std::string& payload = {}) {
  std::string padded = payload;
  if (padded.size() % 2 != 0) padded.push_back('\0');
  return u16(static_cast<std::uint16_t>(4 + padded.size())) + u16(type) +
         padded;
}

/// A library with a CHILD cell holding one 100 x 60 BOUNDARY and a TOP
/// cell whose elements are `topBody`. `bodyOffset`, when given, receives
/// the byte offset at which `topBody` starts, so a test can name the
/// offset of the record it planted.
inline std::string library(const std::string& topBody,
                           std::size_t* bodyOffset = nullptr) {
  std::string out = record(kHeader, u16(600)) +
                    record(kBgnLib, std::string(24, '\0')) +
                    record(kLibName, "LIB") +
                    record(kUnits, "\x3E\x41\x89\x37\x4B\xC6\xA7\xF0"
                                   "\x39\x44\xB8\x2F\xA0\x9B\x5A\x54") +
                    record(kBgnStr, std::string(24, '\0')) +
                    record(kStrName, "CHILD") + record(kBoundary) +
                    record(kLayer, u16(1)) + record(kDatatype, u16(0)) +
                    record(kXy, i32s({0, 0, 100, 0, 100, 60, 0, 60, 0, 0})) +
                    record(kEndEl) + record(kEndStr) +
                    record(kBgnStr, std::string(24, '\0')) +
                    record(kStrName, "TOP");
  if (bodyOffset != nullptr) *bodyOffset = out.size();
  return out + topBody + record(kEndStr) + record(kEndLib);
}

/// SREF to CHILD at (200, 0) with `transform` (STRANS/MAG/ANGLE
/// records) between SNAME and XY, where the format puts them.
inline std::string srefWith(const std::string& transform) {
  return record(kSref) + record(kSname, "CHILD") + transform +
         record(kXy, i32s({200, 0})) + record(kEndEl);
}

/// 2 x 1 AREF of CHILD with `transform` between COLROW and XY.
inline std::string arefWith(const std::string& transform) {
  return record(kAref) + record(kSname, "CHILD") +
         record(kColrow, u16(2) + u16(1)) + transform +
         record(kXy, i32s({0, 200, 400, 200, 0, 300})) + record(kEndEl);
}

}  // namespace mbf::gds_bytes
