#include "storage/page_codec.h"

#include <array>
#include <string>

namespace stindex {
namespace {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) by slicing-by-8:
// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so eight table lookups
// fold eight input bytes per step.
constexpr uint32_t kCrcPolynomial = 0xEDB88320u;
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kCrcPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

// GF(2) polynomials modulo the CRC polynomial P, in the reflected bit
// order of the CRC register: bit 31 is x^0. Feeding n zero bytes to a
// raw CRC register (no pre- or post-inversion) multiplies it by
// x^(8n) mod P, which is what lets CRCs of consecutive pieces combine.
constexpr uint32_t kPolyOne = 0x80000000u;  // x^0

// a * b mod P.
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = kPolyOne; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ kCrcPolynomial : b >> 1;
  }
  return product;
}

// x^(8 * bytes) mod P, by squaring.
uint32_t ZeroBytesOperator(uint64_t bytes) {
  uint32_t result = kPolyOne;
  uint32_t power = kPolyOne >> 8;  // x^8: one zero byte
  for (; bytes != 0; bytes >>= 1) {
    if ((bytes & 1) != 0) result = MultModP(power, result);
    power = MultModP(power, power);
  }
  return result;
}

// Crc32 runs four lanes of kLaneBytes each per round: kLaneBytes is the
// largest multiple of 8 that lets one round cover the 4092 bytes a page
// seal checksums (a full page leaves a 32-byte tail). The lanes are
// independent slicing-by-8 chains, so their table lookups overlap; the
// round then folds them left to right, advancing a raw register over
// kLaneBytes zero bytes with the four tables below (the advance is
// linear in the register's bytes).
constexpr size_t kCrcLanes = 4;
constexpr size_t kLaneBytes = (kPageSize - 4) / kCrcLanes / 8 * 8;  // 1016

using ShiftTables = std::array<std::array<uint32_t, 256>, 4>;

ShiftTables BuildShiftTables() {
  const uint32_t op = ZeroBytesOperator(kLaneBytes);
  ShiftTables tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    for (size_t k = 0; k < tables.size(); ++k) {
      tables[k][b] = MultModP(op, b << (8 * k));
    }
  }
  return tables;
}

uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void StoreU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v & 0xff);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v & 0xff);
  p[1] = static_cast<uint8_t>((v >> 8) & 0xff);
  p[2] = static_cast<uint8_t>((v >> 16) & 0xff);
  p[3] = static_cast<uint8_t>((v >> 24) & 0xff);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  static const CrcTables kTables = BuildCrcTables();
  static const ShiftTables kShift = BuildShiftTables();
  // One slicing-by-8 step: the raw register `c` after eight more bytes.
  const auto step = [](uint32_t c, const uint8_t* p) {
    const uint32_t lo = LoadU32(p) ^ c;
    const uint32_t hi = LoadU32(p + 4);
    return kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
           kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
           kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
           kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  };
  const auto shift_lane = [](uint32_t c) {
    return kShift[0][c & 0xffu] ^ kShift[1][(c >> 8) & 0xffu] ^
           kShift[2][(c >> 16) & 0xffu] ^ kShift[3][c >> 24];
  };
  uint32_t c = 0xFFFFFFFFu;
  constexpr size_t kRoundBytes = kCrcLanes * kLaneBytes;
  for (; size >= kRoundBytes; data += kRoundBytes, size -= kRoundBytes) {
    // Lane 0 continues the running register; lanes 1-3 start from zero
    // and are shifted past the lanes after them when folded in.
    uint32_t c0 = c;
    uint32_t c1 = 0;
    uint32_t c2 = 0;
    uint32_t c3 = 0;
    for (size_t i = 0; i < kLaneBytes; i += 8) {
      c0 = step(c0, data + i);
      c1 = step(c1, data + kLaneBytes + i);
      c2 = step(c2, data + 2 * kLaneBytes + i);
      c3 = step(c3, data + 3 * kLaneBytes + i);
    }
    c = shift_lane(shift_lane(shift_lane(c0) ^ c1) ^ c2) ^ c3;
  }
  for (; size >= 8; data += 8, size -= 8) c = step(c, data);
  for (; size > 0; ++data, --size) {
    c = kTables[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t size_b) {
  return MultModP(ZeroBytesOperator(size_b), crc_a) ^ crc_b;
}

void SealPage(uint8_t* page, PageKind kind) {
  StoreU16(page + 4, static_cast<uint16_t>(kind));
  StoreU16(page + 6, kPageCodecVersion);
  StoreU32(page, Crc32(page + 4, kPageSize - 4));
}

uint32_t SealedPageCrc32(const uint8_t* page) {
  // Crc32Combine with its operator for the kPageSize - 4 sealed bytes
  // computed once.
  static const uint32_t kSealedBytes = ZeroBytesOperator(kPageSize - 4);
  return MultModP(kSealedBytes, Crc32(page, 4)) ^ LoadU32(page);
}

Result<PageReader> OpenPagePayload(const uint8_t* page, PageKind kind,
                                   PageId id) {
  const uint32_t stored_crc = LoadU32(page);
  const uint32_t actual_crc = Crc32(page + 4, kPageSize - 4);
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": checksum mismatch (corrupt page)");
  }
  const uint16_t stored_kind = LoadU16(page + 4);
  if (stored_kind != static_cast<uint16_t>(kind)) {
    return Status::InvalidArgument(
        "page " + std::to_string(id) + ": kind mismatch (got " +
        std::to_string(stored_kind) + ", want " +
        std::to_string(static_cast<uint16_t>(kind)) + ")");
  }
  const uint16_t version = LoadU16(page + 6);
  if (version != kPageCodecVersion) {
    return Status::InvalidArgument(
        "page " + std::to_string(id) + ": unsupported codec version " +
        std::to_string(version) + " (supported: " +
        std::to_string(kPageCodecVersion) + ")");
  }
  return PageReader(page + kPageEnvelopeBytes, kPagePayloadBytes);
}

}  // namespace stindex
