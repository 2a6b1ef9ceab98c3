#include "storage/page_codec.h"

#include <array>
#include <string>

namespace stindex {
namespace {

// Slicing-by-8 CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so eight table lookups
// fold eight input bytes per step.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
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
  uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = LoadU32(data) ^ c;
    const uint32_t hi = LoadU32(data + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = kTables[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void SealPage(uint8_t* page, PageKind kind) {
  StoreU16(page + 4, static_cast<uint16_t>(kind));
  StoreU16(page + 6, kPageCodecVersion);
  StoreU32(page, Crc32(page + 4, kPageSize - 4));
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
