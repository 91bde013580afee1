#include "common/crc32.h"

#include <array>

#include "common/coding.h"

namespace complydb {

namespace {

// Slice-by-8 tables for the reflected IEEE polynomial. Row 0 is the
// classic bytewise table; row k maps a byte to its CRC contribution when
// k more bytes follow it, so eight rows fold eight input bytes per step.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

}  // namespace

uint32_t Crc32Extend(uint32_t crc, Slice data) {
  const auto& t = kTables;
  const char* p = data.data();
  size_t n = data.size();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = DecodeFixed32(p) ^ c;
    uint32_t hi = DecodeFixed32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(Slice data) { return Crc32Extend(0, data); }

}  // namespace complydb
