#include "src/common/crc32.h"

#include <array>

namespace aft {

namespace {

// kTables[0] is the classic bytewise table; kTables[k][b] is kTables[0][b]
// advanced through k more zero bytes. A byte that sits k bytes before the end
// of a 16-byte block indexes kTables[k], so a block resolves in 16
// independent lookups instead of a 16-step dependency chain.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

// Computed at compile time: no first-call guard, no static-init order hazard.
constexpr CrcTables kTables = BuildCrcTables();

// Little-endian word from bytes, whatever the host's byte order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Begin() { return 0xFFFFFFFFu; }

uint32_t Crc32Feed(uint32_t state, const void* data, size_t len) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  while (len >= 16) {
    const uint32_t w0 = LoadLe32(bytes) ^ state;
    const uint32_t w1 = LoadLe32(bytes + 4);
    const uint32_t w2 = LoadLe32(bytes + 8);
    const uint32_t w3 = LoadLe32(bytes + 12);
    state = kTables[15][w0 & 0xFFu] ^ kTables[14][(w0 >> 8) & 0xFFu] ^
            kTables[13][(w0 >> 16) & 0xFFu] ^ kTables[12][w0 >> 24] ^
            kTables[11][w1 & 0xFFu] ^ kTables[10][(w1 >> 8) & 0xFFu] ^
            kTables[9][(w1 >> 16) & 0xFFu] ^ kTables[8][w1 >> 24] ^
            kTables[7][w2 & 0xFFu] ^ kTables[6][(w2 >> 8) & 0xFFu] ^
            kTables[5][(w2 >> 16) & 0xFFu] ^ kTables[4][w2 >> 24] ^
            kTables[3][w3 & 0xFFu] ^ kTables[2][(w3 >> 8) & 0xFFu] ^
            kTables[1][(w3 >> 16) & 0xFFu] ^ kTables[0][w3 >> 24];
    bytes += 16;
    len -= 16;
  }
  for (; len > 0; --len) {
    state = (state >> 8) ^ kTables[0][(state ^ *bytes++) & 0xFFu];
  }
  return state;
}

uint32_t Crc32End(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(std::string_view data) {
  return Crc32End(Crc32Feed(Crc32Begin(), data.data(), data.size()));
}

}  // namespace aft
