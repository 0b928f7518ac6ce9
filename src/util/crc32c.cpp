#include "util/crc32c.hpp"

#include <array>

namespace svg::util {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

struct Tables {
  // table[k][b]: CRC of byte b followed by k zero bytes — the standard
  // slice-by-8 layout (process 8 bytes per iteration with 8 lookups).
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::uint8_t> data) {
  const auto& t = tables().t;
  std::uint32_t c = ~crc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  static_cast<std::uint32_t>(p[1]) << 8 |
                                  static_cast<std::uint32_t>(p[2]) << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  }
  return ~c;
}

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  return crc32c_extend(0, data);
}

}  // namespace svg::util
