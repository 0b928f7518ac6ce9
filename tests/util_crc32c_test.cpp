#include "util/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace {

using svg::util::crc32c;
using svg::util::crc32c_extend;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Crc32cTest, KnownVectors) {
  // The RFC 3720 check value for the Castagnoli polynomial.
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
  // 32 zero bytes (iSCSI test vector).
  EXPECT_EQ(crc32c(std::vector<std::uint8_t>(32, 0)), 0x8A9136AAu);
  // 32 0xFF bytes.
  EXPECT_EQ(crc32c(std::vector<std::uint8_t>(32, 0xFF)), 0x62A8AB43u);
}

TEST(Crc32cTest, IncrementalExtendMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  const std::uint32_t whole = crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = crc32c_extend(
        0, {data.data(), split});
    crc = crc32c_extend(crc, {data.data() + split, data.size() - split});
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryBit) {
  auto data = bytes_of("payload under test");
  const std::uint32_t base = crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32c(data), base) << "byte " << i << " bit " << bit;
      data[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

}  // namespace
