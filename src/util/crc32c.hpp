#pragma once
// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum
// behind util::seal (every wire message and the snapshot file) and the
// WAL's record frames. Software
// slice-by-8 implementation: ~1 byte/cycle, no ISA dependence, and the
// same polynomial hardware CRC instructions accelerate if we ever add a
// runtime-dispatched fast path.

#include <cstdint>
#include <span>

namespace svg::util {

/// One-shot CRC32C of a buffer.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data);

/// Incremental form: feed `crc` the previous return value (or 0 to start).
/// crc32c(a+b) == crc32c_extend(crc32c_extend(0, a), b).
[[nodiscard]] std::uint32_t crc32c_extend(std::uint32_t crc,
                                          std::span<const std::uint8_t> data);

}  // namespace svg::util
