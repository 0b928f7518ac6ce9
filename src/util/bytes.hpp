#pragma once
// Byte-level codec primitives shared by the wire protocol (net/wire.hpp,
// cluster/wire.hpp), the snapshot format, and the write-ahead log
// (src/store/): LEB128 varints, zigzag for signed deltas, little-endian
// fixed-width ints — and the one frame every message and the snapshot
// file are written in:
//
//   fixed fields | extension block | u32 crc32c(everything before it)
//
// The extension block carries a message's optional fields as
// (varint tag, varint value) pairs in strictly ascending tag order. It
// has no length: it runs to the CRC, and a decoder names the tags it
// accepts, so an unknown, repeated or out-of-order tag fails the decode
// rather than being skipped. An absent optional field costs no bytes.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace svg::util {

class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_varint(std::uint64_t v);
  void put_svarint(std::int64_t v);  ///< zigzag + varint
  void put_bytes(std::span<const std::uint8_t> bytes);
  /// One extension-block pair. Callers write tags in ascending order.
  void put_ext(std::uint64_t tag, std::uint64_t value) {
    put_varint(tag);
    put_varint(value);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bit of `tag` in the accepted-tags mask ByteReader::get_ext takes.
[[nodiscard]] constexpr std::uint16_t ext_bit(std::uint64_t tag) {
  return static_cast<std::uint16_t>(1u << tag);
}

/// The decoded extension block of one message: the value of each tag
/// present. Tags are below kMaxTags.
class ExtBlock {
 public:
  static constexpr std::uint64_t kMaxTags = 16;

  /// The tag's value, or nullopt when the message did not carry it.
  [[nodiscard]] std::optional<std::uint64_t> get(std::uint64_t tag) const {
    if (tag >= kMaxTags || (present_ & ext_bit(tag)) == 0) return std::nullopt;
    return values_[tag];
  }

 private:
  friend class ByteReader;
  std::array<std::uint64_t, kMaxTags> values_{};
  std::uint16_t present_ = 0;
};

/// Reads the formats ByteWriter emits. All getters return nullopt on
/// truncated input instead of throwing — a server must survive malformed
/// uploads, and recovery must survive torn log tails.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> get_u8();
  [[nodiscard]] std::optional<std::uint16_t> get_u16();
  [[nodiscard]] std::optional<std::uint32_t> get_u32();
  [[nodiscard]] std::optional<std::uint64_t> get_u64();
  [[nodiscard]] std::optional<std::uint64_t> get_varint();
  [[nodiscard]] std::optional<std::int64_t> get_svarint();
  /// The next `n` bytes as a view into the input.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> get_bytes(
      std::uint64_t n);
  /// The extension block: every remaining byte, read as (tag, value)
  /// pairs. `accepted` has ext_bit(tag) set for each tag the message
  /// defines. nullopt on a truncated pair or a tag that is not accepted,
  /// repeated, or not above the tag before it.
  [[nodiscard]] std::optional<ExtBlock> get_ext(std::uint16_t accepted);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ >= data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Appends the CRC32C trailer over everything `w` holds and returns the
/// sealed bytes (leaving `w` empty).
[[nodiscard]] std::vector<std::uint8_t> seal(ByteWriter& w);

/// The body of sealed bytes — everything before the trailer — or nullopt
/// when the bytes are too short to hold one or the CRC does not match.
[[nodiscard]] std::optional<std::span<const std::uint8_t>> unseal(
    std::span<const std::uint8_t> bytes);

}  // namespace svg::util
