#include "util/bytes.hpp"

#include "util/crc32c.hpp"

namespace svg::util {

namespace {

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace

void ByteWriter::put_u16(std::uint16_t v) {
  put_u8(static_cast<std::uint8_t>(v));
  put_u8(static_cast<std::uint8_t>(v >> 8));
}
void ByteWriter::put_u32(std::uint32_t v) {
  put_u16(static_cast<std::uint16_t>(v));
  put_u16(static_cast<std::uint16_t>(v >> 16));
}
void ByteWriter::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v));
  put_u32(static_cast<std::uint32_t>(v >> 32));
}
void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}
void ByteWriter::put_svarint(std::int64_t v) { put_varint(zigzag(v)); }
void ByteWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<std::uint8_t> ByteReader::get_u8() {
  if (pos_ >= data_.size()) return std::nullopt;
  return data_[pos_++];
}
std::optional<std::uint16_t> ByteReader::get_u16() {
  const auto lo = get_u8();
  const auto hi = get_u8();
  if (!lo || !hi) return std::nullopt;
  return static_cast<std::uint16_t>(*lo | (*hi << 8));
}
std::optional<std::uint32_t> ByteReader::get_u32() {
  const auto lo = get_u16();
  const auto hi = get_u16();
  if (!lo || !hi) return std::nullopt;
  return static_cast<std::uint32_t>(*lo) |
         (static_cast<std::uint32_t>(*hi) << 16);
}
std::optional<std::uint64_t> ByteReader::get_u64() {
  const auto lo = get_u32();
  const auto hi = get_u32();
  if (!lo || !hi) return std::nullopt;
  return static_cast<std::uint64_t>(*lo) |
         (static_cast<std::uint64_t>(*hi) << 32);
}
std::optional<std::uint64_t> ByteReader::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const auto byte = get_u8();
    if (!byte) return std::nullopt;
    if (shift >= 64) return std::nullopt;  // overlong encoding
    v |= static_cast<std::uint64_t>(*byte & 0x7F) << shift;
    if ((*byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}
std::optional<std::int64_t> ByteReader::get_svarint() {
  const auto v = get_varint();
  if (!v) return std::nullopt;
  return unzigzag(*v);
}
std::optional<std::span<const std::uint8_t>> ByteReader::get_bytes(
    std::uint64_t n) {
  if (n > remaining()) return std::nullopt;
  const auto out = data_.subspan(pos_, static_cast<std::size_t>(n));
  pos_ += out.size();
  return out;
}

std::optional<ExtBlock> ByteReader::get_ext(std::uint16_t accepted) {
  ExtBlock ext;
  std::uint64_t prev = 0;
  while (!exhausted()) {
    const auto tag = get_varint();
    const auto value = get_varint();
    if (!tag || !value || *tag >= ExtBlock::kMaxTags ||
        (accepted & ext_bit(*tag)) == 0 ||
        (ext.present_ != 0 && *tag <= prev)) {
      return std::nullopt;
    }
    ext.values_[*tag] = *value;
    ext.present_ |= ext_bit(*tag);
    prev = *tag;
  }
  return ext;
}

std::vector<std::uint8_t> seal(ByteWriter& w) {
  w.put_u32(crc32c(w.bytes()));
  return w.take();
}

std::optional<std::span<const std::uint8_t>> unseal(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return std::nullopt;
  const auto body = bytes.first(bytes.size() - 4);
  ByteReader trailer(bytes.subspan(body.size()));
  if (trailer.get_u32() != crc32c(body)) return std::nullopt;
  return body;
}

}  // namespace svg::util
