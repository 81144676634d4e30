#include "common/bytes.h"

namespace waran {

Result<uint8_t> ByteReader::u8() {
  if (pos_ >= data_.size()) return Error::decode("unexpected end of input");
  return data_[pos_++];
}

Result<uint16_t> ByteReader::u16le() {
  if (remaining() < 2) return Error::decode("unexpected end of input");
  uint16_t v;
  std::memcpy(&v, data_.data() + pos_, 2);
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::u32le() {
  if (remaining() < 4) return Error::decode("unexpected end of input");
  uint32_t v;
  std::memcpy(&v, data_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::u64le() {
  if (remaining() < 8) return Error::decode("unexpected end of input");
  uint64_t v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

Result<float> ByteReader::f32le() {
  auto r = u32le();
  if (!r.ok()) return r.error();
  float f;
  uint32_t bits = *r;
  std::memcpy(&f, &bits, 4);
  return f;
}

Result<double> ByteReader::f64le() {
  auto r = u64le();
  if (!r.ok()) return r.error();
  double d;
  uint64_t bits = *r;
  std::memcpy(&d, &bits, 8);
  return d;
}

Result<uint64_t> ByteReader::uleb(unsigned max_bits) {
  uint64_t result = 0;
  unsigned shift = 0;
  size_t p = pos_;
  const unsigned max_bytes = (max_bits + 6) / 7;
  for (unsigned i = 0; i < max_bytes; ++i) {
    if (p >= data_.size()) return Error::decode("truncated LEB128");
    uint8_t b = data_[p++];
    // Final byte: reject set bits beyond max_bits (overlong / overflow).
    if (i + 1 == max_bytes) {
      unsigned used = max_bits - 7 * i;
      if (used < 7 && (b >> used) != 0) return Error::decode("LEB128 value overflows");
    }
    result |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      pos_ = p;
      return result;
    }
    shift += 7;
  }
  return Error::decode("LEB128 too long");
}

Result<int64_t> ByteReader::sleb(unsigned max_bits) {
  int64_t result = 0;
  unsigned shift = 0;
  size_t p = pos_;
  const unsigned max_bytes = (max_bits + 6) / 7;
  uint8_t b = 0;
  for (unsigned i = 0; i < max_bytes; ++i) {
    if (p >= data_.size()) return Error::decode("truncated LEB128");
    b = data_[p++];
    if (i + 1 == max_bytes) {
      // Remaining payload bits must all equal the sign bit.
      unsigned used = max_bits - 7 * i;
      uint8_t payload = b & 0x7f;
      uint8_t sign_bit = (payload >> (used - 1)) & 1;
      uint8_t expect = sign_bit ? static_cast<uint8_t>((0x7f << used) & 0x7f) : 0;
      if ((payload & static_cast<uint8_t>(~((1u << used) - 1)) & 0x7f) != expect) {
        return Error::decode("SLEB128 value overflows");
      }
    }
    result |= static_cast<int64_t>(static_cast<uint64_t>(b & 0x7f) << shift);
    shift += 7;
    if ((b & 0x80) == 0) {
      pos_ = p;
      if (shift < 64 && (b & 0x40)) result |= static_cast<int64_t>(~uint64_t{0} << shift);
      return result;
    }
  }
  return Error::decode("LEB128 too long");
}

Result<std::span<const uint8_t>> ByteReader::bytes(size_t n) {
  if (remaining() < n) return Error::decode("unexpected end of input");
  auto s = data_.subspan(pos_, n);
  pos_ += n;
  return s;
}

Result<std::string> ByteReader::name() {
  auto len = uleb32();
  if (!len.ok()) return len.error();
  auto b = bytes(*len);
  if (!b.ok()) return b.error();
  return std::string(reinterpret_cast<const char*>(b->data()), b->size());
}

Status ByteReader::skip(size_t n) {
  if (remaining() < n) return Error::decode("skip past end");
  pos_ += n;
  return {};
}

void ByteWriter::u16le(uint16_t v) {
  uint8_t b[2];
  std::memcpy(b, &v, 2);
  buf_.insert(buf_.end(), b, b + 2);
}

void ByteWriter::u32le(uint32_t v) {
  uint8_t b[4];
  std::memcpy(b, &v, 4);
  buf_.insert(buf_.end(), b, b + 4);
}

void ByteWriter::u64le(uint64_t v) {
  uint8_t b[8];
  std::memcpy(b, &v, 8);
  buf_.insert(buf_.end(), b, b + 8);
}

void ByteWriter::f32le(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  u32le(bits);
}

void ByteWriter::f64le(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  u64le(bits);
}

void ByteWriter::uleb(uint64_t v) {
  do {
    uint8_t b = v & 0x7f;
    v >>= 7;
    if (v != 0) b |= 0x80;
    buf_.push_back(b);
  } while (v != 0);
}

void ByteWriter::sleb(int64_t v) {
  bool more = true;
  while (more) {
    uint8_t b = v & 0x7f;
    v >>= 7;
    if ((v == 0 && !(b & 0x40)) || (v == -1 && (b & 0x40))) {
      more = false;
    } else {
      b |= 0x80;
    }
    buf_.push_back(b);
  }
}

void ByteWriter::name(std::string_view s) {
  uleb32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void write_uleb32_padded(std::vector<uint8_t>& out, size_t at, uint32_t v) {
  for (int i = 0; i < 5; ++i) {
    uint8_t b = v & 0x7f;
    v >>= 7;
    if (i < 4) b |= 0x80;
    out[at + i] = b;
  }
}

}  // namespace waran
