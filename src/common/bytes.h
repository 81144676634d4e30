// Byte-level reader/writer used by the wasm decoder/encoder and by the codec
// library. Little-endian fixed-width integers, IEEE-754 floats, and the
// LEB128 variable-length encodings the wasm binary format requires.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace waran {

static_assert(std::endian::native == std::endian::little,
              "the fixed-width wire formats are the host's own little-endian bytes");

/// Writes `v` as its little-endian bytes at `at`, unchecked: for codecs that
/// size their buffer once and then write every field through one pointer.
template <typename T>
void store(uint8_t* at, T v) {
  std::memcpy(at, &v, sizeof v);
}

/// Reads a little-endian `T` at `at`, unchecked: for decoders that check a
/// section's length once and then read its fields.
template <typename T>
T load(const uint8_t* at) {
  T v;
  std::memcpy(&v, at, sizeof v);
  return v;
}

/// Non-owning sequential reader over a byte span. All reads are
/// bounds-checked and return Result; the cursor does not advance on failure.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  Result<uint8_t> u8();
  Result<uint16_t> u16le();
  Result<uint32_t> u32le();
  Result<uint64_t> u64le();
  Result<float> f32le();
  Result<double> f64le();

  /// Unsigned LEB128, at most `max_bits` significant bits (32 or 64).
  Result<uint64_t> uleb(unsigned max_bits);
  /// Signed LEB128, at most `max_bits` significant bits (32, 33, or 64).
  Result<int64_t> sleb(unsigned max_bits);

  Result<uint32_t> uleb32() {
    auto r = uleb(32);
    if (!r.ok()) return r.error();
    return static_cast<uint32_t>(*r);
  }
  Result<int32_t> sleb32() {
    auto r = sleb(32);
    if (!r.ok()) return r.error();
    return static_cast<int32_t>(*r);
  }

  /// Reads `n` raw bytes; the returned span aliases the underlying buffer.
  Result<std::span<const uint8_t>> bytes(size_t n);

  /// Length-prefixed (uleb32) UTF-8 name as used by wasm.
  Result<std::string> name();

  /// Skips `n` bytes.
  Status skip(size_t n);

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Growable byte sink with the matching encodings.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writes over `buf`, keeping its capacity; take() hands it back.
  explicit ByteWriter(std::vector<uint8_t> buf) : buf_(std::move(buf)) { buf_.clear(); }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  /// Sizes the buffer up front when the encoded length is known.
  void reserve(size_t n) { buf_.reserve(n); }

  void u8(uint8_t v) { buf_.push_back(v); }
  void u16le(uint16_t v);
  void u32le(uint32_t v);
  void u64le(uint64_t v);
  void f32le(float v);
  void f64le(double v);

  void uleb(uint64_t v);
  void sleb(int64_t v);
  void uleb32(uint32_t v) { uleb(v); }
  void sleb32(int32_t v) { sleb(v); }

  void bytes(std::span<const uint8_t> b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void name(std::string_view s);

 private:
  std::vector<uint8_t> buf_;
};

/// Encodes `v` as ULEB128 into exactly 5 bytes (padded). Wasm permits
/// redundant zero continuation bytes; section-size back-patching relies on
/// a fixed width.
void write_uleb32_padded(std::vector<uint8_t>& out, size_t at, uint32_t v);

}  // namespace waran
