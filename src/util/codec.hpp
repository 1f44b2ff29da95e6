/// \file codec.hpp
/// Minimal, dependency-free binary serialization.
///
/// Every protocol message in nggcs is encoded with Encoder and decoded with
/// Decoder. Integers use LEB128-style varints so small values (sequence
/// numbers, process ids) stay compact; strings and blobs are length-prefixed.
/// Decoder is hardened against truncated or corrupt input: all reads are
/// bounds-checked and report failure through ok() rather than UB.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace gcs {

/// Append-only binary encoder.
///
/// By default the encoder owns its output buffer (`take()` moves it out).
/// Constructed over an external sink, it appends to that buffer instead —
/// the sink is typically a pooled or scratch Bytes reused across messages,
/// so steady-state encoding allocates nothing once the buffer has grown to
/// its working size. External-sink encoders must not call take().
class Encoder {
 public:
  Encoder() = default;
  /// Append into \p sink (not cleared; caller controls reuse/lifetime).
  explicit Encoder(Bytes& sink) : out_(&sink) {}

  /// Unsigned varint (LEB128).
  void put_u64(std::uint64_t v);
  /// Signed varint (zigzag + LEB128).
  void put_i64(std::int64_t v);
  void put_u32(std::uint32_t v) { put_u64(v); }
  void put_i32(std::int32_t v) { put_i64(v); }
  void put_bool(bool v) { put_u64(v ? 1 : 0); }
  void put_byte(std::uint8_t v) { out_->push_back(v); }

  /// Length-prefixed string.
  void put_string(std::string_view s);
  /// Length-prefixed byte blob.
  void put_bytes(BytesView b);

  void put_msgid(const MsgId& id) {
    put_i32(id.sender);
    put_u64(id.seq);
  }

  /// Encode a vector given a per-element encode function.
  template <typename T, typename Fn>
  void put_vector(const std::vector<T>& v, Fn&& encode_elem) {
    put_u64(v.size());
    for (const auto& e : v) encode_elem(*this, e);
  }

  /// Take ownership of the encoded bytes (internal-buffer mode only).
  Bytes take() { return std::move(own_); }
  const Bytes& bytes() const { return *out_; }
  std::size_t size() const { return out_->size(); }

 private:
  Bytes own_;
  Bytes* out_ = &own_;
};

/// Bounds-checked binary decoder over a byte span.
///
/// On malformed input, the failed flag is set and all subsequent reads
/// return zero values; callers check ok() once at the end.
class Decoder {
 public:
  explicit Decoder(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  explicit Decoder(BytesView view) : data_(view.data()), size_(view.size()) {}
  Decoder(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint64_t get_u64();
  std::int64_t get_i64();
  std::uint32_t get_u32() { return static_cast<std::uint32_t>(get_u64()); }
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_i64()); }
  bool get_bool() { return get_u64() != 0; }
  std::uint8_t get_byte();

  std::string get_string();
  Bytes get_bytes();
  /// Length-prefixed blob as a bounds-checked view into the decoder's
  /// underlying buffer — no copy. The view is valid only while that buffer
  /// is; callers that store it must materialize with to_bytes() first
  /// (views handed onward from a datagram die when the handler returns).
  /// On truncation, fails and returns an empty view.
  BytesView get_view();

  MsgId get_msgid() {
    MsgId id;
    id.sender = get_i32();
    id.seq = get_u64();
    return id;
  }

  /// Decode a vector given a per-element decode function.
  template <typename T, typename Fn>
  std::vector<T> get_vector(Fn&& decode_elem) {
    std::vector<T> out;
    get_vector_into(out, decode_elem);
    return out;
  }

  /// get_vector into \p out (cleared first), reusing its capacity.
  template <typename T, typename Fn>
  void get_vector_into(std::vector<T>& out, Fn&& decode_elem) {
    out.clear();
    std::uint64_t n = get_u64();
    // Guard against hostile lengths: each element needs at least one byte.
    if (n > remaining()) {
      fail();
      return;
    }
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && ok(); ++i) out.push_back(decode_elem(*this));
  }

  bool ok() const { return !failed_; }
  bool at_end() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

  /// Mark the input malformed. For semantic validation above the codec
  /// layer (unknown enum tag, hostile count) so callers keep the single
  /// check-ok()-once-at-the-end discipline.
  void invalidate() { fail(); }

 private:
  void fail() { failed_ = true; }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace gcs
