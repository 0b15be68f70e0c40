// The one byte codec behind every binary format in GEMS: the GraQL IR and
// its parameter bindings, the wire protocol and its stats payload,
// diagnostics blobs, GBSP cluster frames and dist rank payloads, and the
// store's snapshots and WAL records.
//
// ByteWriter appends fixed-width integers, IEEE-754 doubles, u32-length-
// prefixed strings and blobs, u64-count-prefixed POD arrays and raw bytes
// to a buffer it owns. ByteReader reads them back from a span. Every read
// is checked against the remaining bytes first, and every length prefix or
// element count is validated against the remaining input *before* anything
// is allocated from it, so a hostile or bit-flipped length cannot drive an
// allocation. Every failure is a kParseError naming the field and its
// byte offset ("malformed IR: string length ... at byte offset 40").
//
// This header is the only code that knows the byte order: all formats are
// little-endian, and integers and bulk arrays are copied in host order,
// which the static_assert below pins.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.hpp"

static_assert(std::endian::native == std::endian::little,
              "GEMS byte formats are little-endian and copied in host order");

namespace gems {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// u32 length prefix + the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  /// u64 element count + the elements' bytes.
  template <typename T>
  void pod_array(std::span<const T> a) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(a.size());
    raw(a.data(), a.size_bytes());
  }

  /// Unprefixed bytes (fixed-width column payloads, nested encodings).
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t>& buffer() { return buf_; }
  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  /// `format` names the encoding in error messages ("malformed <format>:").
  explicit ByteReader(std::span<const std::uint8_t> bytes,
                      const char* format = "input")
      : bytes_(bytes), format_(format) {}

  Result<std::uint8_t> u8(const char* what = "u8") {
    return fixed<std::uint8_t>(what);
  }
  Result<std::uint16_t> u16(const char* what = "u16") {
    return fixed<std::uint16_t>(what);
  }
  Result<std::uint32_t> u32(const char* what = "u32") {
    return fixed<std::uint32_t>(what);
  }
  Result<std::uint64_t> u64(const char* what = "u64") {
    return fixed<std::uint64_t>(what);
  }
  Result<std::int64_t> i64(const char* what = "i64") {
    return fixed<std::int64_t>(what);
  }
  Result<double> f64(const char* what = "f64") { return fixed<double>(what); }
  Result<bool> boolean(const char* what = "bool") {
    GEMS_ASSIGN_OR_RETURN(std::uint8_t v, fixed<std::uint8_t>(what));
    return v != 0;
  }

  /// A u32-length-prefixed string, rejected before allocating when the
  /// length overruns the input.
  Result<std::string> str(const char* what = "string") {
    GEMS_ASSIGN_OR_RETURN(std::span<const std::uint8_t> b, prefixed(what));
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  Result<std::vector<std::uint8_t>> blob(const char* what = "blob") {
    GEMS_ASSIGN_OR_RETURN(std::span<const std::uint8_t> b, prefixed(what));
    return std::vector<std::uint8_t>(b.begin(), b.end());
  }

  /// The next `n` unprefixed bytes, viewing the reader's input.
  Result<std::span<const std::uint8_t>> bytes(std::uint64_t n,
                                              const char* what) {
    if (n > remaining()) return overrun(what, n, 1, pos_);
    const auto out = bytes_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

  /// A u32 element count, rejected up front when even `min_element_bytes`
  /// per element would overrun the remaining input — so callers may size
  /// containers from it without trusting the input.
  Result<std::uint32_t> count(const char* what,
                              std::size_t min_element_bytes = 1) {
    const std::size_t at = pos_;
    GEMS_ASSIGN_OR_RETURN(std::uint32_t n, fixed<std::uint32_t>(what));
    if (n > remaining() / min_element_bytes) {
      return overrun(what, n, min_element_bytes, at);
    }
    return n;
  }

  /// `n` unprefixed elements of T.
  template <typename T>
  Result<std::vector<T>> array(std::uint64_t n, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > remaining() / sizeof(T)) return overrun(what, n, sizeof(T), pos_);
    std::vector<T> out(static_cast<std::size_t>(n));
    if (n != 0) std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += static_cast<std::size_t>(n * sizeof(T));
    return out;
  }

  /// A ByteWriter::pod_array: u64 element count, then the elements.
  template <typename T>
  Result<std::vector<T>> pod_array(const char* what) {
    const std::size_t at = pos_;
    GEMS_ASSIGN_OR_RETURN(std::uint64_t n, fixed<std::uint64_t>(what));
    if (n > remaining() / sizeof(T)) return overrun(what, n, sizeof(T), at);
    return array<T>(n, what);
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

  /// kParseError "malformed <format>: <detail> at byte offset <at>", for
  /// the decoders' own semantic checks (bad tags, out-of-range values).
  Status error(std::string_view detail, std::size_t at) const;

 private:
  template <typename T>
  Result<T> fixed(const char* what) {
    if (sizeof(T) > remaining()) return overrun(what, sizeof(T), 1, pos_);
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  Result<std::span<const std::uint8_t>> prefixed(const char* what) {
    const std::size_t at = pos_;
    GEMS_ASSIGN_OR_RETURN(std::uint32_t n, fixed<std::uint32_t>(what));
    if (n > remaining()) return overrun(what, n, 1, at);
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// `what` needs `n` x `width` bytes at `at`, more than remain.
  Status overrun(const char* what, std::uint64_t n, std::size_t width,
                 std::size_t at) const;

  std::span<const std::uint8_t> bytes_;
  const char* format_;
  std::size_t pos_ = 0;
};

}  // namespace gems
