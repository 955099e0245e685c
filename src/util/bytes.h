// Little-endian fixed-width integer codec for the on-media formats: SSTables, the kv WAL and
// manifest, and the zonefile metadata journal.

#ifndef BLOCKHEAD_SRC_UTIL_BYTES_H_
#define BLOCKHEAD_SRC_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace blockhead {

// Appends the low `n` bytes of `v`, least significant first.
inline void PutLe(std::vector<std::uint8_t>& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
// Overwrites the `n` bytes at `at` with the low `n` bytes of `v`, least significant first.
inline void StoreLe(std::uint8_t* at, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) {
    at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
inline void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) { PutLe(out, v, 1); }
inline void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) { PutLe(out, v, 2); }
inline void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) { PutLe(out, v, 4); }
inline void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) { PutLe(out, v, 8); }

// Bounds-checked little-endian reader. A read past the end returns zero (or an empty string)
// and latches ok() false, so a parser can read a whole record and test ok() once.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t U8() { return static_cast<std::uint8_t>(Read(1)); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(Read(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Read(4)); }
  std::uint64_t U64() { return Read(8); }

  // The next `len` bytes, as a view into the underlying data.
  std::span<const std::uint8_t> Take(std::size_t len) {
    if (!ok_ || remaining() < len) {
      ok_ = false;
      return {};
    }
    const std::span<const std::uint8_t> taken = data_.subspan(pos_, len);
    pos_ += len;
    return taken;
  }
  std::string_view View(std::size_t len) {
    const std::span<const std::uint8_t> bytes = Take(len);
    return std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  std::string String(std::size_t len) { return std::string(View(len)); }

 private:
  std::uint64_t Read(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_UTIL_BYTES_H_
