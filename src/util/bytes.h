#ifndef STINDEX_UTIL_BYTES_H_
#define STINDEX_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace stindex {

// A growable little-endian byte stream for variable-length state
// serialization (the live tier's checkpoint metadata), whose size is
// unknown up front and which the caller later chunks across pages.
// PageWriter covers the fixed-size single-page case; PageReader
// (storage/page_codec.h) reads either back.
class ByteSink {
 public:
  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteSink::Write requires a trivially copyable type");
    WriteBytes(&value, sizeof(T));
  }

  void WriteBytes(const void* data, size_t size) {
    const size_t offset = bytes_.size();
    bytes_.resize(offset + size);
    std::memcpy(bytes_.data() + offset, data, size);
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace stindex

#endif  // STINDEX_UTIL_BYTES_H_
