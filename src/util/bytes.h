#ifndef STINDEX_UTIL_BYTES_H_
#define STINDEX_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace stindex {

// A little-endian byte stream for variable-length state serialization
// (the live tier's checkpoint metadata), whose size is unknown up front.
// Where the bytes go is the sink's: the checkpoint streams them into its
// metadata chain page by page (CheckpointMetaWriter), MemorySink keeps
// them in memory. PageWriter covers the fixed-size single-page case;
// PageReader (storage/page_codec.h) reads either back.
class ByteSink {
 public:
  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteSink::Write requires a trivially copyable type");
    WriteBytes(&value, sizeof(T));
  }

  virtual void WriteBytes(const void* data, size_t size) = 0;

 protected:
  ~ByteSink() = default;
};

// The whole stream in one growable buffer.
class MemorySink final : public ByteSink {
 public:
  void WriteBytes(const void* data, size_t size) override {
    const size_t offset = bytes_.size();
    bytes_.resize(offset + size);
    std::memcpy(bytes_.data() + offset, data, size);
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace stindex

#endif  // STINDEX_UTIL_BYTES_H_
