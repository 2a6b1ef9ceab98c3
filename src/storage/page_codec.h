#ifndef STINDEX_STORAGE_PAGE_CODEC_H_
#define STINDEX_STORAGE_PAGE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "storage/page_store.h"
#include "util/check.h"
#include "util/status.h"

namespace stindex {

// On-disk page size. An index node (51 entries of 64 bytes plus a small
// header) fits comfortably; serializers CHECK it.
inline constexpr size_t kPageSize = 4096;

// What a sealed page holds. Stored in the page envelope so a decoder can
// reject a page of the wrong kind before looking at the payload.
enum class PageKind : uint16_t {
  kFileHeader = 1,  // FilePageBackend metadata page
  kRStarNode = 2,   // serialized RStarTree::Node
  kPprNode = 3,     // serialized PprTree::Node
  kTest = 4,        // reserved for unit tests
  kWalPage = 5,     // live-tier write-ahead-log page (live/wal.h)
  kCheckpointHeader = 6,  // live-tier checkpoint commit record (live/checkpoint.h)
  kCheckpointPage = 7,    // live-tier checkpoint metadata chain page
  kSnapshotSuperblock = 8,  // read-only snapshot superblock (storage/snapshot_file.h)
  kSnapshotManifest = 9,    // snapshot per-page checksum manifest page
};

// Every on-disk page carries an 8-byte envelope:
//   [0, 4)  uint32 CRC-32 over bytes [4, kPageSize)
//   [4, 6)  uint16 PageKind
//   [6, 8)  uint16 codec version
// The payload starts at kPageEnvelopeBytes.
inline constexpr size_t kPageEnvelopeBytes = 8;
inline constexpr size_t kPagePayloadBytes = kPageSize - kPageEnvelopeBytes;
// Version 2: node pages hold 64-byte entries readable in place (below);
// version 1 packed them as 60-byte records.
inline constexpr uint16_t kPageCodecVersion = 2;

// Node pages are laid out for in-place reads: a fixed header after the
// envelope, then `count` entries of kNodeEntryBytes each, starting at an
// 8-byte-aligned page offset and bit-identical to the tree's in-memory
// entry struct. A codec can then View a borrowed page without decoding.
inline constexpr size_t kNodeEntryBytes = 64;

// Entries that fit a node page whose entries start at `entry_offset`.
constexpr size_t NodePageCapacity(size_t entry_offset) {
  return (kPageSize - entry_offset) / kNodeEntryBytes;
}

// CRC-32 (IEEE 802.3 polynomial, reflected) over `size` bytes.
uint32_t Crc32(const uint8_t* data, size_t size);

// Stamps the envelope (kind, version, checksum) onto a kPageSize buffer
// whose payload bytes [kPageEnvelopeBytes, kPageSize) are already filled.
void SealPage(uint8_t* page, PageKind kind);

// Encodes/decodes one Page subclass to/from sealed kPageSize buffers.
// Implementations live next to the node types they serialize (the tree
// classes keep their node layouts private).
class PageCodec {
 public:
  virtual ~PageCodec() = default;

  // Serializes `page` into `out` (kPageSize bytes) and seals it.
  // Unencodable pages (fanout above the configured bound) are checked
  // programming errors: node capacities are chosen so nodes fit.
  virtual void Encode(const Page& page, uint8_t* out) const = 0;

  // Rebuilds a Page from a sealed buffer. Corruption is a runtime
  // condition: the error names the offending page id.
  virtual Result<std::unique_ptr<Page>> Decode(const uint8_t* page,
                                               PageId id) const = 0;

  // Like Decode, but the returned Page may read `page` in place instead
  // of copying it, so it is valid only while those bytes are: callers
  // pass PageBackend::BorrowPage storage, which lives as long as its
  // backend. Validates exactly what Decode validates (envelope included).
  // The default decodes.
  virtual Result<std::unique_ptr<Page>> View(const uint8_t* page,
                                             PageId id) const {
    return Decode(page, id);
  }
};

// Bounds-checked sequential writer over a fixed-size buffer. Overflowing
// a page is a programming error (node capacities are chosen so nodes
// fit), hence CHECK rather than Status.
class PageWriter {
 public:
  PageWriter(uint8_t* buffer, size_t capacity)
      : buffer_(buffer), capacity_(capacity) {}

  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "PageWriter requires trivially copyable types");
    WriteBytes(&value, sizeof(T));
  }

  void WriteBytes(const void* data, size_t size) {
    STINDEX_CHECK_MSG(used_ + size <= capacity_, "page overflow");
    std::memcpy(buffer_ + used_, data, size);
    used_ += size;
  }

  size_t used() const { return used_; }
  size_t remaining() const { return capacity_ - used_; }

 private:
  uint8_t* buffer_;
  size_t capacity_;
  size_t used_ = 0;
};

// Bounds-checked sequential reader. Reading past the end returns false
// (corrupt or truncated input is a runtime condition, not a bug).
class PageReader {
 public:
  // Empty reader (every read fails); lets Result<PageReader> default-
  // construct its value slot on the error path.
  PageReader() : PageReader(nullptr, 0) {}

  PageReader(const uint8_t* buffer, size_t capacity)
      : buffer_(buffer), capacity_(capacity) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "PageReader requires trivially copyable types");
    return ReadBytes(out, sizeof(T));
  }

  bool ReadBytes(void* out, size_t size) {
    if (used_ + size > capacity_) return false;
    std::memcpy(out, buffer_ + used_, size);
    used_ += size;
    return true;
  }

  size_t used() const { return used_; }
  size_t remaining() const { return capacity_ - used_; }

 private:
  const uint8_t* buffer_;
  size_t capacity_;
  size_t used_ = 0;
};

// Writer positioned at the payload of a page buffer; pair with SealPage.
inline PageWriter PayloadWriter(uint8_t* page) {
  std::memset(page, 0, kPageSize);
  return PageWriter(page + kPageEnvelopeBytes, kPagePayloadBytes);
}

// Validates the envelope of a sealed kPageSize buffer and returns a
// reader positioned at the payload. Any mismatch — bad checksum, wrong
// kind, unknown version — is reported as InvalidArgument naming `id`.
Result<PageReader> OpenPagePayload(const uint8_t* page, PageKind kind,
                                   PageId id);

}  // namespace stindex

#endif  // STINDEX_STORAGE_PAGE_CODEC_H_
