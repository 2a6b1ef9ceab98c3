#ifndef STINDEX_STORAGE_PAGE_CODEC_H_
#define STINDEX_STORAGE_PAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "util/check.h"
#include "util/status.h"

namespace stindex {

// Identifier of a disk page. Every index node occupies exactly one page.
using PageId = uint32_t;

inline constexpr PageId kInvalidPage = UINT32_MAX;

// On-disk page size. An index node (51 entries of 64 bytes plus a small
// header) fits comfortably; serializers CHECK it.
inline constexpr size_t kPageSize = 4096;

// One page image, the unit every backend stores and every pool frame
// holds. An index node *is* its page: the trees mutate node pages in
// place in their arena (a MemoryPageBackend) and read them in place from
// any backend, so a node is never held in a second representation.
struct alignas(16) Page {
  uint8_t bytes[kPageSize];
};

// What a sealed page holds. Stored in the page envelope so a decoder can
// reject a page of the wrong kind before looking at the payload.
enum class PageKind : uint16_t {
  kFileHeader = 1,  // reserved: page 0 of the previous page-file layout,
                    // which FilePageBackend::Open refuses
  kRStarNode = 2,   // serialized RStarTree::Node
  kPprNode = 3,     // serialized PprTree::Node
  kTest = 4,        // reserved for unit tests
  kWalPage = 5,     // live-tier write-ahead-log page (live/wal.h)
  kCheckpointHeader = 6,  // live-tier checkpoint commit record (live/checkpoint.h)
  kCheckpointPage = 7,    // live-tier checkpoint metadata chain page
  kSnapshotSuperblock = 8,  // read-only snapshot superblock (storage/snapshot_file.h)
  kSnapshotManifest = 9,    // snapshot per-page checksum manifest page
  kSegmentPage = 10,        // live-tier checkpoint segment chain page
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

// Node pages are laid out for in-place reads and writes: a fixed header
// after the envelope, then `count` entries of kNodeEntryBytes each,
// starting at an 8-byte-aligned page offset and bit-identical to the
// tree's entry struct. Bytes past the last entry stay zero, so a sealed
// copy of a node page is deterministic.
inline constexpr size_t kNodeEntryBytes = 64;

// Entries that fit a node page whose entries start at `entry_offset`.
constexpr size_t NodePageCapacity(size_t entry_offset) {
  return (kPageSize - entry_offset) / kNodeEntryBytes;
}

// A view of a node page wherever it lives (a tree's arena, a pool frame,
// a mapped snapshot): a `Header` with an int32_t `level` and a uint32_t
// `count` right after the envelope, then `count` entries from
// `kEntryOffset`. Views allocate nothing.
template <typename Header, typename Entry, size_t kEntryOffset>
class NodePageView {
 public:
  explicit NodePageView(const Page* page) : page_(page) {}

  const Header& header() const {
    return *reinterpret_cast<const Header*>(page_->bytes + kPageEnvelopeBytes);
  }
  int level() const { return header().level; }
  bool IsLeaf() const { return header().level == 0; }
  std::span<const Entry> entries() const {
    return {reinterpret_cast<const Entry*>(page_->bytes + kEntryOffset),
            header().count};
  }

 private:
  const Page* page_;
};

// A node page mutated in place. Removing entries zeroes the slots they
// vacate, so the bytes past the last entry stay zero and a sealed copy
// of the page is deterministic.
template <typename Header, typename Entry, size_t kEntryOffset>
class NodePage : public NodePageView<Header, Entry, kEntryOffset> {
  using View = NodePageView<Header, Entry, kEntryOffset>;

 public:
  static constexpr size_t kCapacity =
      (kPageSize - kEntryOffset) / sizeof(Entry);

  explicit NodePage(Page* page) : View(page), page_(page) {}

  using View::entries;
  using View::header;
  Header& header() {
    return *reinterpret_cast<Header*>(page_->bytes + kPageEnvelopeBytes);
  }
  std::span<Entry> entries() {
    return {reinterpret_cast<Entry*>(page_->bytes + kEntryOffset),
            header().count};
  }

  void Append(const Entry& entry) {
    STINDEX_CHECK_MSG(header().count < kCapacity, "node page overflow");
    ++header().count;
    entries().back() = entry;
  }

  void Erase(size_t slot) {
    const std::span<Entry> all = entries();
    STINDEX_CHECK(slot < all.size());
    std::memmove(static_cast<void*>(all.data() + slot), all.data() + slot + 1,
                 (all.size() - slot - 1) * sizeof(Entry));
    std::memset(static_cast<void*>(&all.back()), 0, sizeof(Entry));
    --header().count;
  }

  // Replaces the entries with `replacement`, which may be a prefix of
  // the current ones.
  void Assign(std::span<const Entry> replacement) {
    STINDEX_CHECK_MSG(replacement.size() <= kCapacity, "node page overflow");
    Entry* slots = reinterpret_cast<Entry*>(page_->bytes + kEntryOffset);
    if (!replacement.empty()) {
      std::memmove(static_cast<void*>(slots), replacement.data(),
                   replacement.size_bytes());
    }
    if (header().count > replacement.size()) {
      std::memset(static_cast<void*>(slots + replacement.size()), 0,
                  (header().count - replacement.size()) * sizeof(Entry));
    }
    header().count = static_cast<uint32_t>(replacement.size());
  }

 private:
  Page* page_;
};

// CRC-32 (IEEE 802.3 polynomial, reflected) over `size` bytes.
uint32_t Crc32(const uint8_t* data, size_t size);

// The CRC-32 of A followed by B, from crc_a = Crc32(A), crc_b = Crc32(B)
// and size_b = |B|, without reading either (zlib's crc32_combine).
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t size_b);

// Stamps the envelope (kind, version, checksum) onto a kPageSize buffer
// whose payload bytes [kPageEnvelopeBytes, kPageSize) are already filled.
void SealPage(uint8_t* page, PageKind kind);

// Crc32(page, kPageSize) of a sealed page, derived from the checksum its
// envelope stores (which covers bytes [4, kPageSize)) by Crc32Combine,
// so it reads only the envelope. Equal to the full-page CRC exactly when
// the stored checksum is right.
uint32_t SealedPageCrc32(const uint8_t* page);

// The check a sealed page must pass before anything reads it in place:
// the envelope (checksum, kind, version) plus a plausible header. The
// buffer pool runs it on every page it loads from a tree's packed
// snapshot; a tree's own arena holds unsealed pages and is never checked.
// The trees' implementation is NodePageCheck (storage/tree_pages.h).
class PageCodec {
 public:
  virtual ~PageCodec() = default;

  // Corruption is a runtime condition: the error names page `id`.
  virtual Status Check(const uint8_t* page, PageId id) const = 0;
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

// Bounds-checked sequential reader over a borrowed byte range — a page
// payload or a multi-page stream such as the live tier's checkpoint
// metadata. Reading past the end returns false (corrupt or truncated
// input is a runtime condition, not a bug).
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
    if (size > capacity_ - used_) return false;
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
