#ifndef STINDEX_STORAGE_FILE_BACKEND_H_
#define STINDEX_STORAGE_FILE_BACKEND_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/page_backend.h"
#include "util/status.h"

namespace stindex {

// Magic bytes at the start of the header page payload.
inline constexpr uint64_t kFilePageMagic = 0x53544e4458504701ull;  // "STNDXPG"+1
inline constexpr uint32_t kFileFormatVersion = 1;
// Bitmap pages of a created page file: kFileBitmapPages * kPageSize * 8
// slots.
inline constexpr size_t kFileBitmapPages = 4;

// PageBackend storing fixed-size pages in one file via pread/pwrite.
//
// File layout (all pages are kPageSize bytes):
//   page 0                          header (sealed, PageKind::kFileHeader):
//                                     magic, format version, page size,
//                                     bitmap page count, slot count,
//                                     live page count
//   pages 1 .. bitmap_pages         free-slot bitmap, bit i = slot i in use
//   pages 1+bitmap_pages + id       data page for slot `id`
//
// Create reserves kFileBitmapPages bitmap pages (131,072 slots), fixed
// for the file's lifetime; Open takes the count the header records. A
// Write past the bitmap is IoError, not silent truncation.
//
// Metadata (header + bitmap) is written lazily: Sync() persists it, the
// destructor syncs as a backstop. Data pages hit the file on every Write.
// Concurrent Read calls are safe (pread is positionless); writes require
// external exclusion, matching the PageBackend contract.
class FilePageBackend : public PageBackend {
 public:
  // Creates a new page file at `path` (truncating any existing file) and
  // writes a fresh header + empty bitmap of kFileBitmapPages pages.
  static Result<std::unique_ptr<FilePageBackend>> Create(
      const std::string& path);

  // Opens an existing page file, validating magic, checksum, format
  // version, page size and file-size consistency (a truncated file is
  // InvalidArgument, not a crash later).
  static Result<std::unique_ptr<FilePageBackend>> Open(
      const std::string& path);

  ~FilePageBackend() override;

  FilePageBackend(const FilePageBackend&) = delete;
  FilePageBackend& operator=(const FilePageBackend&) = delete;

  size_t page_size() const override { return kPageSize; }
  Status Read(PageId id, uint8_t* out) const override;
  Status Write(PageId id, const uint8_t* data) override;
  Status Free(PageId id) override;
  bool IsAllocated(PageId id) const override;
  size_t SlotCount() const override { return slot_count_; }
  size_t LivePageCount() const override { return live_count_; }
  Status Sync() override;
  std::string Name() const override { return "file"; }

  const std::string& path() const { return path_; }

  // Capacity implied by the bitmap region.
  size_t MaxSlots() const { return bitmap_.size() * 8; }

  // Closes the file WITHOUT syncing pending metadata — the on-disk state
  // stays exactly what previous Write/Sync calls produced, as if the
  // process had died here. Every later call on this object is IoError.
  // The crash-point recovery harness uses this so a simulated crash is
  // not quietly healed by the destructor's sync backstop.
  void Abandon();

 private:
  FilePageBackend(std::string path, int fd, size_t bitmap_pages);

  Status WriteMetadata();
  off_t DataOffset(PageId id) const {
    return static_cast<off_t>((1 + bitmap_pages_ + id) * kPageSize);
  }
  bool BitmapGet(PageId id) const {
    return (bitmap_[id / 8] >> (id % 8)) & 1u;
  }
  void BitmapSet(PageId id, bool on) {
    if (on) {
      bitmap_[id / 8] |= static_cast<uint8_t>(1u << (id % 8));
    } else {
      bitmap_[id / 8] &= static_cast<uint8_t>(~(1u << (id % 8)));
    }
  }

  std::string path_;
  int fd_;
  size_t bitmap_pages_;
  std::vector<uint8_t> bitmap_;  // bitmap_pages_ * kPageSize bytes
  size_t slot_count_ = 0;        // one past highest slot ever allocated
  size_t live_count_ = 0;
  bool meta_dirty_ = false;
};

}  // namespace stindex

#endif  // STINDEX_STORAGE_FILE_BACKEND_H_
