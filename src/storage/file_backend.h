#ifndef STINDEX_STORAGE_FILE_BACKEND_H_
#define STINDEX_STORAGE_FILE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/page_backend.h"
#include "util/status.h"

namespace stindex {

// PageBackend over one file of whole pages and nothing else: slot `id` is
// the kPageSize bytes at offset id * kPageSize, and a slot never written
// reads as zeros. The file only grows: SlotCount() is its page count at
// Open, raised by every Write past the end. Which slots are in use is
// not the file's business — the live tier's recovery derives that from
// the journal itself (live/live_tier.h).
//
// A written page is in the file at once; Sync is an fsync that makes it
// durable. Closing the backend syncs nothing, so it leaves exactly what a
// killed process leaves. Concurrent Read calls are safe (pread is
// positionless); writes require external exclusion, matching the
// PageBackend contract.
class FilePageBackend : public PageBackend {
 public:
  // Creates an empty page file at `path`, truncating any existing file.
  static Result<std::unique_ptr<FilePageBackend>> Create(
      const std::string& path);

  // Opens the page file at `path`, its pages the backend's slots. NotFound
  // when no file exists at `path`. InvalidArgument naming the path when
  // the file is not a whole number of pages, or when it is in the
  // previous layout, whose page 0 is a sealed PageKind::kFileHeader page
  // (a header and an allocation bitmap before the data pages).
  static Result<std::unique_ptr<FilePageBackend>> Open(
      const std::string& path);

  ~FilePageBackend() override;

  FilePageBackend(const FilePageBackend&) = delete;
  FilePageBackend& operator=(const FilePageBackend&) = delete;

  size_t page_size() const override { return kPageSize; }
  Status Read(PageId id, uint8_t* out) const override;
  Status Write(PageId id, const uint8_t* data) override;
  size_t SlotCount() const override { return slot_count_; }
  Status Sync() override;
  std::string Name() const override { return "file"; }

  const std::string& path() const { return path_; }

 private:
  FilePageBackend(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_;
  size_t slot_count_ = 0;
};

}  // namespace stindex

#endif  // STINDEX_STORAGE_FILE_BACKEND_H_
