#ifndef STINDEX_STORAGE_SNAPSHOT_FILE_H_
#define STINDEX_STORAGE_SNAPSHOT_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/page_backend.h"
#include "util/status.h"

namespace stindex {

// Magic bytes at the start of the superblock payload.
inline constexpr uint64_t kSnapshotMagic = 0x53544e445853501cull;  // "STNDXSP"
inline constexpr uint32_t kSnapshotFormatVersion = 1;

// One level of the packed tree: node slots [first_slot, first_slot+count).
struct SnapshotLevelExtent {
  uint32_t first_slot = 0;
  uint32_t count = 0;
};

// Read-only, page-aligned snapshot of a frozen index.
//
// File layout (all pages are kPageSize bytes):
//   page 0                superblock (sealed, PageKind::kSnapshotSuperblock):
//                           magic, format version, page size, node count,
//                           level count, manifest page count, manifest
//                           digest, per-level slot extents
//   pages 1 .. node_count data page for node slot `id` at file page 1+id —
//                           sealed tree-node pages, written bottom-up
//                           (all level-0 leaves first, then level 1, ...)
//   trailing pages        checksum manifest (sealed, kSnapshotManifest):
//                           one uint32 CRC-32 of the full kPageSize bytes
//                           of each data page, in slot order
//
// Node slots are dense by construction (the packer remaps ids), so the
// byte offset of slot `id` is (1 + id) * kPageSize — independent of the
// manifest, which trails the data so the writer can stream nodes without
// knowing their count up front. The superblock's manifest digest (CRC-32
// over the concatenated per-page checksums) ties the manifest to the
// superblock; every data page is verified against its manifest entry at
// open time, and pools re-check each page they load on a miss.
class SnapshotWriter {
 public:
  // Creates a new snapshot file at `path` (truncating any existing file).
  // Page 0 stays reserved until Finish() seals the superblock, so a crash
  // mid-pack leaves a file that never opens.
  static Result<std::unique_ptr<SnapshotWriter>> Create(
      const std::string& path);

  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  // The buffer of the next node page, inside the writer's current batch
  // of 64 pages: the caller writes the page there, seals it with the
  // tree's codec, then calls Append.
  Page* NextPage();

  // Appends the sealed page written into NextPage() as the next dense
  // slot. Pages must arrive bottom-up: `level` starts at 0 and may only
  // stay or step up by one. The manifest entry is derived from the
  // checksum the page's envelope stores (SealedPageCrc32), so the page
  // is not read again; an envelope that does not match its page makes
  // Open fail. Each full batch is written with one pwrite and its
  // write-back started at once (sync_file_range), so Finish's first
  // fsync waits only for what is still in flight. A write error surfaces
  // from the Append that fills a batch, or from Finish, naming the page
  // range.
  Status Append(uint32_t level);

  // Number of pages appended so far — the slot id the next Append gets.
  size_t appended() const { return checksums_.size(); }

  // Writes the manifest and superblock, fsyncs and closes the file, then
  // fsyncs its directory, so the file's name is as durable as its pages
  // (a live-tier checkpoint may name the file right after). No further
  // appends; the file is now immutable.
  Status Finish();

 private:
  SnapshotWriter(std::string path, int fd);

  // Writes the buffered pages, if any, with one pwrite, and starts their
  // write-back.
  Status WriteBatch();

  std::string path_;
  int fd_;
  std::unique_ptr<Page[]> batch_;  // the next pages to write, in slot order
  size_t batched_ = 0;
  std::vector<uint32_t> checksums_;          // per data page, slot order
  std::vector<SnapshotLevelExtent> extents_;  // per level, bottom-up
  bool finished_ = false;
};

// An open snapshot: the whole file mapped PROT_READ and MAP_SHARED, the
// only way a packed tree is read. Open() validates the superblock, the
// manifest digest and every data page's checksum, so corruption fails at
// open time with a Status naming the offending page id. It verifies
// through batched pread, so a fresh mapping is not resident: pages fault
// in as pools borrow them. A file that verifies but cannot be mapped is
// an IoError naming the path and errno; there is no unmapped mode.
class SnapshotFile {
 public:
  static Result<std::unique_ptr<SnapshotFile>> Open(const std::string& path);

  ~SnapshotFile();

  SnapshotFile(const SnapshotFile&) = delete;
  SnapshotFile& operator=(const SnapshotFile&) = delete;

  // Copies node slot `id` into `out` (kPageSize bytes) from the mapping.
  Status Read(PageId id, uint8_t* out) const;

  // The mapped span of node slot `id`, stable for the file's lifetime;
  // nullptr only for an id past node_count().
  const uint8_t* Borrow(PageId id) const;

  size_t node_count() const { return node_count_; }
  const std::vector<SnapshotLevelExtent>& extents() const { return extents_; }
  const std::string& path() const { return path_; }
  // The CRC-32 of the superblock page. The superblock holds the manifest
  // digest, which covers every data page, so two files with the same
  // superblock checksum hold the same snapshot.
  uint32_t superblock_checksum() const { return superblock_checksum_; }

  // True if `path` names this open file (the same device and inode),
  // however it is spelled; false if it names no file.
  bool IsFile(const std::string& path) const;

 private:
  SnapshotFile(std::string path, int fd);

  std::string path_;
  int fd_;
  const uint8_t* map_ = nullptr;
  size_t map_bytes_ = 0;
  size_t node_count_ = 0;
  uint32_t superblock_checksum_ = 0;
  std::vector<SnapshotLevelExtent> extents_;
};

// PageBackend over a SnapshotFile: node slot `id` is page `id`. Read-only
// — Write is FailedPrecondition. BorrowPage lends the mapped span
// of every page, which the buffer pools read in place; Read copies it.
class MmapSnapshotBackend : public PageBackend {
 public:
  // Opens the snapshot at `path`.
  static Result<std::unique_ptr<MmapSnapshotBackend>> Open(
      const std::string& path);

  explicit MmapSnapshotBackend(std::unique_ptr<SnapshotFile> file);

  size_t page_size() const override { return kPageSize; }
  Status Read(PageId id, uint8_t* out) const override;
  Status Write(PageId id, const uint8_t* data) override;
  size_t SlotCount() const override { return file_->node_count(); }
  Status Sync() override { return Status::OK(); }
  std::string Name() const override { return "mmap"; }
  const uint8_t* BorrowPage(PageId id) const override;

  const SnapshotFile& file() const { return *file_; }

 private:
  std::unique_ptr<SnapshotFile> file_;
};

}  // namespace stindex

#endif  // STINDEX_STORAGE_SNAPSHOT_FILE_H_
