#include "storage/snapshot_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "storage/page_codec.h"
#include "storage/posix_io.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace stindex {
namespace {

struct MmapMetrics {
  Counter* borrows;
  Counter* packed_pages;
};

const MmapMetrics& Metrics() {
  static const MmapMetrics m = [] {
    MetricRegistry& r = MetricRegistry::Global();
    return MmapMetrics{r.GetCounter("backend.mmap.borrows"),
                       r.GetCounter("backend.mmap.packed_pages")};
  }();
  return m;
}

// CRC entries per manifest page.
constexpr size_t kManifestEntriesPerPage = kPagePayloadBytes / sizeof(uint32_t);

// Pages moved per pwrite when packing and per pread when verifying.
constexpr size_t kBatchPages = 64;

// "node pages 64..127": `count` pages from `first`, numbered as `what`.
std::string PageRange(const char* what, size_t first, size_t count) {
  return std::string(what) + " pages " + std::to_string(first) + ".." +
         std::to_string(first + count - 1);
}

// Reads `count` pages starting at file page `file_page` into `batch`
// (kBatchPages pages), one pread per batch, and hands each to
// `check(i, bytes)` with i counting from 0; stops at the first error.
// Read errors name the range as `what` pages.
template <typename Check>
Status CheckPages(int fd, const std::string& path, const char* what,
                  size_t file_page, size_t count, Page* batch, Check check) {
  for (size_t begin = 0; begin < count; begin += kBatchPages) {
    const size_t n = std::min(kBatchPages, count - begin);
    Status status = PReadFull(
        fd, batch->bytes, n * kPageSize,
        static_cast<off_t>((file_page + begin) * kPageSize),
        "read " + PageRange(what, begin, n) + " of " + path);
    for (size_t i = 0; status.ok() && i < n; ++i) {
      status = check(begin + i, batch[i].bytes);
    }
    if (!status.ok()) return status;
  }
  return Status::OK();
}

size_t ManifestPagesFor(size_t data_pages) {
  return (data_pages + kManifestEntriesPerPage - 1) / kManifestEntriesPerPage;
}

// The largest attachment a superblock may declare (1 TiB): far past any
// real one, small enough that page counts derived from it cannot
// overflow.
constexpr uint64_t kMaxAttachment = uint64_t{1} << 40;

off_t SlotOffset(size_t id) {
  return static_cast<off_t>((1 + id) * kPageSize);
}

uint32_t ManifestDigest(const std::vector<uint32_t>& checksums) {
  if (checksums.empty()) return 0;
  return Crc32(reinterpret_cast<const uint8_t*>(checksums.data()),
               checksums.size() * sizeof(uint32_t));
}

// Fsyncs the directory holding `path`, which makes the file's directory
// entry durable.
Status SyncDirectoryOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IoError(Errno("open(" + dir + ")"));
  Status status;
  if (::fsync(fd) != 0) status = Status::IoError(Errno("fsync(" + dir + ")"));
  ::close(fd);
  return status;
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter(std::string path, int fd)
    : path_(std::move(path)),
      fd_(fd),
      batch_(std::make_unique_for_overwrite<Page[]>(kBatchPages)) {}

Result<std::unique_ptr<SnapshotWriter>> SnapshotWriter::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(Errno("open(" + path + ")"));
  }
  // Reserve page 0: until Finish() seals a valid superblock over it, the
  // zeroed page fails Open's magic check and the half-packed file is inert.
  uint8_t zero[kPageSize];
  std::memset(zero, 0, sizeof(zero));
  Status status = PWriteFull(fd, zero, kPageSize, 0,
                             "write superblock reservation of " + path);
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  return std::unique_ptr<SnapshotWriter>(new SnapshotWriter(path, fd));
}

SnapshotWriter::~SnapshotWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Page* SnapshotWriter::NextPage() {
  STINDEX_CHECK_MSG(!finished_, "NextPage after Finish");
  return &batch_[batched_];
}

Status SnapshotWriter::Append(uint32_t level) {
  STINDEX_CHECK_MSG(!finished_, "Append after Finish");
  // Bottom-up order: levels start at 0 and never step down or skip.
  if (extents_.empty()) {
    STINDEX_CHECK_MSG(level == 0, "snapshot pages must start at level 0");
    extents_.push_back(SnapshotLevelExtent{0, 0});
  } else if (level == extents_.size()) {
    extents_.push_back(SnapshotLevelExtent{
        static_cast<uint32_t>(checksums_.size()), 0});
  } else {
    STINDEX_CHECK_MSG(level + 1 == extents_.size(),
                      "snapshot pages must be appended bottom-up");
  }
  checksums_.push_back(SealedPageCrc32(batch_[batched_].bytes));
  ++extents_.back().count;
  return ++batched_ == kBatchPages ? WriteBatch() : Status::OK();
}

Status SnapshotWriter::WriteBatch() {
  if (batched_ == 0) return Status::OK();
  const size_t first = checksums_.size() - batched_;
  const size_t count = std::exchange(batched_, 0);
  Status status = PWriteFull(
      fd_, batch_[0].bytes, count * kPageSize, SlotOffset(first),
      "write " + PageRange("data", first, count) + " of " + path_);
  if (!status.ok()) return status;
  // Start the batch's write-back now rather than at Finish's fsync. Only
  // a hint: durability still comes from that fsync, which reports any
  // write-back error, so a failure here is ignored.
  (void)::sync_file_range(fd_, SlotOffset(first),
                          static_cast<off_t>(count * kPageSize),
                          SYNC_FILE_RANGE_WRITE);
  return Status::OK();
}

// The attachment's stream, filling the writer's batch a page at a time:
// each full page is zero-padded and checksummed into the manifest, and
// each full batch written. The first failed write is the result; the
// stream is consumed to its end regardless.
class SnapshotWriter::AttachmentSink final : public ByteSink {
 public:
  explicit AttachmentSink(SnapshotWriter* writer) : writer_(writer) {}

  void WriteBytes(const void* data, size_t size) override {
    const uint8_t* in = static_cast<const uint8_t*>(data);
    while (size > 0) {
      if (used_ == kPageSize) AppendPage();
      const size_t count = std::min(size, kPageSize - used_);
      std::memcpy(Filling() + used_, in, count);
      used_ += count;
      bytes_ += count;
      in += count;
      size -= count;
    }
  }

  // Appends the last page and writes what is batched.
  Status Finish() {
    if (used_ > 0) AppendPage();
    if (!status_.ok()) return status_;
    return writer_->WriteBatch();
  }

  uint64_t bytes() const { return bytes_; }

 private:
  uint8_t* Filling() { return writer_->batch_[writer_->batched_].bytes; }

  void AppendPage() {
    std::memset(Filling() + used_, 0, kPageSize - used_);
    writer_->checksums_.push_back(Crc32(Filling(), kPageSize));
    used_ = 0;
    if (++writer_->batched_ == kBatchPages) {
      const Status status = writer_->WriteBatch();
      if (status_.ok()) status_ = status;
    }
  }

  SnapshotWriter* writer_;
  size_t used_ = 0;  // bytes of the page being filled
  uint64_t bytes_ = 0;
  Status status_;
};

Status SnapshotWriter::Finish(const std::function<void(ByteSink*)>& attach) {
  STINDEX_CHECK_MSG(!finished_, "double Finish");
  TraceSpan span("storage", "snapshot_finish");
  span.Arg("pages", static_cast<int64_t>(checksums_.size()));
  Status status = WriteBatch();
  if (!status.ok()) return status;
  const size_t nodes = checksums_.size();
  AttachmentSink attachment(this);
  if (attach) attach(&attachment);
  status = attachment.Finish();
  if (!status.ok()) return status;
  const size_t manifest_pages = ManifestPagesFor(checksums_.size());
  uint8_t page[kPageSize];
  for (size_t m = 0; m < manifest_pages; ++m) {
    PageWriter writer = PayloadWriter(page);
    const size_t begin = m * kManifestEntriesPerPage;
    const size_t end =
        std::min(begin + kManifestEntriesPerPage, checksums_.size());
    for (size_t i = begin; i < end; ++i) writer.Write(checksums_[i]);
    SealPage(page, PageKind::kSnapshotManifest);
    status = PWriteFull(
        fd_, page, kPageSize, SlotOffset(checksums_.size() + m),
        "write manifest page " + std::to_string(m) + " of " + path_);
    if (!status.ok()) return status;
  }

  PageWriter writer = PayloadWriter(page);
  writer.Write(kSnapshotMagic);
  writer.Write(kSnapshotFormatVersion);
  writer.Write(static_cast<uint32_t>(kPageSize));
  writer.Write(static_cast<uint64_t>(nodes));
  writer.Write(static_cast<uint32_t>(extents_.size()));
  writer.Write(static_cast<uint32_t>(manifest_pages));
  writer.Write(ManifestDigest(checksums_));
  for (const SnapshotLevelExtent& extent : extents_) {
    writer.Write(extent.first_slot);
    writer.Write(extent.count);
  }
  writer.Write(attachment.bytes());
  SealPage(page, PageKind::kSnapshotSuperblock);
  // Data + manifest must be durable before the superblock makes the file
  // openable; the superblock is the commit point.
  if (::fsync(fd_) != 0) return Status::IoError(Errno("fsync(" + path_ + ")"));
  status = PWriteFull(fd_, page, kPageSize, 0, "write superblock of " + path_);
  if (!status.ok()) return status;
  if (::fsync(fd_) != 0) return Status::IoError(Errno("fsync(" + path_ + ")"));
  ::close(fd_);
  fd_ = -1;
  status = SyncDirectoryOf(path_);
  if (!status.ok()) return status;
  finished_ = true;
  Metrics().packed_pages->Add(nodes);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SnapshotFile

SnapshotFile::SnapshotFile(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

SnapshotFile::~SnapshotFile() {
  if (map_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(map_), map_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<SnapshotFile>> SnapshotFile::Open(
    const std::string& path) {
  TraceSpan span("storage", "snapshot_open");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(Errno("open(" + path + ")"));
  }
  std::unique_ptr<SnapshotFile> file(new SnapshotFile(path, fd));

  uint8_t header[kPageSize];
  Status status =
      PReadFull(fd, header, kPageSize, 0, "read superblock of " + path);
  if (!status.ok()) {
    if (status.code() == StatusCode::kIoError &&
        status.message().find("short read") != std::string::npos) {
      return Status::InvalidArgument(path + ": truncated snapshot (" +
                                     status.message() + ")");
    }
    return status;
  }
  // Magic before checksum: "this is not a snapshot at all" beats "this
  // snapshot is corrupt".
  uint64_t magic = 0;
  std::memcpy(&magic, header + kPageEnvelopeBytes, sizeof(magic));
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument(path +
                                   ": not a stindex snapshot (bad magic)");
  }
  Result<PageReader> payload =
      OpenPagePayload(header, PageKind::kSnapshotSuperblock, /*id=*/0);
  if (!payload.ok()) {
    return Status::InvalidArgument(path + ": corrupt superblock (" +
                                   payload.status().message() + ")");
  }
  PageReader reader = payload.value();
  uint32_t format_version = 0;
  uint32_t page_size = 0;
  uint64_t node_count = 0;
  uint32_t level_count = 0;
  uint32_t manifest_pages = 0;
  uint32_t manifest_digest = 0;
  bool parsed = reader.Read(&magic) && reader.Read(&format_version) &&
                reader.Read(&page_size) && reader.Read(&node_count) &&
                reader.Read(&level_count) && reader.Read(&manifest_pages) &&
                reader.Read(&manifest_digest);
  if (!parsed) {
    return Status::InvalidArgument(path +
                                   ": corrupt superblock (short payload)");
  }
  if (format_version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        path + ": unsupported snapshot version " +
        std::to_string(format_version) + " (supported: " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (page_size != kPageSize) {
    return Status::InvalidArgument(
        path + ": page size " + std::to_string(page_size) +
        " does not match compiled kPageSize " + std::to_string(kPageSize));
  }
  // The extents must tile [0, node_count) bottom-up with no gaps.
  std::vector<SnapshotLevelExtent> extents(level_count);
  uint64_t covered = 0;
  for (SnapshotLevelExtent& extent : extents) {
    if (!reader.Read(&extent.first_slot) || !reader.Read(&extent.count)) {
      return Status::InvalidArgument(path +
                                     ": corrupt superblock (short extents)");
    }
    if (extent.first_slot != covered || extent.count == 0) {
      return Status::InvalidArgument(
          path + ": corrupt superblock (level extents do not tile slot " +
          std::to_string(covered) + ")");
    }
    covered += extent.count;
  }
  if (covered != node_count) {
    return Status::InvalidArgument(
        path + ": corrupt superblock (extents cover " +
        std::to_string(covered) + " of " + std::to_string(node_count) +
        " nodes)");
  }
  // Absent before attachments existed: those superblocks read 0 here.
  uint64_t attachment_bytes = 0;
  if (!reader.Read(&attachment_bytes) || attachment_bytes > kMaxAttachment) {
    return Status::InvalidArgument(path +
                                   ": corrupt superblock (attachment size)");
  }
  const uint64_t attachment_pages =
      (attachment_bytes + kPageSize - 1) / kPageSize;
  const uint64_t data_pages = node_count + attachment_pages;
  if (manifest_pages != ManifestPagesFor(static_cast<size_t>(data_pages))) {
    return Status::InvalidArgument(
        path + ": corrupt superblock (" + std::to_string(manifest_pages) +
        " manifest pages for " + std::to_string(node_count) + " nodes and " +
        std::to_string(attachment_pages) + " attachment pages)");
  }

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IoError(Errno("fstat(" + path + ")"));
  }
  const off_t expected =
      static_cast<off_t>((1 + data_pages + manifest_pages) * kPageSize);
  if (st.st_size < expected) {
    return Status::InvalidArgument(
        path + ": truncated snapshot (" + std::to_string(st.st_size) +
        " bytes, superblock implies " + std::to_string(expected) + ")");
  }

  file->node_count_ = static_cast<size_t>(node_count);
  file->attachment_bytes_ = static_cast<size_t>(attachment_bytes);
  file->extents_ = std::move(extents);
  file->superblock_checksum_ = SealedPageCrc32(header);

  // Verify through pread, so open leaves the mapping untouched: it
  // becomes resident only as pools borrow pages. First the manifest
  // against the superblock's digest, then every data page against its
  // manifest entry.
  const size_t data = static_cast<size_t>(data_pages);
  const std::unique_ptr<Page[]> batch =
      std::make_unique_for_overwrite<Page[]>(kBatchPages);
  std::vector<uint32_t> checksums;
  checksums.reserve(data);
  status = CheckPages(
      fd, path, "manifest", 1 + data, manifest_pages, batch.get(),
      [&](size_t m, const uint8_t* page) {
        Result<PageReader> manifest = OpenPagePayload(
            page, PageKind::kSnapshotManifest, static_cast<PageId>(1 + data + m));
        if (!manifest.ok()) {
          return Status::InvalidArgument(path + ": corrupt manifest page " +
                                         std::to_string(m) + " (" +
                                         manifest.status().message() + ")");
        }
        PageReader entries = manifest.value();
        const size_t begin = m * kManifestEntriesPerPage;
        const size_t end = std::min(begin + kManifestEntriesPerPage, data);
        for (size_t i = begin; i < end; ++i) {
          uint32_t crc = 0;
          if (!entries.Read(&crc)) {
            return Status::InvalidArgument(path + ": corrupt manifest page " +
                                           std::to_string(m) +
                                           " (short payload)");
          }
          checksums.push_back(crc);
        }
        return Status::OK();
      });
  if (!status.ok()) return status;
  if (ManifestDigest(checksums) != manifest_digest) {
    return Status::InvalidArgument(
        path + ": manifest digest mismatch (superblock and manifest disagree)");
  }
  // Node pages, then attachment pages, each named in its own numbering.
  status = CheckPages(fd, path, "data", 1, data, batch.get(),
                      [&](size_t id, const uint8_t* page) {
                        if (Crc32(page, kPageSize) == checksums[id]) {
                          return Status::OK();
                        }
                        return Status::InvalidArgument(
                            path + ": checksum mismatch on " +
                            (id < file->node_count_
                                 ? "page " + std::to_string(id)
                                 : "attachment page " +
                                       std::to_string(id -
                                                      file->node_count_)));
                      });
  if (!status.ok()) return status;

  void* map = ::mmap(nullptr, static_cast<size_t>(expected), PROT_READ,
                     MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) return Status::IoError(Errno("mmap(" + path + ")"));
  file->map_ = static_cast<const uint8_t*>(map);
  file->map_bytes_ = static_cast<size_t>(expected);
  span.Arg("pages", static_cast<int64_t>(file->node_count_));
  return file;
}

Status SnapshotFile::Read(PageId id, uint8_t* out) const {
  const uint8_t* page = Borrow(id);
  if (page == nullptr) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": read past the snapshot's last page");
  }
  std::memcpy(out, page, kPageSize);
  return Status::OK();
}

bool SnapshotFile::IsFile(const std::string& path) const {
  struct stat named;
  struct stat open;
  return ::stat(path.c_str(), &named) == 0 && ::fstat(fd_, &open) == 0 &&
         named.st_dev == open.st_dev && named.st_ino == open.st_ino;
}

const uint8_t* SnapshotFile::Borrow(PageId id) const {
  if (static_cast<size_t>(id) >= node_count_) return nullptr;
  return map_ + SlotOffset(id);
}

// ---------------------------------------------------------------------------
// MmapSnapshotBackend

MmapSnapshotBackend::MmapSnapshotBackend(std::unique_ptr<SnapshotFile> file)
    : file_(std::move(file)) {
  STINDEX_CHECK(file_ != nullptr);
}

Result<std::unique_ptr<MmapSnapshotBackend>> MmapSnapshotBackend::Open(
    const std::string& path) {
  Result<std::unique_ptr<SnapshotFile>> file = SnapshotFile::Open(path);
  if (!file.ok()) return file.status();
  return std::make_unique<MmapSnapshotBackend>(std::move(file).value());
}

Status MmapSnapshotBackend::Read(PageId id, uint8_t* out) const {
  return file_->Read(id, out);
}

const uint8_t* MmapSnapshotBackend::BorrowPage(PageId id) const {
  const uint8_t* page = file_->Borrow(id);
  if (page != nullptr) Metrics().borrows->Add(1);
  return page;
}

Status MmapSnapshotBackend::Write(PageId id, const uint8_t* data) {
  (void)data;
  return Status::FailedPrecondition("snapshot backend is read-only (write of page " +
                                    std::to_string(id) + ")");
}

}  // namespace stindex
