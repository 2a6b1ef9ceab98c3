#include "storage/file_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "storage/page_codec.h"
#include "storage/posix_io.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace stindex {
namespace {

struct FileMetrics {
  Counter* reads;
  Counter* writes;
  Counter* bytes_read;
  Counter* bytes_written;
};

const FileMetrics& Metrics() {
  static const FileMetrics m = [] {
    MetricRegistry& r = MetricRegistry::Global();
    return FileMetrics{r.GetCounter("backend.file.reads"),
                       r.GetCounter("backend.file.writes"),
                       r.GetCounter("backend.file.bytes_read"),
                       r.GetCounter("backend.file.bytes_written")};
  }();
  return m;
}

}  // namespace

FilePageBackend::FilePageBackend(std::string path, int fd, size_t bitmap_pages)
    : path_(std::move(path)),
      fd_(fd),
      bitmap_pages_(bitmap_pages),
      bitmap_(bitmap_pages * kPageSize, 0) {}

Result<std::unique_ptr<FilePageBackend>> FilePageBackend::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(Errno("open(" + path + ")"));
  }
  std::unique_ptr<FilePageBackend> backend(
      new FilePageBackend(path, fd, kFileBitmapPages));
  backend->meta_dirty_ = true;
  Status status = backend->WriteMetadata();
  if (!status.ok()) return status;
  return backend;
}

Result<std::unique_ptr<FilePageBackend>> FilePageBackend::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IoError(Errno("open(" + path + ")"));
  }
  uint8_t header[kPageSize];
  Status status =
      PReadFull(fd, header, kPageSize, 0, "read header of " + path);
  if (!status.ok()) {
    ::close(fd);
    if (status.code() == StatusCode::kIoError &&
        status.message().find("short read") != std::string::npos) {
      // A file too small for even the header page is malformed input,
      // not an environment failure.
      return Status::InvalidArgument(path + ": truncated page file (" +
                                     status.message() + ")");
    }
    return status;
  }
  // Check the magic before the checksum so "this is not a page file at
  // all" beats "this page file is corrupt".
  uint64_t magic = 0;
  std::memcpy(&magic, header + kPageEnvelopeBytes, sizeof(magic));
  if (magic != kFilePageMagic) {
    ::close(fd);
    return Status::InvalidArgument(path + ": not a stindex page file (bad magic)");
  }
  Result<PageReader> payload =
      OpenPagePayload(header, PageKind::kFileHeader, /*id=*/0);
  if (!payload.ok()) {
    ::close(fd);
    return Status::InvalidArgument(path + ": corrupt header (" +
                                   payload.status().message() + ")");
  }
  PageReader reader = payload.value();
  uint32_t format_version = 0;
  uint64_t page_size = 0;
  uint64_t bitmap_pages = 0;
  uint64_t slot_count = 0;
  uint64_t live_count = 0;
  bool parsed = reader.Read(&magic) && reader.Read(&format_version) &&
                reader.Read(&page_size) && reader.Read(&bitmap_pages) &&
                reader.Read(&slot_count) && reader.Read(&live_count);
  if (!parsed) {
    ::close(fd);
    return Status::InvalidArgument(path + ": corrupt header (short payload)");
  }
  if (format_version != kFileFormatVersion) {
    ::close(fd);
    return Status::InvalidArgument(
        path + ": unsupported format version " +
        std::to_string(format_version) + " (supported: " +
        std::to_string(kFileFormatVersion) + ")");
  }
  if (page_size != kPageSize) {
    ::close(fd);
    return Status::InvalidArgument(
        path + ": page size " + std::to_string(page_size) +
        " does not match compiled kPageSize " + std::to_string(kPageSize));
  }
  if (bitmap_pages == 0 || slot_count > bitmap_pages * kPageSize * 8) {
    ::close(fd);
    return Status::InvalidArgument(path + ": corrupt header (bitmap bounds)");
  }
  std::unique_ptr<FilePageBackend> backend(
      new FilePageBackend(path, fd, static_cast<size_t>(bitmap_pages)));
  backend->slot_count_ = static_cast<size_t>(slot_count);
  backend->live_count_ = static_cast<size_t>(live_count);
  status = PReadFull(fd, backend->bitmap_.data(), backend->bitmap_.size(),
                     static_cast<off_t>(kPageSize),
                     "read bitmap of " + path);
  if (!status.ok()) {
    if (status.message().find("short read") != std::string::npos) {
      return Status::InvalidArgument(path + ": truncated page file (" +
                                     status.message() + ")");
    }
    return status;
  }
  // The file must be large enough to hold every allocated data page.
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) return Status::IoError(Errno("lseek(" + path + ")"));
  const off_t needed =
      static_cast<off_t>((1 + bitmap_pages + slot_count) * kPageSize);
  if (end < needed) {
    return Status::InvalidArgument(
        path + ": truncated page file (" + std::to_string(end) +
        " bytes, header implies at least " + std::to_string(needed) + ")");
  }
  return backend;
}

FilePageBackend::~FilePageBackend() {
  if (fd_ >= 0) {
    // The destructor is a sync backstop, not the durability contract:
    // callers that need to observe sync failures call Sync() themselves
    // (recovery depends on seeing kIoError, so this must never CHECK).
    const Status status = Sync();
    if (!status.ok()) {
      std::fprintf(stderr, "FilePageBackend(%s): close-time sync failed: %s\n",
                   path_.c_str(), status.ToString().c_str());
    }
    ::close(fd_);
  }
}

void FilePageBackend::Abandon() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  meta_dirty_ = false;
}

Status FilePageBackend::Read(PageId id, uint8_t* out) const {
  if (id >= slot_count_ || !BitmapGet(id)) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": read of unallocated page");
  }
  TraceSpan span("storage", "pread");
  span.Arg("page", static_cast<int64_t>(id));
  Status status = PReadFull(fd_, out, kPageSize, DataOffset(id),
                            "read page " + std::to_string(id) + " of " + path_);
  if (!status.ok()) return status;
  const FileMetrics& m = Metrics();
  m.reads->Add(1);
  m.bytes_read->Add(kPageSize);
  return Status::OK();
}

Status FilePageBackend::Write(PageId id, const uint8_t* data) {
  if (id == kInvalidPage || id >= MaxSlots()) {
    return Status::IoError("page " + std::to_string(id) +
                           ": beyond bitmap capacity of " +
                           std::to_string(MaxSlots()) + " slots");
  }
  TraceSpan span("storage", "pwrite");
  span.Arg("page", static_cast<int64_t>(id));
  Status status = PWriteFull(fd_, data, kPageSize, DataOffset(id),
                             "write page " + std::to_string(id) + " of " +
                                 path_);
  if (!status.ok()) return status;
  if (!BitmapGet(id)) {
    BitmapSet(id, true);
    ++live_count_;
  }
  if (id + 1 > slot_count_) slot_count_ = id + 1;
  meta_dirty_ = true;
  const FileMetrics& m = Metrics();
  m.writes->Add(1);
  m.bytes_written->Add(kPageSize);
  return Status::OK();
}

Status FilePageBackend::Free(PageId id) {
  if (id >= slot_count_ || !BitmapGet(id)) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": free of unallocated page");
  }
  BitmapSet(id, false);
  --live_count_;
  meta_dirty_ = true;
  return Status::OK();
}

bool FilePageBackend::IsAllocated(PageId id) const {
  return id < slot_count_ && BitmapGet(id);
}

Status FilePageBackend::Sync() {
  Status status = WriteMetadata();
  if (!status.ok()) return status;
  if (::fsync(fd_) < 0) {
    return Status::IoError(Errno("fsync(" + path_ + ")"));
  }
  return Status::OK();
}

Status FilePageBackend::WriteMetadata() {
  if (!meta_dirty_) return Status::OK();
  uint8_t header[kPageSize];
  PageWriter writer = PayloadWriter(header);
  writer.Write(kFilePageMagic);
  writer.Write(kFileFormatVersion);
  writer.Write(static_cast<uint64_t>(kPageSize));
  writer.Write(static_cast<uint64_t>(bitmap_pages_));
  writer.Write(static_cast<uint64_t>(slot_count_));
  writer.Write(static_cast<uint64_t>(live_count_));
  SealPage(header, PageKind::kFileHeader);
  Status status =
      PWriteFull(fd_, header, kPageSize, 0, "write header of " + path_);
  if (!status.ok()) return status;
  status = PWriteFull(fd_, bitmap_.data(), bitmap_.size(),
                      static_cast<off_t>(kPageSize),
                      "write bitmap of " + path_);
  if (!status.ok()) return status;
  meta_dirty_ = false;
  return Status::OK();
}

}  // namespace stindex
