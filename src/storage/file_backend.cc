#include "storage/file_backend.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "storage/page_codec.h"
#include "storage/posix_io.h"
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

off_t SlotOffset(PageId id) {
  return static_cast<off_t>(id) * static_cast<off_t>(kPageSize);
}

}  // namespace

Result<std::unique_ptr<FilePageBackend>> FilePageBackend::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(Errno("open(" + path + ")"));
  }
  return std::unique_ptr<FilePageBackend>(new FilePageBackend(path, fd));
}

Result<std::unique_ptr<FilePageBackend>> FilePageBackend::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    const bool missing = errno == ENOENT;
    const std::string error = Errno("open(" + path + ")");
    return missing ? Status::NotFound(error) : Status::IoError(error);
  }
  // Owns the fd from here: every early return closes it.
  std::unique_ptr<FilePageBackend> backend(new FilePageBackend(path, fd));
  struct stat st;
  if (::fstat(fd, &st) < 0) {
    return Status::IoError(Errno("fstat(" + path + ")"));
  }
  const uint64_t bytes = static_cast<uint64_t>(st.st_size);
  if (bytes % kPageSize != 0) {
    return Status::InvalidArgument(
        path + ": " + std::to_string(bytes) +
        " bytes is not a whole number of " + std::to_string(kPageSize) +
        "-byte pages");
  }
  const uint64_t pages = bytes / kPageSize;
  if (pages > kInvalidPage) {
    return Status::InvalidArgument(path + ": " + std::to_string(pages) +
                                   " pages overflow the page id space");
  }
  if (pages > 0) {
    uint8_t first[kPageSize];
    Status status =
        PReadFull(fd, first, kPageSize, 0, "read page 0 of " + path);
    if (!status.ok()) return status;
    if (OpenPagePayload(first, PageKind::kFileHeader, 0).ok()) {
      return Status::InvalidArgument(
          path + ": page file of the previous layout (a header page and an "
                 "allocation bitmap before the pages), which this build "
                 "does not read");
    }
  }
  backend->allocated_.assign(static_cast<size_t>(pages), true);
  backend->live_count_ = static_cast<size_t>(pages);
  return backend;
}

FilePageBackend::~FilePageBackend() { ::close(fd_); }

Status FilePageBackend::Read(PageId id, uint8_t* out) const {
  if (!IsAllocated(id)) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": read of unallocated page");
  }
  TraceSpan span("storage", "pread");
  span.Arg("page", static_cast<int64_t>(id));
  Status status = PReadFull(fd_, out, kPageSize, SlotOffset(id),
                            "read page " + std::to_string(id) + " of " + path_);
  if (!status.ok()) return status;
  const FileMetrics& m = Metrics();
  m.reads->Add(1);
  m.bytes_read->Add(kPageSize);
  return Status::OK();
}

Status FilePageBackend::Write(PageId id, const uint8_t* data) {
  if (id == kInvalidPage) {
    return Status::InvalidArgument("write to kInvalidPage");
  }
  TraceSpan span("storage", "pwrite");
  span.Arg("page", static_cast<int64_t>(id));
  Status status = PWriteFull(fd_, data, kPageSize, SlotOffset(id),
                             "write page " + std::to_string(id) + " of " +
                                 path_);
  if (!status.ok()) return status;
  if (id >= allocated_.size()) allocated_.resize(id + 1, false);
  if (!allocated_[id]) {
    allocated_[id] = true;
    ++live_count_;
  }
  const FileMetrics& m = Metrics();
  m.writes->Add(1);
  m.bytes_written->Add(kPageSize);
  return Status::OK();
}

Status FilePageBackend::Free(PageId id) {
  if (!IsAllocated(id)) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": free of unallocated page");
  }
  allocated_[id] = false;
  --live_count_;
  return Status::OK();
}

Status FilePageBackend::Sync() {
  if (::fsync(fd_) < 0) {
    return Status::IoError(Errno("fsync(" + path_ + ")"));
  }
  return Status::OK();
}

}  // namespace stindex
