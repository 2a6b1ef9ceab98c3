#include "storage/posix_io.h"

#include <errno.h>
#include <unistd.h>

#include <cstring>

namespace stindex {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Status PReadFull(int fd, uint8_t* buf, size_t size, off_t offset,
                 const std::string& what) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, buf + done, size - done,
                              offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno(what));
    }
    if (n == 0) {
      return Status::IoError(what + ": short read (" + std::to_string(done) +
                             " of " + std::to_string(size) +
                             " bytes; truncated file?)");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PWriteFull(int fd, const uint8_t* buf, size_t size, off_t offset,
                  const std::string& what) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pwrite(fd, buf + done, size - done,
                               offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno(what));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace stindex
