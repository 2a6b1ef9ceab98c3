#ifndef STINDEX_STORAGE_POSIX_IO_H_
#define STINDEX_STORAGE_POSIX_IO_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

// Full-buffer POSIX I/O shared by the file-backed stores (the page file
// and the snapshot file). Storage-internal.
namespace stindex {

// `what` followed by ": " and the text of the current errno.
std::string Errno(const std::string& what);

// Full-buffer pread/pwrite: POSIX may return short counts, so loop until
// the whole buffer moved or the call fails, retrying EINTR. A short read
// at EOF is reported as such (truncated file), not padded with zeros.
// Errors are IoError, prefixed with `what`.
Status PReadFull(int fd, uint8_t* buf, size_t size, off_t offset,
                 const std::string& what);
Status PWriteFull(int fd, const uint8_t* buf, size_t size, off_t offset,
                  const std::string& what);

}  // namespace stindex

#endif  // STINDEX_STORAGE_POSIX_IO_H_
