#ifndef STINDEX_TESTS_PROC_STATUS_H_
#define STINDEX_TESTS_PROC_STATUS_H_

// Resident-memory counters of this process, read from /proc/self/status,
// for the tests that check what an arena or a mapped snapshot keeps
// resident.

#include <cstdint>
#include <cstdio>
#include <cstring>

namespace stindex {

// Field `name` of /proc/self/status ("RssAnon", "RssFile", ...) in
// bytes; -1 when it cannot be read.
inline int64_t ProcStatusBytes(const char* name) {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1;
  const size_t length = std::strlen(name);
  int64_t bytes = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    long long kib = 0;
    if (std::strncmp(line, name, length) == 0 && line[length] == ':' &&
        std::sscanf(line + length + 1, "%lld", &kib) == 1) {
      bytes = static_cast<int64_t>(kib) * 1024;
      break;
    }
  }
  std::fclose(status);
  return bytes;
}

// Resident pages of file mappings. A mapped file on tmpfs counts as
// RssShmem instead of RssFile, so the two are summed.
inline int64_t MappedFileRssBytes() {
  return ProcStatusBytes("RssFile") + ProcStatusBytes("RssShmem");
}

// Why RssAnon checks cannot be trusted in this build, or nullptr.
// ThreadSanitizer writes anonymous shadow memory for every location the
// program writes and drops it when that memory is unmapped, so RssAnon
// moves with the shadow as well as with the program's own pages.
#if defined(__SANITIZE_THREAD__)
inline constexpr const char* kAnonRssSkipReason =
    "ThreadSanitizer's shadow memory is anonymous too, so RssAnon does not "
    "isolate the arena's pages";
#else
inline constexpr const char* kAnonRssSkipReason = nullptr;
#endif

}  // namespace stindex

#endif  // STINDEX_TESTS_PROC_STATUS_H_
