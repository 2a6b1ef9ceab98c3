#ifndef STINDEX_TESTS_TEMP_PATH_H_
#define STINDEX_TESTS_TEMP_PATH_H_

// A file (or directory) a test writes under its temporary directory, and
// removes again: a suite leaves its TEST_TMPDIR empty, whichever way its
// tests end.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace stindex {

// `name` under ::testing::TempDir(). Whatever is at the path is removed
// when the TempPath is constructed — a crashed earlier run's leftover —
// and when it goes out of scope.
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {
    Remove();
  }
  ~TempPath() { Remove(); }

  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  const std::string& path() const { return path_; }
  operator const std::string&() const { return path_; }

 private:
  void Remove() const {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  std::string path_;
};

}  // namespace stindex

#endif  // STINDEX_TESTS_TEMP_PATH_H_
