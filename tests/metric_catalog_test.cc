// Every metric the library registers is documented: each metric-name
// literal src/ passes to GetCounter, GetGauge or GetHistogram, or names a
// ScopedTimer's histogram with, must appear in docs/observability.md. A
// name built around a scope — "bufferpool." + scope + ".misses" — is
// documented with `<scope>` in the scope's place. The document names a
// metric when it holds the name in backticks, or a `.suffix` after a
// full name of the same stem on one line, as the tables write
// `backend.file.reads` / `.writes`.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>

namespace stindex {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The metric names registered in the C++ `source`.
std::set<std::string> RegisteredNames(const std::string& source) {
  static const std::regex kRegistration(
      R"re((?:Get(?:Counter|Gauge|Histogram)\(|ScopedTimer\s+\w+\()\s*)re"
      R"re("([^"]*)"(?:\s*\+\s*\w+\s*\+\s*"([^"]*)")?)re");
  std::set<std::string> names;
  for (std::sregex_iterator it(source.begin(), source.end(), kRegistration),
       end;
       it != end; ++it) {
    const std::smatch& match = *it;
    names.insert(match[2].matched ? match[1].str() + "<scope>" + match[2].str()
                                  : match[1].str());
  }
  return names;
}

// Whether the markdown `doc` names metric `name`.
bool Documented(const std::string& doc, const std::string& name) {
  if (doc.find("`" + name + "`") != std::string::npos) return true;
  const size_t dot = name.rfind('.');
  if (dot == std::string::npos) return false;
  std::string stem = "`";
  stem.append(name, 0, dot + 1);  // "`backend.file."
  std::string suffix = "`";
  suffix.append(name, dot).append("`");  // "`.writes`"
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t at = line.find(stem);
    if (at != std::string::npos &&
        line.find(suffix, at) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(MetricCatalogTest, ReadsRegistrationsAndTheDocumentsForms) {
  EXPECT_EQ(RegisteredNames(R"cc(r.GetCounter("a.b"), r.GetGauge(
                "c.d")->Set(1); GetHistogram(name); ScopedTimer t("e.f");
                registry.GetCounter("pool." + scope_ + ".misses"))cc"),
            (std::set<std::string>{"a.b", "c.d", "e.f", "pool.<scope>.misses"}));
  const std::string doc =
      "| `file.reads` / `.writes` | counter |\n| `.bytes` | x |\n"
      "`pool.<scope>.misses` and `live.wal.*`\n";
  EXPECT_TRUE(Documented(doc, "file.reads"));
  EXPECT_TRUE(Documented(doc, "file.writes"));
  EXPECT_TRUE(Documented(doc, "pool.<scope>.misses"));
  EXPECT_FALSE(Documented(doc, "file.bytes"));
  EXPECT_FALSE(Documented(doc, "live.wal.pages"));
}

TEST(MetricCatalogTest, EveryRegisteredMetricIsDocumented) {
  namespace fs = std::filesystem;
  const fs::path root = STINDEX_SOURCE_DIR;
  std::set<std::string> names;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root / "src")) {
    const fs::path extension = entry.path().extension();
    if (extension != ".cc" && extension != ".h") continue;
    names.merge(RegisteredNames(ReadFile(entry.path())));
  }
  // A floor against a pattern that silently stopped matching.
  ASSERT_GT(names.size(), 40u);
  const std::string doc = ReadFile(root / "docs" / "observability.md");
  ASSERT_FALSE(doc.empty());
  std::string missing;
  for (const std::string& name : names) {
    if (!Documented(doc, name)) missing += "\n  " + name;
  }
  EXPECT_TRUE(missing.empty())
      << "docs/observability.md does not name these metrics:" << missing;
}

}  // namespace
}  // namespace stindex
