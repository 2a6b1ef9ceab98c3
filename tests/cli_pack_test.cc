// `stindex_cli pack` recovers the live tier from an ingested journal and
// packs its historical tree, leaving the journal untouched. A journal
// whose ingest was interrupted holds open buffers, whose seals the pack's
// Finish journals; those must stay off the file, or a resumed `ingest`
// builds a different tree than it would have without the pack.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/random_dataset.h"
#include "io/csv.h"
#include "live/live_tier.h"
#include "storage/file_backend.h"
#include "temp_path.h"

namespace stindex {
namespace {

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// `path` quoted for the shell.
std::string Quoted(const std::string& path) { return "'" + path + "'"; }

// Runs `stindex_cli args`, expects exit status 0 and returns its stdout.
std::string RunCli(const std::string& args) {
  const std::string command = Quoted(STINDEX_CLI) + " " + args;
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string out;
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, read);
  }
  const int status = ::pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << command << " -> " << status << "\n" << out;
  return out;
}

// The line `ingest` ends with: updates skipped as already absorbed,
// segments migrated, tree pages, WAL records and pages, commits.
std::string IngestSummary(const std::string& out) {
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("ingested ", 0) == 0) return line;
  }
  ADD_FAILURE() << "no ingest summary in:\n" << out;
  return "";
}

TEST(CliPackTest, PackLeavesAnInterruptedJournalUntouched) {
  namespace fs = std::filesystem;
  const TempPath root("cli_pack");
  const fs::path dir = root.path();
  fs::create_directories(dir / "packed");
  fs::create_directories(dir / "unpacked");

  RandomDatasetConfig config;
  config.num_objects = 300;
  config.seed = 11;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const std::string objects_csv = (dir / "objects.csv").string();
  ASSERT_TRUE(WriteTrajectoriesCsv(objects_csv, objects).ok());

  // An ingest interrupted halfway: `ingest`'s default options and commit
  // cadence, then the tier is destroyed without Finish.
  const fs::path journal = dir / "packed" / "live_wal.stpages";
  {
    Result<std::unique_ptr<FilePageBackend>> wal =
        FilePageBackend::Create(journal.string());
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(LiveTierOptions{}, std::move(wal).value());
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();
    const std::vector<LiveObservation> stream = MakeObservationStream(objects);
    for (size_t i = 0; i < stream.size() / 2; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % 64 == 0) {
        ASSERT_TRUE(tier.value()->Commit().ok());
      }
    }
  }
  fs::copy_file(journal, dir / "unpacked" / "live_wal.stpages");

  const std::string before = ReadBytes(journal.string());
  ASSERT_FALSE(before.empty());
  RunCli("pack --db " + Quoted((dir / "packed").string()));
  EXPECT_TRUE(fs::exists(dir / "packed" / "historical.stsnap"));
  EXPECT_TRUE(ReadBytes(journal.string()) == before)
      << "pack changed the journal it recovered from";

  // Resuming the packed journal builds what resuming its never-packed
  // copy builds.
  const std::string packed =
      IngestSummary(RunCli("ingest --in " + Quoted(objects_csv) + " --db " +
                           Quoted((dir / "packed").string())));
  const std::string unpacked =
      IngestSummary(RunCli("ingest --in " + Quoted(objects_csv) + " --db " +
                           Quoted((dir / "unpacked").string())));
  EXPECT_EQ(packed, unpacked);
}

}  // namespace
}  // namespace stindex
