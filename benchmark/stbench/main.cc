// stbench: drives the stindex library from outside for the repository
// benchmark. One process runs one workload and prints one JSON report on
// stdout (progress and errors go to stderr). benchmark/run.py builds it,
// runs it, and turns the reports into the benchmark's result lines.
//
//   stbench --workload hist-hot|hist-cold|live-mixed|ingest --dir DIR
//           [--seed N] [--seconds S] [--traced --trace-out PATH]
//
// Untraced runs report the end-to-end metrics. --traced runs the same
// set-up, then an untraced reference half-window, a Chrome-trace capture
// of the first requests, and a probed half-window that the per-layer
// metrics come from.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "stbench: %s\nusage: stbench --workload NAME --dir DIR "
               "[--seed N] [--seconds S] [--traced --trace-out PATH]\n",
               problem.c_str());
  std::exit(2);
}

stbench::Options Parse(int argc, char** argv) {
  stbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      options.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') Usage("bad --seed '" + v + "'");
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      options.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 3600.0) {
        Usage("bad --seconds '" + v + "'");
      }
    } else if (arg == "--dir") {
      options.dir = value();
    } else if (arg == "--traced") {
      options.traced = true;
    } else if (arg == "--trace-out") {
      options.trace_path = value();
    } else {
      Usage("unknown argument '" + arg + "'");
    }
  }
  if (options.dir.empty()) Usage("--dir is required");
  if (options.traced && options.trace_path.empty()) {
    Usage("--traced needs --trace-out");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const stbench::Options options = Parse(argc, argv);
  stbench::Report report;
  report.workload = options.workload;
  if (options.workload == "hist-hot") {
    stbench::RunHist(options, /*cold=*/false, &report);
  } else if (options.workload == "hist-cold") {
    stbench::RunHist(options, /*cold=*/true, &report);
  } else if (options.workload == "live-mixed") {
    stbench::RunLiveMixed(options, &report);
  } else if (options.workload == "ingest") {
    stbench::RunIngest(options, &report);
  } else {
    Usage("unknown workload '" + options.workload + "'");
  }
  report.Add("peak_rss_mb", stbench::PeakRssMb(), "MB");
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
