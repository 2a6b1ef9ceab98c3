#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>

#include "datagen/random_dataset.h"
#include "util/check.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/trace.h"

namespace stbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::Sort() {
  std::sort(values_.begin(), values_.end());
  sorted_ = true;
}

int64_t Samples::Percentile(double p) const {
  STINDEX_CHECK_MSG(sorted_, "Samples read before Sort()");
  if (values_.empty()) return 0;
  // Nearest rank: the smallest value with at least p% of samples <= it.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values_.size())));
  rank = std::clamp<size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

size_t Samples::Beyond(double p) const {
  const int64_t threshold = Percentile(p);
  return static_cast<size_t>(
      values_.end() -
      std::upper_bound(values_.begin(), values_.end(), threshold));
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (int64_t v : values_) sum += static_cast<double>(v);
  return sum / static_cast<double>(values_.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

void Report::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back("failed: " + what);
}

void Report::Mismatch(const std::string& what) {
  ++mismatches;
  if (errors.size() < 8) errors.push_back("mismatch: " + what);
}

std::string Report::ToJson() const {
  stindex::JsonWriter json;
  json.BeginObject();
  json.Key("workload").String(workload);
  json.Key("attempted").Uint(attempted);
  json.Key("failed").Uint(failed);
  json.Key("mismatches").Uint(mismatches);
  json.Key("metrics").BeginObject();
  for (const Metric& metric : metrics) {
    json.Key(metric.name).BeginObject();
    json.Key("value").Double(metric.value);
    json.Key("unit").String(metric.unit);
    json.EndObject();
  }
  json.EndObject();
  json.Key("support").BeginObject();
  for (const Support& support : supports) {
    json.Key(support.name).BeginObject();
    json.Key("count").Uint(support.count);
    json.Key("beyond_p99").Uint(support.beyond_p99);
    json.EndObject();
  }
  json.EndObject();
  json.Key("errors").BeginArray();
  for (const std::string& error : errors) json.String(error);
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::vector<stindex::Trajectory> RandomObjects(size_t n, uint64_t seed) {
  stindex::RandomDatasetConfig config;
  config.num_objects = n;
  config.seed = stindex::Rng::DeriveSeed(seed, 1);
  return stindex::GenerateRandomDataset(config);
}

std::vector<stindex::STQuery> QueryStream(size_t count, uint64_t seed,
                                          stindex::Time time_domain) {
  stindex::QuerySetConfig snapshots = stindex::MixedSnapshotSet();
  stindex::QuerySetConfig ranges = stindex::SmallRangeSet();
  for (stindex::QuerySetConfig* config : {&snapshots, &ranges}) {
    config->count = (count + 1) / 2;
    config->time_domain = time_domain;
  }
  snapshots.seed = stindex::Rng::DeriveSeed(seed, 2);
  ranges.seed = stindex::Rng::DeriveSeed(seed, 3);
  const std::vector<stindex::STQuery> a = GenerateQuerySet(snapshots);
  const std::vector<stindex::STQuery> b = GenerateQuerySet(ranges);
  std::vector<stindex::STQuery> stream;
  stream.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    stream.push_back(i % 2 == 0 ? a[i / 2] : b[i / 2]);
  }
  return stream;
}

void StartTraceCapture() {
  stindex::TraceSessionConfig config;
  config.events_per_thread = 1 << 17;
  stindex::TraceSession::Start(config);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

double FileMb(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / 1e6;
}

}  // namespace stbench
