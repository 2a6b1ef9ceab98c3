#include "core/slow_query_log.h"

#include <cinttypes>

#include "util/check.h"

namespace stindex {

namespace {

// %.17g matches the JSON writer's round-trip-safe float rendering.
void AppendDouble(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void AppendUint(std::string& out, uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  out += buffer;
}

}  // namespace

SlowQueryLog::SlowQueryLog(double threshold_ms, size_t capacity)
    : threshold_ms_(threshold_ms), capacity_(capacity == 0 ? 1 : capacity) {}

SlowQueryLog::~SlowQueryLog() {
  if (sink_ != nullptr) std::fclose(sink_);
}

bool SlowQueryLog::OpenJsonlSink(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  STINDEX_CHECK_MSG(sink_ == nullptr, "JSONL sink already open");
  sink_ = std::fopen(path.c_str(), "w");
  return sink_ != nullptr;
}

bool SlowQueryLog::MaybeRecord(double latency_ms, bool is_snapshot,
                               const Rect2D& area, const TimeInterval& range,
                               uint64_t results, const QueryProfile& profile) {
  if (latency_ms < threshold_ms_) return false;
  std::lock_guard<std::mutex> lock(mu_);
  SlowQueryEntry entry;
  entry.sequence = ++captured_;
  entry.latency_ms = latency_ms;
  entry.is_snapshot = is_snapshot;
  entry.area = area;
  entry.range = range;
  entry.results = results;
  entry.profile = profile;
  if (sink_ != nullptr) AppendJsonlLocked(entry);
  ring_.push_back(std::move(entry));
  if (ring_.size() > capacity_) {
    ring_.erase(ring_.begin());
    ++evicted_;
  }
  return true;
}

uint64_t SlowQueryLog::captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captured_;
}

uint64_t SlowQueryLog::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

std::vector<SlowQueryEntry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

void SlowQueryLog::AppendJsonlLocked(const SlowQueryEntry& entry) {
  // One compact JSON object per line; hand-formatted because JsonWriter
  // pretty-prints (multi-line) and JSONL needs exactly one line per
  // record.
  std::string line = "{\"seq\":";
  AppendUint(line, entry.sequence);
  line += ",\"latency_ms\":";
  AppendDouble(line, entry.latency_ms);
  line += ",\"kind\":\"";
  line += entry.is_snapshot ? "snapshot" : "interval";
  line += "\",\"area\":[";
  AppendDouble(line, entry.area.xlo);
  line += ",";
  AppendDouble(line, entry.area.ylo);
  line += ",";
  AppendDouble(line, entry.area.xhi);
  line += ",";
  AppendDouble(line, entry.area.yhi);
  line += "],\"t\":[";
  AppendUint(line, static_cast<uint64_t>(entry.range.start));
  line += ",";
  AppendUint(line, static_cast<uint64_t>(
                       entry.is_snapshot ? entry.range.start : entry.range.end));
  line += "],\"results\":";
  AppendUint(line, entry.results);
  line += ",\"nodes\":";
  AppendUint(line, entry.profile.nodes_visited);
  line += ",\"pages_hit\":";
  AppendUint(line, entry.profile.pages_hit);
  line += ",\"pages_missed\":";
  AppendUint(line, entry.profile.pages_missed);
  line += ",\"leaf_entries\":";
  AppendUint(line, entry.profile.leaf_entries_scanned);
  line += ",\"candidates\":";
  AppendUint(line, entry.profile.candidates);
  line += ",\"false_hits\":";
  AppendUint(line, entry.profile.false_hits);
  line += ",\"pending_scanned\":";
  AppendUint(line, entry.profile.pending_scanned);
  line += ",\"nodes_per_level\":[";
  for (size_t i = 0; i < entry.profile.nodes_per_level.size(); ++i) {
    if (i > 0) line += ",";
    AppendUint(line, entry.profile.nodes_per_level[i]);
  }
  line += "]}\n";
  std::fwrite(line.data(), 1, line.size(), sink_);
  std::fflush(sink_);
}

void SlowQueryLog::RenderStatusz(JsonWriter* json) const {
  std::lock_guard<std::mutex> lock(mu_);
  json->BeginObject();
  json->Key("threshold_ms").Double(threshold_ms_);
  json->Key("capacity").Uint(capacity_);
  json->Key("captured").Uint(captured_);
  json->Key("evicted").Uint(evicted_);
  json->Key("entries").BeginArray();
  for (const SlowQueryEntry& entry : ring_) {
    json->BeginObject();
    json->Key("seq").Uint(entry.sequence);
    json->Key("latency_ms").Double(entry.latency_ms);
    json->Key("kind").String(entry.is_snapshot ? "snapshot" : "interval");
    json->Key("area")
        .BeginArray()
        .Double(entry.area.xlo)
        .Double(entry.area.ylo)
        .Double(entry.area.xhi)
        .Double(entry.area.yhi)
        .EndArray();
    json->Key("t_start").Int(entry.range.start);
    if (!entry.is_snapshot) json->Key("t_end").Int(entry.range.end);
    json->Key("results").Uint(entry.results);
    json->Key("nodes_visited").Uint(entry.profile.nodes_visited);
    json->Key("pages_hit").Uint(entry.profile.pages_hit);
    json->Key("pages_missed").Uint(entry.profile.pages_missed);
    json->Key("leaf_entries_scanned").Uint(entry.profile.leaf_entries_scanned);
    json->Key("candidates").Uint(entry.profile.candidates);
    json->Key("false_hits").Uint(entry.profile.false_hits);
    json->Key("pending_scanned").Uint(entry.profile.pending_scanned);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

}  // namespace stindex
