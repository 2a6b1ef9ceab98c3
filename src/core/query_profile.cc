#include "core/query_profile.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"

namespace stindex {

void QueryProfile::Merge(const QueryProfile& other) {
  if (nodes_per_level.size() < other.nodes_per_level.size()) {
    nodes_per_level.resize(other.nodes_per_level.size(), 0);
  }
  for (size_t l = 0; l < other.nodes_per_level.size(); ++l) {
    nodes_per_level[l] += other.nodes_per_level[l];
  }
  nodes_visited += other.nodes_visited;
  pages_hit += other.pages_hit;
  pages_missed += other.pages_missed;
  leaf_entries_scanned += other.leaf_entries_scanned;
  candidates += other.candidates;
  false_hits += other.false_hits;
  pending_scanned += other.pending_scanned;
}

std::string QueryProfile::ToTable() const {
  char line[128];
  std::string out;
  out += "query profile\n";
  out += "  level  nodes visited\n";
  // Root first: levels count up from the leaves.
  for (size_t l = nodes_per_level.size(); l-- > 0;) {
    std::snprintf(line, sizeof(line), "  %5zu  %13llu%s\n", l,
                  static_cast<unsigned long long>(nodes_per_level[l]),
                  l == 0 ? "  (leaves)" : "");
    out += line;
  }
  std::snprintf(line, sizeof(line), "  nodes visited        %llu\n",
                static_cast<unsigned long long>(nodes_visited));
  out += line;
  std::snprintf(line, sizeof(line), "  pages hit / missed   %llu / %llu\n",
                static_cast<unsigned long long>(pages_hit),
                static_cast<unsigned long long>(pages_missed));
  out += line;
  std::snprintf(line, sizeof(line), "  leaf entries scanned %llu\n",
                static_cast<unsigned long long>(leaf_entries_scanned));
  out += line;
  std::snprintf(line, sizeof(line), "  candidates           %llu\n",
                static_cast<unsigned long long>(candidates));
  out += line;
  std::snprintf(
      line, sizeof(line), "  false hits           %llu (%.1f%% of candidates)\n",
      static_cast<unsigned long long>(false_hits),
      candidates == 0 ? 0.0
                      : 100.0 * static_cast<double>(false_hits) /
                            static_cast<double>(candidates));
  out += line;
  std::snprintf(line, sizeof(line), "  pending scanned      %llu\n",
                static_cast<unsigned long long>(pending_scanned));
  out += line;
  return out;
}

FalseHitRefiner::FalseHitRefiner(const std::vector<Trajectory>& objects,
                                 const std::vector<SegmentRecord>& records)
    : objects_(&objects), records_(&records) {
  object_index_.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    object_index_.emplace(objects[i].id(), i);
  }
}

bool FalseHitRefiner::Matches(uint64_t record_index,
                              const STQuery& query) const {
  STINDEX_CHECK(record_index < records_->size());
  const SegmentRecord& record = (*records_)[record_index];
  const auto it = object_index_.find(record.object);
  STINDEX_CHECK_MSG(it != object_index_.end(),
                    "FalseHitRefiner: candidate object not in the dataset");
  const Trajectory& object = (*objects_)[it->second];
  if (!record.box.interval.Intersects(query.range)) return false;
  const TimeInterval overlap = record.box.interval.Intersection(query.range);
  for (Time t = overlap.start; t < overlap.end; ++t) {
    if (object.RectAt(t).Intersects(query.area)) return true;
  }
  return false;
}

uint64_t FalseHitRefiner::CountFalseHits(
    const std::vector<uint64_t>& candidates, const STQuery& query,
    QueryProfile* profile) const {
  uint64_t false_hits = 0;
  for (const uint64_t id : candidates) {
    if (!Matches(id, query)) ++false_hits;
  }
  if (profile != nullptr) profile->false_hits += false_hits;
  return false_hits;
}

}  // namespace stindex
