#ifndef STINDEX_CORE_QUERY_PROFILE_H_
#define STINDEX_CORE_QUERY_PROFILE_H_

// Per-query EXPLAIN data: where a query's node accesses went (per tree
// level), how the buffer behaved, and how many index candidates were
// *false hits* — records whose stored segment MBR intersects the query
// but whose actual per-instant rectangles never do. False hits are the
// paper's "empty space" made observable: the dead volume of a segment
// box is exactly what makes an MBR intersect a query the object never
// touches, and splitting exists to shrink it (Figures 15/17/18).
//
// A QueryProfile is a passive accumulator threaded through the tree
// query paths as an optional out-parameter (nullptr = no profiling, no
// cost). Parallel drivers give each chunk its own profile and merge the
// shards in ascending chunk order; every field is an integer count, so
// merged totals are independent of the thread count.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/segment.h"
#include "datagen/query_gen.h"
#include "trajectory/trajectory.h"

namespace stindex {

struct QueryProfile {
  // nodes_per_level[l] = nodes visited at tree level l (0 = leaves).
  std::vector<uint64_t> nodes_per_level;
  uint64_t nodes_visited = 0;
  // Buffer behaviour over the profiled queries (hits + misses = fetches).
  uint64_t pages_hit = 0;
  uint64_t pages_missed = 0;
  // Leaf entries tested against the query window.
  uint64_t leaf_entries_scanned = 0;
  // Leaf entries whose stored box intersected the window (the result set
  // before de-duplication and refinement).
  uint64_t candidates = 0;
  // Candidates the exact per-instant refinement rejected (see
  // FalseHitRefiner); 0 when no refiner ran.
  uint64_t false_hits = 0;
  // Live tier only: insert-pending segments tested against the query
  // (MigrationPipeline::CollectPending); 0 for a range that ends at or
  // before the migration watermark.
  uint64_t pending_scanned = 0;

  void CountNode(int level) {
    if (nodes_per_level.size() <= static_cast<size_t>(level)) {
      nodes_per_level.resize(static_cast<size_t>(level) + 1, 0);
    }
    ++nodes_per_level[static_cast<size_t>(level)];
    ++nodes_visited;
  }

  // Adds `other` into this profile (shard reduction; all fields are
  // counts, so merging commutes — drivers still merge in chunk order for
  // uniformity with the histogram contract).
  void Merge(const QueryProfile& other);

  // Human-readable EXPLAIN table (the `stindex_cli query --explain`
  // rendering).
  std::string ToTable() const;
};

// Exact-geometry post-pass deciding whether an index candidate is a true
// or a false hit. The indexes only store one MBR per segment record; the
// refiner goes back to the trajectories and tests the actual rectangle
// at every instant in the overlap of the record's interval and the query
// range.
class FalseHitRefiner {
 public:
  // Both containers must outlive the refiner. `records` are the segment
  // records the index was built over, in insertion order: candidate id i
  // returned by a tree refers to records[i].
  FalseHitRefiner(const std::vector<Trajectory>& objects,
                  const std::vector<SegmentRecord>& records);

  // True when the object of records[record_index] actually intersects
  // query.area at some instant of
  // intersect(records[record_index].box.interval, query.range).
  bool Matches(uint64_t record_index, const STQuery& query) const;

  // Counts the candidates Matches rejects and adds them to
  // profile->false_hits (profile may be nullptr; the count is returned
  // either way).
  uint64_t CountFalseHits(const std::vector<uint64_t>& candidates,
                          const STQuery& query, QueryProfile* profile) const;

 private:
  const std::vector<Trajectory>* objects_;
  const std::vector<SegmentRecord>* records_;
  std::unordered_map<ObjectId, size_t> object_index_;
};

}  // namespace stindex

#endif  // STINDEX_CORE_QUERY_PROFILE_H_
