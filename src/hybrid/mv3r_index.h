#ifndef STINDEX_HYBRID_MV3R_INDEX_H_
#define STINDEX_HYBRID_MV3R_INDEX_H_

#include <memory>
#include <vector>

#include "core/segment.h"
#include "datagen/query_gen.h"
#include "pprtree/ppr_tree.h"
#include "rstar/rstar_tree.h"

namespace stindex {

struct Mv3rConfig {
  // Queries spanning at least this many instants go to the 3-D R-tree;
  // shorter ones (and snapshots) go to the multiversion tree. Tao &
  // Papadias route "timestamp and short interval" queries to the MVR-tree
  // and long intervals to the auxiliary 3-D tree. On the paper-style
  // datasets the crossover sits around several dozen instants.
  Time long_query_threshold = 64;
  PprConfig ppr;
  // The auxiliary tree is built by insertion: on moving-object segments
  // packing it (STR) hurts query I/O (see bench_ablation_packing and the
  // paper's Section V remark).
  RStarConfig rstar;
};

// An MV3R-style hybrid (Tao & Papadias, VLDB 2001 — the paper's reference
// [25] and its strongest prior alternative): a multiversion R-tree for
// snapshot/short-interval queries plus an auxiliary 3-D R-tree over the
// same records for long-interval queries, where a time-sliced structure
// must open many version trees but a single 3-D structure pays once.
//
// Both members index the same segment records; a query is answered by
// exactly one of them, chosen by duration.
class Mv3rIndex {
 public:
  // Builds both structures over `records` (time domain needed to scale
  // the auxiliary tree's time axis).
  Mv3rIndex(const std::vector<SegmentRecord>& records, Time time_domain,
            Mv3rConfig config = Mv3rConfig());

  Mv3rIndex(const Mv3rIndex&) = delete;
  Mv3rIndex& operator=(const Mv3rIndex&) = delete;

  // Answers a snapshot or interval query; results are record indexes.
  void Query(const STQuery& query, std::vector<uint64_t>* results) const;

  // Which member would answer this query (test/inspection hook).
  bool RoutesToAuxiliary(const STQuery& query) const {
    return query.range.Duration() >= config_.long_query_threshold;
  }

  // Disk accesses of the last query (the member that ran it).
  uint64_t LastQueryMisses() const { return last_misses_; }

  size_t PageCount() const {
    return ppr_->PageCount() + auxiliary_->PageCount();
  }

  const PprTree& ppr() const { return *ppr_; }
  const RStarTree& auxiliary() const { return *auxiliary_; }

 private:
  Mv3rConfig config_;
  Time time_domain_;
  std::unique_ptr<PprTree> ppr_;
  std::unique_ptr<RStarTree> auxiliary_;
  mutable uint64_t last_misses_ = 0;
};

}  // namespace stindex

#endif  // STINDEX_HYBRID_MV3R_INDEX_H_
