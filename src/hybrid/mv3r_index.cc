#include "hybrid/mv3r_index.h"

#include "core/split_pipeline.h"
#include "util/check.h"

namespace stindex {

Mv3rIndex::Mv3rIndex(const std::vector<SegmentRecord>& records,
                     Time time_domain, Mv3rConfig config)
    : config_(config), time_domain_(time_domain) {
  STINDEX_CHECK(time_domain > 0);
  ppr_ = BuildPprTree(records, config_.ppr);
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, time_domain);
  auxiliary_ = std::make_unique<RStarTree>(config_.rstar);
  for (size_t i = 0; i < boxes.size(); ++i) {
    auxiliary_->Insert(boxes[i], static_cast<DataId>(i));
  }
}

void Mv3rIndex::Query(const STQuery& query,
                      std::vector<uint64_t>* results) const {
  results->clear();
  if (RoutesToAuxiliary(query)) {
    auxiliary_->ResetQueryState();
    std::vector<DataId> hits;
    auxiliary_->Search(QueryToBox(query, 0, time_domain_), &hits);
    last_misses_ = auxiliary_->stats().misses;
    results->assign(hits.begin(), hits.end());
    return;
  }
  ppr_->ResetQueryState();
  std::vector<PprDataId> hits;
  if (query.IsSnapshot()) {
    ppr_->SnapshotQuery(query.area, query.range.start, &hits);
  } else {
    ppr_->IntervalQuery(query.area, query.range, &hits);
  }
  last_misses_ = ppr_->stats().misses;
  results->assign(hits.begin(), hits.end());
}

}  // namespace stindex
