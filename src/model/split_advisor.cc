#include "model/split_advisor.h"

#include <algorithm>
#include <limits>

#include "model/ppr_cost_model.h"
#include "model/rtree_cost_model.h"
#include "pprtree/ppr_tree.h"
#include "rstar/rstar_tree.h"
#include "util/check.h"
#include "util/random.h"

namespace stindex {
namespace {

double AnalyticalCost(const std::vector<SegmentRecord>& records,
                      const std::vector<STQuery>& workload, IndexKind kind,
                      const SplitAdvisorOptions& options) {
  double cost = 0.0;
  if (kind == IndexKind::kPprTree) {
    const PprCostModel model = PprCostModel::FromSegments(
        records, options.time_domain, options.ppr_alive_fanout);
    for (const STQuery& query : workload) {
      cost += model.ExpectedNodeAccesses(query.area.Width(),
                                         query.area.Height(),
                                         query.range.Duration());
    }
    cost /= static_cast<double>(workload.size());
    cost += options.space_weight * static_cast<double>(records.size()) /
            options.ppr_alive_fanout;
  } else {
    const std::vector<Box3D> boxes =
        SegmentsToBoxes(records, 0, options.time_domain);
    const RTreeCostModel model =
        RTreeCostModel::FromBoxes(boxes, options.rstar_fanout);
    const double time_scale = 1.0 / static_cast<double>(options.time_domain);
    std::vector<std::vector<double>> query_extents;
    query_extents.reserve(workload.size());
    for (const STQuery& query : workload) {
      query_extents.push_back(
          {query.area.Width(), query.area.Height(),
           static_cast<double>(query.range.Duration()) * time_scale});
    }
    cost = model.AverageNodeAccesses(query_extents);
    cost += options.space_weight * static_cast<double>(records.size()) /
            options.rstar_fanout;
  }
  return cost;
}

double MeasuredCost(const std::vector<SegmentRecord>& records,
                    const std::vector<STQuery>& workload, size_t max_queries,
                    IndexKind kind, const SplitAdvisorOptions& options) {
  const size_t count = std::min(max_queries, workload.size());
  STINDEX_CHECK(count > 0);
  if (kind == IndexKind::kPprTree) {
    std::unique_ptr<PprTree> tree = BuildPprTree(records);
    uint64_t misses = 0;
    std::vector<PprDataId> results;
    for (size_t q = 0; q < count; ++q) {
      tree->ResetQueryState();
      const STQuery& query = workload[q];
      if (query.IsSnapshot()) {
        tree->SnapshotQuery(query.area, query.range.start, &results);
      } else {
        tree->IntervalQuery(query.area, query.range, &results);
      }
      misses += tree->stats().misses;
    }
    return static_cast<double>(misses) / static_cast<double>(count) +
           options.space_weight * static_cast<double>(tree->PageCount());
  }
  RStarTree tree;
  const std::vector<Box3D> boxes =
      SegmentsToBoxes(records, 0, options.time_domain);
  for (size_t i = 0; i < boxes.size(); ++i) {
    tree.Insert(boxes[i], static_cast<DataId>(i));
  }
  uint64_t misses = 0;
  std::vector<DataId> results;
  for (size_t q = 0; q < count; ++q) {
    tree.ResetQueryState();
    tree.Search(QueryToBox(workload[q], 0, options.time_domain), &results);
    misses += tree.stats().misses;
  }
  return static_cast<double>(misses) / static_cast<double>(count) +
         options.space_weight * static_cast<double>(tree.PageCount());
}

}  // namespace

SplitAdvice SplitAdvisor::ChooseAnalytical(
    const std::vector<Trajectory>& objects,
    const std::vector<VolumeCurve>& curves,
    const std::vector<int64_t>& candidate_budgets,
    const std::vector<STQuery>& workload, IndexKind kind,
    const SplitAdvisorOptions& options, int num_threads) {
  STINDEX_CHECK(!candidate_budgets.empty());
  STINDEX_CHECK(!workload.empty());
  STINDEX_CHECK(objects.size() == curves.size());

  SplitAdvice advice;
  advice.estimated_cost = std::numeric_limits<double>::infinity();
  for (int64_t budget : candidate_budgets) {
    const Distribution dist = DistributeLAGreedy(curves, budget, num_threads);
    const std::vector<SegmentRecord> records = BuildSegments(
        objects, dist.splits, SplitMethod::kMerge, num_threads);
    const double cost = AnalyticalCost(records, workload, kind, options);
    advice.evaluated.emplace_back(budget, cost);
    if (cost < advice.estimated_cost) {
      advice.estimated_cost = cost;
      advice.num_splits = budget;
    }
  }
  return advice;
}

SplitAdvice SplitAdvisor::ChooseBySampling(
    const std::vector<Trajectory>& objects,
    const std::vector<int64_t>& candidate_budgets, double sample_fraction,
    const std::vector<STQuery>& workload, size_t max_queries, IndexKind kind,
    const SplitAdvisorOptions& options, uint64_t seed, int num_threads) {
  STINDEX_CHECK(!candidate_budgets.empty());
  STINDEX_CHECK(!workload.empty());
  STINDEX_CHECK(sample_fraction > 0.0 && sample_fraction <= 1.0);

  // Draw the object sample once; all candidates are evaluated on it.
  Rng rng(seed);
  std::vector<Trajectory> sample;
  for (const Trajectory& object : objects) {
    if (rng.Bernoulli(sample_fraction)) sample.push_back(object);
  }
  if (sample.empty()) sample.push_back(objects.front());
  const double effective_fraction = static_cast<double>(sample.size()) /
                                    static_cast<double>(objects.size());

  const std::vector<VolumeCurve> curves = ComputeVolumeCurves(
      sample, /*k_max=*/256, SplitMethod::kMerge, num_threads);

  SplitAdvice advice;
  advice.estimated_cost = std::numeric_limits<double>::infinity();
  for (int64_t budget : candidate_budgets) {
    // Normalize the budget to the sample size.
    const int64_t sample_budget = static_cast<int64_t>(
        static_cast<double>(budget) * effective_fraction + 0.5);
    const Distribution dist =
        DistributeLAGreedy(curves, sample_budget, num_threads);
    const std::vector<SegmentRecord> records = BuildSegments(
        sample, dist.splits, SplitMethod::kMerge, num_threads);
    const double cost =
        MeasuredCost(records, workload, max_queries, kind, options);
    advice.evaluated.emplace_back(budget, cost);
    if (cost < advice.estimated_cost) {
      advice.estimated_cost = cost;
      advice.num_splits = budget;
    }
  }
  return advice;
}

}  // namespace stindex
