#ifndef STINDEX_MODEL_SPLIT_ADVISOR_H_
#define STINDEX_MODEL_SPLIT_ADVISOR_H_

#include <cstdint>
#include <vector>

#include "core/split_pipeline.h"
#include "datagen/query_gen.h"
#include "trajectory/trajectory.h"

namespace stindex {

// Which index structure the advisor optimizes for.
enum class IndexKind {
  kPprTree,
  kRStarTree,
};

// Outcome of the advisor: the chosen budget plus the whole evaluated
// cost curve for inspection.
struct SplitAdvice {
  int64_t num_splits = 0;
  double estimated_cost = 0.0;
  // (candidate budget, estimated average query cost) pairs.
  std::vector<std::pair<int64_t, double>> evaluated;
};

// Knobs shared by both advisor modes.
struct SplitAdvisorOptions {
  Time time_domain = 1000;
  // Effective alive fanout of a PPR-tree node (between P_svu*B and
  // P_svo*B).
  double ppr_alive_fanout = 30.0;
  // Average fanout of an R*-tree node (~70% utilization of B=50).
  double rstar_fanout = 35.0;
  // Optional space term: cost += space_weight * (records / fanout), giving
  // the query-time/space trade-off knob of Section IV.
  double space_weight = 0.0;
};

// Chooser for the number of splits (paper Section IV). Both methods
// evaluate a list of candidate budgets and return the cheapest. They
// split with num_threads workers; the advice is identical at any count.
class SplitAdvisor {
 public:
  // Analytical mode: for every candidate budget, distribute the splits
  // (LAGreedy over MergeSplit curves), recompute dataset statistics, and
  // predict the average query cost with the index's analytical model.
  static SplitAdvice ChooseAnalytical(
      const std::vector<Trajectory>& objects,
      const std::vector<VolumeCurve>& curves,
      const std::vector<int64_t>& candidate_budgets,
      const std::vector<STQuery>& workload, IndexKind kind,
      const SplitAdvisorOptions& options, int num_threads = 1);

  // Sampling mode: build a real (small) index over a random object sample
  // with the budget scaled by the sampling fraction, measure average disk
  // accesses on a query subset, and pick the best candidate.
  static SplitAdvice ChooseBySampling(
      const std::vector<Trajectory>& objects,
      const std::vector<int64_t>& candidate_budgets, double sample_fraction,
      const std::vector<STQuery>& workload, size_t max_queries,
      IndexKind kind, const SplitAdvisorOptions& options, uint64_t seed,
      int num_threads = 1);
};

}  // namespace stindex

#endif  // STINDEX_MODEL_SPLIT_ADVISOR_H_
