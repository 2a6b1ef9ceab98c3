#ifndef STBENCH_WORKLOADS_H_
#define STBENCH_WORKLOADS_H_

#include "common.h"

namespace stbench {

// Each runs its workload's set-up, timed window and correctness oracle,
// and fills `report`. See benchmark/README.md for what each measures.
void RunHist(const Options& options, bool cold, Report* report);
void RunLiveMixed(const Options& options, Report* report);
void RunIngest(const Options& options, Report* report);

}  // namespace stbench

#endif  // STBENCH_WORKLOADS_H_
