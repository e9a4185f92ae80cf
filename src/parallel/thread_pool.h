// ThreadPool is another name for the work-stealing executor, kept so code
// that spells it (a pool built from a thread count, parallel_for over it,
// global_pool(), CampaignConfig::pool) keeps building. The library itself
// spells TaskGraph — see parallel/task_graph.h.
#pragma once

#include "parallel/task_graph.h"

namespace antalloc {

using ThreadPool = TaskGraph;

}  // namespace antalloc
