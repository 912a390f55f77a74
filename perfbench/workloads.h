// The benchmark's workloads (README.md says why each exists). Each runs
// its set-up kSetupRepeats times, measures for config.seconds (traced
// runs split that into an untraced and a traced half), then checks every
// answer it kept against an independent reference.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// The paper's query, Query(MakeProteinFunctionRequest(symbol, 10)),
/// from 2 closed-loop clients, symbols Zipf(s=1) over every protein.
Report RunAnnotate(const Config& config);

/// ShardRouter::RankGraph(g, 10) over 2 in-process shards from 1
/// closed-loop client, g a seeded stream of distinct layered DAGs.
Report RunMcScatter(const Config& config);

/// A durable server: one writer applying reweight deltas (with periodic
/// checkpoints) next to one reader ranking sessions; then a warm boot.
Report RunLiveIngest(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
