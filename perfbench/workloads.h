#ifndef PATHFINDER_PERFBENCH_WORKLOADS_H_
#define PATHFINDER_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace pfbench {

/// xmark-cold-small / xmark-cold-large: one in-process caller runs
/// Pathfinder::Run + Serialize over Q1-Q20 in a closed loop with the
/// plan and subplan caches off, on an XMark document of scale `sf`.
void RunCold(const RunArgs& args, double sf, RunOutcome* out);

/// An in-process serve::Server with default options over loopback; a
/// tenth of the operations are updates. serve-serial (`concurrent` off)
/// sends them one at a time on one connection in a closed loop;
/// serve-mixed sends them over several connections at a fixed offered
/// rate (open loop).
void RunServe(const RunArgs& args, bool concurrent, RunOutcome* out);

}  // namespace pfbench

#endif  // PATHFINDER_PERFBENCH_WORKLOADS_H_
