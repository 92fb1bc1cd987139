#ifndef PATHFINDER_PERFBENCH_LAYERS_H_
#define PATHFINDER_PERFBENCH_LAYERS_H_

// The traced per-layer split. Pathfinder::Run is replayed from outside
// the program as the sequence of module entry points it calls, each
// call timed from here (no span lives inside src/):
//
//   frontend::ParseQuery -> frontend::Normalize -> compiler::Compile ->
//   opt::Optimize -> opt::AnnotatePipelines -> engine::Execute ->
//   runtime::TableToSequence -> runtime::SerializeSequence
//
// with the caches off, as a cold Table 3 query runs. The replay must
// produce the same bytes as Pathfinder::Run; the share of Run's wall
// time its spans cover is reported as trace.coverage, so a later change
// to Run's sequence shows up as lost coverage.

#include <string>
#include <vector>

#include "api/pathfinder.h"
#include "common.h"
#include "xml/database.h"

namespace pfbench {

/// Table 3's cold configuration: the shipped defaults with the plan and
/// subplan caches off, context document `doc`.
pathfinder::QueryOptions ColdOptions(const std::string& doc);

/// How long a traced run replays layers: the run length, capped so a
/// traced run stays well inside the benchmark's time limit.
inline double TraceSeconds(const RunArgs& args) {
  return args.seconds < 20 ? args.seconds : 20;
}

/// Runs the per-layer trace over Q1-Q20 on `db` (context document
/// `doc`) for about `seconds` (at least `min_passes` passes). Every
/// untraced Run, replay and profiled Run must serialize to
/// `expected[q]`; mismatches are counted as failed. Adds the compile,
/// execution, output and trace-validity metrics to `out`.
void TraceLayers(pathfinder::xml::Database* db, const std::string& doc,
                 const std::vector<std::string>& expected, double seconds,
                 int min_passes, RunOutcome* out);

}  // namespace pfbench

#endif  // PATHFINDER_PERFBENCH_LAYERS_H_
