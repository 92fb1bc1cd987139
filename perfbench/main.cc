// End-to-end benchmark program. One run measures one workload:
//
//   pf_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer split (README.md has the list and which end-to-end metric
// each layer metric should move). The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; run.py builds
// this binary and keeps the metrics BENCHMARK.json lists.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

extern char** environ;

namespace pfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pf_perfbench --workload <xmark-cold-small|"
               "xmark-cold-large|serve-serial|serve-mixed> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      args.trace = v != "0";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();

  // The configuration is pinned: every engine default comes from the
  // shipped code, never from the environment.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PF_", 3) == 0) {
      std::fprintf(stderr, "refusing to run with %s set: unset every PF_* "
                           "variable\n", *e);
      return 2;
    }
  }

  RunOutcome out;
  if (args.workload == "xmark-cold-small") {
    RunCold(args, 0.0005, &out);
  } else if (args.workload == "xmark-cold-large") {
    RunCold(args, 0.05, &out);
  } else if (args.workload == "serve-serial") {
    RunServe(args, false, &out);
  } else if (args.workload == "serve-mixed") {
    RunServe(args, true, &out);
  } else {
    return Usage();
  }
  out.metrics.Set("failed_frac",
                  out.attempted > 0 ? static_cast<double>(out.failed) /
                                          static_cast<double>(out.attempted)
                                    : 1.0,
                  "ratio");
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  bool correct = out.correct && out.failed == 0 && out.attempted > 0;

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("%s", out.metrics.ToText().c_str());
  std::printf("config {%s%s%s}\n", out.config.c_str(),
              out.config.empty() ? "" : ", ", MachineConfig().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed),
              out.metrics.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace pfbench

int main(int argc, char** argv) { return pfbench::Main(argc, argv); }
