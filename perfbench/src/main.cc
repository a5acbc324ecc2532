// kgbench: the KGNet benchmark program. perfbench/run.py builds it
// and runs
//
//   kgbench --workload serve-rw|serve-ml|train --seed N --seconds S
//           --trace 0|1 [--trace-out FILE]
//
// The last line of stdout is the result object; the line before it
// ("info {...}") carries the host facts and the per-phase accounting.
#include <cstdio>
#include <string>

#include "bench.h"
#include "workloads.h"

#ifndef KGBENCH_BUILD_TYPE
#define KGBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  kgbench::Params params;
  if (!params.Parse(argc, argv)) return 2;

  kgbench::Report report;
  report.Info("workload", kgbench::JsonString(params.workload));
  report.Info("seed", std::to_string(params.seed));
  report.Info("seconds", kgbench::JsonNumber(params.seconds));
  report.Info("trace", params.trace ? "true" : "false");
  report.Info("build_type", kgbench::JsonString(KGBENCH_BUILD_TYPE));
  // The placement check runs twice: on the scheduler's own placement of
  // the pool, then on the pinned one the measurements use (a run is
  // valid when pinning took).
  const kgbench::HostFacts natural = kgbench::ProbeHost();
  kgbench::SpreadThreads(kgbench::AllowedCpus());
  kgbench::HostFacts host = kgbench::ProbeHost();
  host.pool_cpus_unpinned = natural.pool_cpus_used;

  if (params.workload == "serve-rw") {
    kgbench::RunServeRw(params, host, &report);
  } else if (params.workload == "serve-ml") {
    kgbench::RunServeMl(params, host, &report);
  } else if (params.workload == "train") {
    kgbench::RunTrain(params, host, &report);
  } else {
    std::fprintf(stderr, "kgbench: unknown workload %s\n",
                 params.workload.c_str());
    return 2;
  }
  return report.Print();
}
