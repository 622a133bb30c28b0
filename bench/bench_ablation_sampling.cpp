//===- bench/bench_ablation_sampling.cpp ----------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation: ACCEL_PROF_ENV_SAMPLE_RATE (the artifact's escape hatch for
// the multi-day Fig. 9/10 runs) vs overhead and working-set accuracy.
// Sampling cuts overhead near-linearly while the identified working set
// stays stable because sampled records still sweep every touched object.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/TablePrinter.h"
#include "support/Units.h"
#include "tools/WorkingSetTool.h"

using namespace pasta;
using namespace pasta::tools;

int main() {
  bench::banner("Ablation: trace sampling rate vs overhead and accuracy",
                "ACCEL_PROF_ENV_SAMPLE_RATE (paper artifact appendix)");

  std::uint64_t ReferenceWs = 0;
  TablePrinter Table({"Sample Rate", "CS-CPU Time", "Working Set",
                      "WS vs full"});
  for (double Rate : {1.0, 0.5, 0.1, 0.01}) {
    SessionBuilder Builder;
    Builder.tool("working_set_host")
        .backend("cs-cpu")
        .gpu("A100")
        .model("bert")
        .sampleRate(Rate);
    std::unique_ptr<Session> S = bench::buildSession(Builder);
    SessionResult Result = S->run();
    // Both working-set variants report under the name "working_set".
    auto Summary = S->toolAs<WorkingSetTool>("working_set")->summary();
    if (Rate == 1.0)
      ReferenceWs = Summary.WorkingSetBytes;
    Table.addRow(
        {format("%.2f", Rate),
         formatSimTime(Result.Stats.wallTime()),
         formatBytes(Summary.WorkingSetBytes),
         format("%.1f%%", 100.0 *
                              static_cast<double>(Summary.WorkingSetBytes) /
                              static_cast<double>(ReferenceWs))});
  }
  Table.print(stdout);
  return 0;
}
