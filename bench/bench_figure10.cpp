//===- bench/bench_figure10.cpp - profiling time breakdown ----------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reproduces paper Fig. 10: the breakdown of total profiling time into
// workload execution, trace collection, trace transfer and trace
// analysis, per model and backend on A100 and RTX 3060. The expected
// shape: CPU-based backends are dominated by (single-threaded) trace
// analysis, while the GPU-resident model's fused collection+analysis
// occupies a larger *fraction* at a far smaller absolute cost.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "dl/Models.h"
#include "support/TablePrinter.h"
#include "support/Units.h"

using namespace pasta;

int main() {
  bench::banner("Breakdown of PASTA profiling time",
                "paper Figure 10");

  for (const char *Gpu : {"A100", "RTX3060"}) {
    std::printf("\n--- %s ---\n", Gpu);
    TablePrinter Table({"Model", "Backend", "Execution", "Collection",
                        "Transfer", "Analysis", "Total"});
    for (const dl::ModelConfig &Model : dl::modelZoo()) {
      // Each analysis model's backend registry name and trace flavor.
      for (auto [Backend, Flavor] :
           {std::pair<const char *, TraceBackend>{
                "cs-gpu", TraceBackend::SanitizerGpu},
            {"cs-cpu", TraceBackend::SanitizerCpu},
            {"nvbit-cpu", TraceBackend::NvbitCpu}}) {
        bool GpuResident = Flavor == TraceBackend::SanitizerGpu;
        SessionBuilder Builder;
        Builder.tool(GpuResident ? "working_set" : "working_set_host")
            .backend(Backend)
            .gpu(Gpu)
            .model(Model.Name);
        sim::TraceTimeBreakdown B =
            bench::buildSession(Builder)->run().Stats.Breakdown;
        // As the paper does: in the GPU-resident version collection and
        // analysis are fused into one device function, so the reported
        // "collection" includes the analysis.
        if (GpuResident) {
          B.Collection += B.Analysis;
          B.Analysis = 0;
        }
        double Total = static_cast<double>(B.total());
        auto Pct = [Total](SimTime Part) {
          return format("%5.1f%%", 100.0 * static_cast<double>(Part) /
                                       Total);
        };
        Table.addRow({Model.Abbrev, traceBackendName(Flavor),
                      Pct(B.Execution), Pct(B.Collection), Pct(B.Transfer),
                      Pct(B.Analysis), formatSimTime(B.total())});
      }
    }
    Table.print(stdout);
  }
  std::printf("\nNote: in the GPU-resident backend, collection and "
              "analysis are fused on-device (paper reports them as one "
              "component); the absolute totals differ by orders of "
              "magnitude (see Figure 9).\n");
  return 0;
}
