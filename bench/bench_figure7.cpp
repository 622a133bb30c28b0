//===- bench/bench_figure7.cpp - kernel invocation frequencies ------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reproduces paper Fig. 7: kernel invocation frequency distribution
// across all model inference and training runs. The paper renders bubbles
// with counts in the legend; this bench prints the counts directly (top
// kernels per run, plus the distribution summary that supports the
// "only a small subset is invoked heavily" insight).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "dl/Models.h"
#include "support/TablePrinter.h"
#include "tools/KernelFrequencyTool.h"

using namespace pasta;
using namespace pasta::tools;

int main() {
  bench::banner("Kernel invocation frequency distribution",
                "paper Figure 7");

  for (bool Training : {false, true}) {
    for (const dl::ModelConfig &Model : dl::modelZoo()) {
      SessionBuilder Builder;
      Builder.tool("kernel_frequency")
          .gpu("A100")
          .model(Model.Name)
          .training(Training);
      std::unique_ptr<Session> S = bench::buildSession(Builder);
      S->run();
      auto *Freq = S->toolAs<KernelFrequencyTool>("kernel_frequency");

      auto Sorted = Freq->sorted();
      std::printf("\n[%s %s] %llu launches, %zu distinct kernels\n",
                  Model.Abbrev.c_str(),
                  Training ? "training" : "inference",
                  static_cast<unsigned long long>(Freq->totalLaunches()),
                  Sorted.size());
      TablePrinter Table({"Invocations", "Kernel"});
      for (std::size_t I = 0; I < Sorted.size() && I < 8; ++I)
        Table.addRow({std::to_string(Sorted[I].first), Sorted[I].second});
      Table.print(stdout);

      // The Fig. 7 insight: the top few kernels dominate.
      std::uint64_t TopFive = 0;
      for (std::size_t I = 0; I < Sorted.size() && I < 5; ++I)
        TopFive += Sorted[I].first;
      std::printf("top-5 kernels cover %.1f%% of all launches\n",
                  100.0 * static_cast<double>(TopFive) /
                      static_cast<double>(Freq->totalLaunches()));
    }
  }
  return 0;
}
