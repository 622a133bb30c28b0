//===- bench/bench_figure15.cpp - Megatron DP/TP/PP timelines -------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reproduces paper Fig. 15: per-GPU memory usage over one training
// iteration of the Megatron GPT-2 345M model on two A100s under Data,
// Tensor and Pipeline parallelism. Expected shape: DP and TP identical
// across GPUs (TP at about half of DP's peak); PP asymmetric with GPU 1
// carrying the LM-head/loss tail.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "dl/Megatron.h"
#include "support/TablePrinter.h"
#include "support/Units.h"
#include "tools/MemUsageTimelineTool.h"

using namespace pasta;
using namespace pasta::tools;

int main() {
  bench::banner("Per-GPU memory usage, Megatron GPT-2 345M, DP/TP/PP",
                "paper Figure 15");

  for (dl::ParallelStrategy Strategy :
       {dl::ParallelStrategy::Data, dl::ParallelStrategy::Tensor,
        dl::ParallelStrategy::Pipeline}) {
    dl::MegatronConfig Config;
    SessionBuilder Builder;
    Builder.tool("mem_usage_timeline").gpu("A100").deviceCount(Config.NumGpus);
    std::unique_ptr<Session> S = bench::buildSession(Builder);
    // One executor (rank) per GPU, as Megatron spawns one process per
    // device.
    auto Programs = dl::buildMegatronGpt2(Strategy, Config);
    for (int Rank = 0; Rank < Config.NumGpus; ++Rank)
      S->runProgram(Programs[Rank], Rank);
    S->finish();
    auto *Timeline = S->toolAs<MemUsageTimelineTool>("mem_usage_timeline");

    std::printf("\n[%s]\n", dl::parallelStrategyName(Strategy));
    TablePrinter Table({"GPU", "Tensor Events", "Peak Usage"});
    for (int Rank = 0; Rank < 2; ++Rank)
      Table.addRow({std::to_string(Rank),
                    std::to_string(Timeline->numEvents(Rank)),
                    formatBytes(Timeline->peak(Rank))});
    Table.print(stdout);
    for (int Rank = 0; Rank < 2; ++Rank)
      std::printf("GPU %d |%s|\n", Rank,
                  bench::sparkline(
                      bench::downsample(Timeline->series(Rank), 72))
                      .c_str());
  }
  std::printf("\nchecks vs paper: DP usage identical across GPUs; TP "
              "peak about half of DP (model sharding); PP asymmetric "
              "because the final layers producing logits run on GPU 1, "
              "extending its tail.\n");
  return 0;
}
