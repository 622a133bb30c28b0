//===- bench/bench_ablation_buffer.cpp ------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation: device trace-buffer size vs CS-CPU overhead. Smaller buffers
// force more stall-fetch-reset round trips (paper Fig. 2a), raising the
// transfer component of the breakdown. The GPU-resident model needs no
// trace buffer at all — the design point PASTA argues for.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/TablePrinter.h"
#include "support/Units.h"

using namespace pasta;

int main() {
  bench::banner("Ablation: device trace-buffer size (CS-CPU backend)",
                "design choice behind paper Fig. 2a/2b");

  TablePrinter Table({"Buffer (records)", "Transfer Share", "Total Time"});
  for (std::uint64_t Records :
       {1ull << 14, 1ull << 16, 1ull << 18, 1ull << 20, 1ull << 22}) {
    SessionBuilder Builder;
    Builder.tool("working_set_host")
        .backend("cs-cpu")
        .gpu("A100")
        .model("bert")
        .deviceBufferRecords(Records);
    sim::TraceTimeBreakdown B =
        bench::buildSession(Builder)->run().Stats.Breakdown;
    Table.addRow({std::to_string(Records),
                  format("%.2f%%", 100.0 *
                                       static_cast<double>(B.Transfer) /
                                       static_cast<double>(B.total())),
                  formatSimTime(B.total())});
  }
  Table.print(stdout);
  std::printf("\nsmaller buffers -> more stall/fetch round trips; the "
              "GPU-resident model avoids the buffer entirely.\n");
  return 0;
}
