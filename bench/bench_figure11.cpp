//===- bench/bench_figure11.cpp - prefetch, no oversubscription -----------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reproduces paper Fig. 11: execution time of object-level vs
// tensor-level UVM prefetching, normalized to no prefetching, on RTX 3060
// and A100 with no memory oversubscription. Expected shape: both beat the
// baseline (paper: ~30-39% average speedup), object-level slightly ahead
// thanks to fewer, larger migrations.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "dl/Models.h"
#include "support/TablePrinter.h"

using namespace pasta;
using namespace pasta::tools;

namespace {

double runLevel(const dl::ModelConfig &Model, const char *Gpu,
                PrefetchLevel Level, std::uint64_t LimitBytes) {
  SessionBuilder Builder;
  Builder.gpu(Gpu)
      .model(Model.Name)
      .managed()
      .prefetch(Level)
      .memoryLimit(LimitBytes);
  return static_cast<double>(
      bench::buildSession(Builder)->run().Stats.wallTime());
}

} // namespace

int main() {
  bench::banner("Object- vs tensor-level UVM prefetch, no "
                "oversubscription",
                "paper Figure 11");

  for (const char *Gpu : {"RTX3060", "A100"}) {
    std::printf("\n--- %s (normalized to no prefetch) ---\n", Gpu);
    TablePrinter Table({"Model", "No Prefetch", "Object-Level",
                        "Tensor-Level"});
    double ObjSum = 0, TenSum = 0;
    int Rows = 0;
    for (const dl::ModelConfig &Model : dl::modelZoo()) {
      double Base = runLevel(Model, Gpu, PrefetchLevel::None, 0);
      double Obj = runLevel(Model, Gpu, PrefetchLevel::Object, 0);
      double Ten = runLevel(Model, Gpu, PrefetchLevel::Tensor, 0);
      Table.addRow({Model.Abbrev, "1.00",
                    format("%.2f", Obj / Base),
                    format("%.2f", Ten / Base)});
      ObjSum += Obj / Base;
      TenSum += Ten / Base;
      ++Rows;
    }
    Table.addRow({"Avg.", "1.00", format("%.2f", ObjSum / Rows),
                  format("%.2f", TenSum / Rows)});
    Table.print(stdout);
  }
  std::printf("\npaper: both levels improve over no prefetching (object "
              "~0.61-0.63x, tensor ~0.70-0.74x of baseline).\n");
  return 0;
}
