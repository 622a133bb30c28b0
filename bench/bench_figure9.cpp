//===- bench/bench_figure9.cpp - analysis-model overheads -----------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reproduces paper Fig. 9: normalized overhead (vs native model execution
// time) of the three analysis backends — CS-GPU (PASTA's GPU-resident
// collect-and-analyze), CS-CPU (Compute Sanitizer with host-side
// analysis) and NVBIT-CPU (NVBit full-SASS with host-side analysis) — on
// the A100 and RTX 3060, for every model's inference run. Runs projected
// beyond 7 days print as "inf", exactly like the paper's DNF bars.
// Closes with the headline geometric-mean speedups (941x / 13006x on
// A100, 627x / 7353x on the 3060).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "dl/Models.h"
#include "support/TablePrinter.h"
#include "support/Units.h"

#include <cmath>

using namespace pasta;

namespace {

constexpr double SevenDaysNs = 7.0 * 24 * 3600 * 1e9;

double runBackend(const dl::ModelConfig &Model, const char *Gpu,
                  const std::string &Backend) {
  SessionBuilder Builder;
  Builder.backend(Backend).gpu(Gpu).model(Model.Name);
  if (Backend != "none")
    Builder.tool(Backend == "cs-gpu" ? "working_set" : "working_set_host");
  return static_cast<double>(
      bench::buildSession(Builder)->run().Stats.wallTime());
}

std::string overheadCell(double Time, double Native) {
  if (Time > SevenDaysNs)
    return "inf (>7 days)";
  return format("%.0fx", Time / Native);
}

} // namespace

int main() {
  bench::banner(
      "Normalized overhead of diverse analysis models (A100 + RTX 3060)",
      "paper Figure 9");

  for (const char *Gpu : {"A100", "RTX3060"}) {
    std::printf("\n--- %s ---\n", Gpu);
    TablePrinter Table({"Model", "Native", "CS-GPU", "CS-CPU",
                        "NVBIT-CPU"});
    double LogCsCpuRatio = 0, LogNvbitRatio = 0;
    int Rows = 0;
    for (const dl::ModelConfig &Model : dl::modelZoo()) {
      double Native = runBackend(Model, Gpu, "none");
      double CsGpu = runBackend(Model, Gpu, "cs-gpu");
      double CsCpu = runBackend(Model, Gpu, "cs-cpu");
      double Nvbit = runBackend(Model, Gpu, "nvbit-cpu");
      Table.addRow({Model.Abbrev,
                    formatSimTime(static_cast<SimTime>(Native)),
                    overheadCell(CsGpu, Native),
                    overheadCell(CsCpu, Native),
                    overheadCell(Nvbit, Native)});
      LogCsCpuRatio += std::log(CsCpu / CsGpu);
      LogNvbitRatio += std::log(Nvbit / CsGpu);
      ++Rows;
    }
    Table.print(stdout);
    std::printf("geo-mean speedup of CS-GPU: %.0fx vs CS-CPU, %.0fx vs "
                "NVBIT-CPU\n  (paper: %s)\n",
                std::exp(LogCsCpuRatio / Rows),
                std::exp(LogNvbitRatio / Rows),
                std::string(Gpu) == "A100" ? "941x / 13006x"
                                           : "627x / 7353x");
  }
  return 0;
}
