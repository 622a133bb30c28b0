//===- bench/bench_ablation_async_queue.cpp -------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation (real wall-clock and process CPU): event-queue depth vs
// end-to-end overhead of the asynchronous dispatch unit. The paper's
// dispatch unit (§III-B) decouples event collection from tool analysis;
// this sweep measures what that decoupling buys on a coarse-event-heavy
// workload — the application thread only pays queue admission, while a
// dedicated dispatch thread pays the tool cost — and how the bounded
// queue's depth moves the needle. Admission is lossless, so a full queue
// stalls the application thread until its lane catches up: deeper queues
// mean fewer stalls, at more buffered memory.
//
// One run is noise on a shared host, so each depth is timed in Pairs
// pairs with a synchronous run, alternating which goes first. A row
// prints the medians and IQRs of its runs, and "vs sync" is the median
// of the per-pair ratios. CPU is the whole process (the lane thread
// included), which is where queue waiting shows.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/TablePrinter.h"
#include "support/Units.h"

#include <chrono>
#include <ctime>

using namespace pasta;

namespace {

constexpr std::size_t Pairs = 5;

struct SweepResult {
  double WallMillis = 0;
  double CpuMillis = 0;
  ProcessorStats Stats;
};

double processCpuMillis() {
  timespec Now;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Now);
  return static_cast<double>(Now.tv_sec) * 1e3 +
         static_cast<double>(Now.tv_nsec) / 1e6;
}

/// Runs the fixed workload once; Depth == 0 selects synchronous mode.
SweepResult runOnce(std::size_t Depth) {
  SessionBuilder Builder;
  Builder.tool("kernel_frequency")
      .backend("cs-gpu")
      .gpu("A100")
      .model("bert")
      .iterations(1);
  if (Depth > 0)
    Builder.asyncEvents().queueDepth(Depth);
  std::unique_ptr<Session> S = bench::buildSession(Builder);

  auto Start = std::chrono::steady_clock::now();
  double CpuStart = processCpuMillis();
  S->run();
  double CpuEnd = processCpuMillis();
  auto End = std::chrono::steady_clock::now();

  SweepResult Result;
  Result.WallMillis =
      std::chrono::duration<double, std::milli>(End - Start).count();
  Result.CpuMillis = CpuEnd - CpuStart;
  Result.Stats = S->processor().stats();
  return Result;
}

/// Per-run figures of one row.
struct Samples {
  std::vector<double> Wall, Cpu;
  void add(const SweepResult &R) {
    Wall.push_back(R.WallMillis);
    Cpu.push_back(R.CpuMillis);
  }
};

std::string millis(double Value) { return format("%.2f ms", Value); }
std::string ratio(const std::vector<double> &Ratios) {
  return format("%.2fx", bench::quantile(Ratios, 0.5));
}

/// A table row's leading cells: \p Label, then the medians and IQRs.
std::vector<std::string> timingRow(std::string Label, const Samples &S) {
  return {std::move(Label), millis(bench::quantile(S.Wall, 0.5)),
          millis(bench::iqr(S.Wall)), millis(bench::quantile(S.Cpu, 0.5)),
          millis(bench::iqr(S.Cpu))};
}

} // namespace

int main() {
  bench::banner("Ablation: async event-queue depth (dispatch unit)",
                "the paper's decoupled dispatch unit, SIII-B");
  std::printf("%zu runs per depth, each paired with a sync run (order "
              "alternating); medians, IQRs, and vs sync as the median of "
              "the per-pair ratios\n\n",
              Pairs);

  TablePrinter Depths({"Queue Depth", "Wall", "Wall IQR", "CPU", "CPU IQR",
                       "vs sync (wall)", "vs sync (CPU)", "Max Depth Seen",
                       "Flushes"});
  Samples Sync;
  std::vector<std::vector<std::string>> Rows;
  for (std::size_t Depth : {64u, 256u, 1024u, 4096u, 16384u}) {
    Samples Async;
    std::vector<double> WallRatios, CpuRatios;
    std::uint64_t MaxDepth = 0;
    std::uint64_t Flushes = 0;
    for (std::size_t Pair = 0; Pair < Pairs; ++Pair) {
      SweepResult Inline, Queued;
      if (Pair % 2 == 0) {
        Inline = runOnce(0);
        Queued = runOnce(Depth);
      } else {
        Queued = runOnce(Depth);
        Inline = runOnce(0);
      }
      Sync.add(Inline);
      Async.add(Queued);
      WallRatios.push_back(Queued.WallMillis / Inline.WallMillis);
      CpuRatios.push_back(Queued.CpuMillis / Inline.CpuMillis);
      MaxDepth = std::max(MaxDepth, Queued.Stats.MaxQueueDepth);
      Flushes = Queued.Stats.FlushCount;
    }
    std::vector<std::string> Row = timingRow(std::to_string(Depth), Async);
    Row.insert(Row.end(), {ratio(WallRatios), ratio(CpuRatios),
                           std::to_string(MaxDepth), std::to_string(Flushes)});
    Rows.push_back(std::move(Row));
  }
  std::vector<std::string> SyncRow = timingRow("sync (inline)", Sync);
  SyncRow.insert(SyncRow.end(), {"1.00x", "1.00x", "-", "-"});
  Depths.addRow(SyncRow);
  for (const std::vector<std::string> &Row : Rows)
    Depths.addRow(Row);
  Depths.print(stdout);

  std::printf("\ndeeper queues absorb bursts without stalling the "
              "application thread; every depth delivers every event.\n");
  return 0;
}
