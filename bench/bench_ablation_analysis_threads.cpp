//===- bench/bench_ablation_analysis_threads.cpp --------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation (google-benchmark, real wall-clock): throughput of the
// GPU-resident analysis stand-in as a function of the device-analysis
// thread-pool width. This measures the REAL host-side reduction PASTA's
// event processor performs (chunked map-merge over record batches), the
// mechanism behind Fig. 2b; the simulated costs of Fig. 9 are charged by
// the device cost model independently.
//
// Two batch shapes over the same 64 objects: the interleaved arms change
// object on every record, so every record pays a lookup; the *Runs arms
// sweep one object at a time, as real traces do, so the reducers resolve
// each run once.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "tools/WorkingSetTool.h"

#include <benchmark/benchmark.h>

using namespace pasta;
using namespace pasta::tools;

namespace {

constexpr std::size_t Objects = 64;
constexpr std::uint64_t ObjectBytes = 1 << 20;
constexpr sim::DeviceAddr FirstObject = 0x1000000;
constexpr std::size_t BatchRecords = 1 << 18;

/// Synthetic record batch spread over a fixed set of objects, changing
/// object on every record: the worst case for run coalescing.
std::vector<sim::MemAccessRecord> makeBatch(std::size_t Count) {
  std::vector<sim::MemAccessRecord> Records(Count);
  for (std::size_t I = 0; I < Count; ++I) {
    Records[I].Address =
        0x1000000 + (I % 64) * (1 << 20) + (I * 7919) % (1 << 20);
    Records[I].Bytes = 32;
    Records[I].Multiplicity = 128;
  }
  return Records;
}

/// Synthetic record batch over the same objects with the locality of a
/// real trace: each object is swept in turn, the way
/// Device::generateTrace sweeps a segment (a fixed stride, with a
/// 32-byte-aligned offset inside each stride).
std::vector<sim::MemAccessRecord> makeRunBatch(std::size_t Count) {
  std::vector<sim::MemAccessRecord> Records(Count);
  std::size_t PerObject = Count / Objects;
  std::uint64_t Stride = ObjectBytes / PerObject;
  for (std::size_t I = 0; I < Count; ++I) {
    std::uint64_t Object = I / PerObject % Objects;
    std::uint64_t Step = I % PerObject;
    Records[I].Address = FirstObject + Object * ObjectBytes + Step * Stride +
                         (I * 7919) % Stride / 32 * 32;
    Records[I].Bytes = 32;
    Records[I].Multiplicity = 128;
  }
  return Records;
}

/// Reduces \p Batch under one kernel launch, once per iteration, with
/// a working_set tool in \p Mode on \p Threads device-analysis threads.
void runAnalysis(benchmark::State &State, std::size_t Threads,
                 WsAnalysisMode Mode,
                 const std::vector<sim::MemAccessRecord> &Batch) {
  EventProcessor Processor(Threads);
  WorkingSetTool Tool(Mode);
  Processor.addTool(&Tool);

  // Register the objects so lookups succeed.
  for (std::size_t I = 0; I < Objects; ++I) {
    Event Alloc;
    Alloc.Kind = EventKind::MemoryAlloc;
    Alloc.Address = FirstObject + I * ObjectBytes;
    Alloc.Bytes = ObjectBytes;
    Processor.process(Alloc);
  }
  Event Launch;
  Launch.Kind = EventKind::KernelLaunch;
  Launch.GridId = 1;
  Processor.process(Launch);

  sim::LaunchInfo Info;
  Info.GridId = 1;
  for (auto _ : State) {
    (void)_;
    Processor.onAccessBatch(Info, Batch.data(), Batch.size());
  }
  State.SetItemsProcessed(
      static_cast<std::int64_t>(State.iterations() * Batch.size()));
}

void BM_DeviceAnalysisWidth(benchmark::State &State) {
  runAnalysis(State, static_cast<std::size_t>(State.range(0)),
              WsAnalysisMode::DeviceResident, makeBatch(BatchRecords));
}

void BM_HostAnalysisBaseline(benchmark::State &State) {
  runAnalysis(State, 1, WsAnalysisMode::HostSide, makeBatch(BatchRecords));
}

void BM_DeviceAnalysisWidthRuns(benchmark::State &State) {
  runAnalysis(State, static_cast<std::size_t>(State.range(0)),
              WsAnalysisMode::DeviceResident, makeRunBatch(BatchRecords));
}

void BM_HostAnalysisRuns(benchmark::State &State) {
  runAnalysis(State, 1, WsAnalysisMode::HostSide,
              makeRunBatch(BatchRecords));
}

} // namespace

// UseRealTime: the pool runs the reduction on other threads, so a rate
// per calling-thread CPU second would credit width for work it only
// moved; items_per_second is per wall second.
BENCHMARK(BM_DeviceAnalysisWidth)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK(BM_HostAnalysisBaseline)->UseRealTime();
BENCHMARK(BM_DeviceAnalysisWidthRuns)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK(BM_HostAnalysisRuns)->UseRealTime();

BENCHMARK_MAIN();
