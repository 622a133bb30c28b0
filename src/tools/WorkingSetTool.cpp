//===- tools/WorkingSetTool.cpp -------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tools/WorkingSetTool.h"

#include "pasta/EventProcessor.h"
#include "pasta/Knobs.h"
#include "support/ReportSink.h"
#include "support/TablePrinter.h"
#include "support/Units.h"

#include <algorithm>
#include <limits>

using namespace pasta;
using namespace pasta::tools;

WorkingSetTool::WorkingSetTool(WsAnalysisMode Mode)
    : Mode(Mode), InSituReducer(*this) {}

WorkingSetTool::~WorkingSetTool() = default;

Subscription WorkingSetTool::subscription() {
  Subscription Sub;
  Sub.Kinds = {EventKind::MemoryAlloc, EventKind::MemoryFree,
               EventKind::TensorAlloc, EventKind::TensorReclaim,
               EventKind::KernelLaunch};
  Sub.AccessRecords = true;
  Sub.KernelTrace = true;
  Sub.Model = ExecutionModel::Serial;
  return Sub;
}

void WorkingSetTool::onAttach(EventProcessor &Processor) {
  this->Processor = &Processor;
  CaptureMaxRef = Knobs::fromEnv().MaxMemReferencedKernel;
}

void WorkingSetTool::onMemoryAlloc(const Event &E) {
  AllocIntervals[E.Address] = {E.Address + E.Bytes};
  // Tensor intervals override raw allocations in lookup; still record
  // size for the fallback path.
  ObjectBytes[E.Address] = E.Bytes;
  LiveAllocBytes += E.Bytes;
  PeakAllocBytes = std::max(PeakAllocBytes, LiveAllocBytes);
}

void WorkingSetTool::onMemoryFree(const Event &E) {
  auto It = AllocIntervals.find(E.Address);
  if (It == AllocIntervals.end())
    return;
  AllocIntervals.erase(It);
  ObjectBytes.erase(E.Address);
  LiveAllocBytes -= std::min(LiveAllocBytes, E.Bytes);
}

void WorkingSetTool::onTensorAlloc(const Event &E) {
  if (E.Address == 0 || E.Bytes == 0)
    return;
  TensorIntervals[E.Address] = {E.Address + E.Bytes};
  ObjectBytes[E.Address] = E.Bytes;
  PeakReserved = std::max(PeakReserved, E.PoolReserved);
}

void WorkingSetTool::onTensorReclaim(const Event &E) {
  auto It = TensorIntervals.find(E.Address);
  if (It == TensorIntervals.end())
    return;
  TensorIntervals.erase(It);
  ObjectBytes.erase(E.Address);
}

void WorkingSetTool::onKernelLaunch(const Event &E) {
  CurrentCounts.clear();
  CurrentKernelName = E.Kernel ? E.Kernel->Name : "<unknown>";
  CurrentGridId = E.GridId;
}

WorkingSetTool::Resolution
WorkingSetTool::lookupObject(sim::DeviceAddr Addr) const {
  // The answer depends only on the interval at or below Addr, so it
  // holds up to the next base (upper_bound's own result).
  Resolution R{0, 0, std::numeric_limits<sim::DeviceAddr>::max()};
  for (const auto *Intervals : {&TensorIntervals, &AllocIntervals}) {
    auto It = Intervals->upper_bound(Addr);
    if (It != Intervals->end())
      R.Hi = std::min(R.Hi, It->first);
    if (It == Intervals->begin())
      continue;
    --It;
    if (Addr < It->second.End) {
      R.Base = It->first;
      R.Lo = std::max(R.Lo, It->first);
      R.Hi = std::min(R.Hi, It->second.End);
      return R;
    }
    R.Lo = std::max({R.Lo, It->first, It->second.End});
  }
  return R;
}

void WorkingSetTool::countChunk(const sim::MemAccessRecord *Records,
                                std::size_t Count) {
  // Starts empty (Lo == Hi), so the first record looks up.
  Resolution Cached;
  std::uint64_t RunSum = 0;
  for (std::size_t I = 0; I < Count; ++I) {
    sim::DeviceAddr Addr = Records[I].Address;
    if (Addr - Cached.Lo >= Cached.Hi - Cached.Lo) {
      Resolution Next = lookupObject(Addr);
      if (Next.Base != Cached.Base) {
        if (Cached.Base != 0)
          CurrentCounts[Cached.Base] += RunSum;
        RunSum = 0;
      }
      Cached = Next;
    }
    RunSum += Records[I].Multiplicity;
  }
  if (Cached.Base != 0)
    CurrentCounts[Cached.Base] += RunSum;
}

void WorkingSetTool::Reducer::processRecords(
    const sim::LaunchInfo &Info, const sim::MemAccessRecord *Records,
    std::size_t Count) {
  (void)Info;
  Parent.countChunk(Records, Count);
}

DeviceAnalysis *WorkingSetTool::deviceAnalysis() {
  return Mode == WsAnalysisMode::DeviceResident ? &InSituReducer : nullptr;
}

void WorkingSetTool::onAccessBatch(const sim::LaunchInfo &Info,
                                   const sim::MemAccessRecord *Records,
                                   std::size_t Count) {
  (void)Info;
  // Host-side model: a single thread walks every record.
  countChunk(Records, Count);
}

void WorkingSetTool::onKernelTraceEnd(
    const sim::LaunchInfo &Info, const sim::TraceTimeBreakdown &Breakdown) {
  TotalBreakdown += Breakdown;

  KernelRecord Record;
  Record.Name = Info.Desc ? Info.Desc->Name : CurrentKernelName;
  Record.GridId = Info.GridId;
  for (const auto &[Base, Count] : CurrentCounts) {
    auto SizeIt = ObjectBytes.find(Base);
    std::uint64_t Bytes =
        SizeIt == ObjectBytes.end() ? 0 : SizeIt->second;
    Record.FootprintBytes += Bytes;
    Record.References += Count;
    Record.Spans.emplace_back(Base, Bytes);
  }
  std::sort(Record.Spans.begin(), Record.Spans.end());
  CurrentCounts.clear();

  if (CaptureMaxRef && Processor && Record.References > MaxRefCount) {
    MaxRefCount = Record.References;
    MaxRefName = Record.Name;
    MaxRefStack = Processor->callStacks().capture(MaxRefName);
  }
  Kernels.push_back(std::move(Record));
}

WorkingSetTool::Summary WorkingSetTool::summary() const {
  Summary S;
  S.KernelCount = Kernels.size();
  S.PeakFootprintBytes = PeakReserved > 0 ? PeakReserved : PeakAllocBytes;
  SampleStats Stats;
  for (const KernelRecord &Record : Kernels) {
    if (Record.FootprintBytes == 0)
      continue;
    Stats.add(static_cast<double>(Record.FootprintBytes));
    S.WorkingSetBytes =
        std::max(S.WorkingSetBytes, Record.FootprintBytes);
  }
  if (!Stats.empty()) {
    S.MinWsBytes = Stats.min();
    S.AvgWsBytes = Stats.mean();
    S.MedianWsBytes = Stats.median();
    S.P90WsBytes = Stats.percentile(90.0);
  }
  return S;
}

void WorkingSetTool::writeReport(std::FILE *Out) {
  Summary S = summary();
  TablePrinter Table({"Kernel Count", "Memory Footprint", "Working Set",
                      "Min WS", "Avg WS", "Median WS", "90th pct WS"});
  Table.addRow({std::to_string(S.KernelCount),
                formatBytes(S.PeakFootprintBytes),
                formatBytes(S.WorkingSetBytes),
                formatBytes(static_cast<std::uint64_t>(S.MinWsBytes)),
                formatBytes(static_cast<std::uint64_t>(S.AvgWsBytes)),
                formatBytes(static_cast<std::uint64_t>(S.MedianWsBytes)),
                formatBytes(static_cast<std::uint64_t>(S.P90WsBytes))});
  std::fprintf(Out, "=== working_set (%s analysis) ===\n",
               Mode == WsAnalysisMode::DeviceResident ? "GPU-resident"
                                                      : "host-side");
  Table.print(Out);
  if (CaptureMaxRef && !MaxRefName.empty())
    std::fprintf(Out, "\nMost memory-referenced kernel: %s\n%s",
                 MaxRefName.c_str(), MaxRefStack.str().c_str());
}

void WorkingSetTool::report(ReportSink &Sink) {
  Summary S = summary();
  Sink.beginReport(name());
  Sink.metric("analysis_mode", Mode == WsAnalysisMode::DeviceResident
                                   ? "gpu-resident"
                                   : "host-side");
  Sink.metric("kernel_count", S.KernelCount);
  Sink.metric("memory_footprint_bytes", S.PeakFootprintBytes);
  Sink.metric("working_set_bytes", S.WorkingSetBytes);
  Sink.metric("min_ws_bytes", S.MinWsBytes);
  Sink.metric("avg_ws_bytes", S.AvgWsBytes);
  Sink.metric("median_ws_bytes", S.MedianWsBytes);
  Sink.metric("p90_ws_bytes", S.P90WsBytes);
  Sink.text(renderTextReport());
  Sink.endReport();
}
