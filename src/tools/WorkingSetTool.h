//===- tools/WorkingSetTool.h - Table V / Fig. 8-10 case study --*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory characteristics analysis (paper §V-B2): tracks which memory
/// objects/tensors each kernel actually touches, computes per-kernel
/// memory footprints and the workload's working set (the maximum
/// footprint of any single kernel). Two analysis variants mirror Fig. 8:
///
///  * DeviceResident — PASTA's GPU-resident model: a thread-safe reducer
///    updates the object -> access-count map in-situ on the device
///    analysis threads; only the result map returns to the host.
///  * HostSide — the conventional Sanitizer-MemoryTracker / NVBit-MemTrace
///    model: raw records cross to the host and one thread counts them.
///
/// Tensor boundaries come from the DL framework events when available
/// (pool segments would otherwise be the only visible objects — exactly
/// the visibility gap the paper describes); raw vendor allocations are
/// the fallback.
///
/// Both variants resolve an address to its object once per *run* — a
/// stretch of consecutive records that stays inside the address range
/// over which the last lookup's answer provably holds — and add the
/// run's summed multiplicity once. Record batches sweep one object at a
/// time, so this skips almost every lookup, and the counts equal those
/// of resolving each record on its own.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_TOOLS_WORKINGSETTOOL_H
#define PASTA_TOOLS_WORKINGSETTOOL_H

#include "pasta/CallStack.h"
#include "pasta/Tool.h"
#include "support/Statistics.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace pasta {
namespace tools {

/// Which of Fig. 8's models the tool runs its reduction under. Must match
/// the backend the profiler attached (the backend decides the simulated
/// cost; this decides the real reduction path).
enum class WsAnalysisMode { DeviceResident, HostSide };

/// Memory characteristics / working set analysis tool.
class WorkingSetTool : public Tool {
public:
  explicit WorkingSetTool(WsAnalysisMode Mode = WsAnalysisMode::DeviceResident);
  ~WorkingSetTool() override;

  std::string name() const override { return "working_set"; }

  /// Resource + kernel-launch events, access records and per-launch
  /// breakdowns, on one serial lane (the interval maps and the current-
  /// kernel accumulator are only guarded against the device-analysis
  /// threads, not against other coarse hooks).
  Subscription subscription() override;

  /// Per-kernel result.
  struct KernelRecord {
    std::string Name;
    std::uint64_t GridId = 0;
    /// Sum of sizes of objects with nonzero access counts.
    std::uint64_t FootprintBytes = 0;
    /// Real (multiplicity-weighted) access count.
    std::uint64_t References = 0;
    /// Touched object spans (base, bytes) — feeds UVM prefetch planning.
    std::vector<std::pair<sim::DeviceAddr, std::uint64_t>> Spans;
  };

  /// Workload summary — one Table V row.
  struct Summary {
    std::uint64_t KernelCount = 0;
    std::uint64_t PeakFootprintBytes = 0; ///< "Memory Footprint" column
    std::uint64_t WorkingSetBytes = 0;    ///< max per-kernel footprint
    double MinWsBytes = 0;
    double AvgWsBytes = 0;
    double MedianWsBytes = 0;
    double P90WsBytes = 0;
  };

  void onAttach(EventProcessor &Processor) override;
  void onMemoryAlloc(const Event &E) override;
  void onMemoryFree(const Event &E) override;
  void onTensorAlloc(const Event &E) override;
  void onTensorReclaim(const Event &E) override;
  void onKernelLaunch(const Event &E) override;
  void onAccessBatch(const sim::LaunchInfo &Info,
                     const sim::MemAccessRecord *Records,
                     std::size_t Count) override;
  DeviceAnalysis *deviceAnalysis() override;
  void onKernelTraceEnd(const sim::LaunchInfo &Info,
                        const sim::TraceTimeBreakdown &Breakdown) override;
  void writeReport(std::FILE *Out) override;
  void report(ReportSink &Sink) override;

  const std::vector<KernelRecord> &kernels() const { return Kernels; }
  Summary summary() const;
  /// Accumulated instrumentation breakdown (Fig. 10's components).
  const sim::TraceTimeBreakdown &totalBreakdown() const {
    return TotalBreakdown;
  }
  /// Cross-layer stack of the kernel with the most memory references
  /// (captured under the MAX_MEM_REFERENCED_KERNEL knob — Fig. 4).
  const CrossLayerStack &maxReferencedStack() const { return MaxRefStack; }
  const std::string &maxReferencedKernel() const { return MaxRefName; }

private:
  struct Interval {
    sim::DeviceAddr End = 0;
  };

  /// In-situ reducer for the device-resident path.
  class Reducer : public DeviceAnalysis {
  public:
    explicit Reducer(WorkingSetTool &Parent) : Parent(Parent) {}
    void processRecords(const sim::LaunchInfo &Info,
                        const sim::MemAccessRecord *Records,
                        std::size_t Count) override;

  private:
    WorkingSetTool &Parent;
  };

  /// An address's object and the range [Lo, Hi) of addresses that
  /// resolve to the same answer.
  struct Resolution {
    sim::DeviceAddr Base = 0; ///< 0: no object (or one based at 0)
    sim::DeviceAddr Lo = 0;
    sim::DeviceAddr Hi = 0;
  };

  /// Finds the object interval containing \p Addr: the interval with
  /// the greatest base at or below \p Addr, if \p Addr is below its end.
  /// Tensor intervals win over raw allocations. The range is where that
  /// rule cannot change its answer: for a tensor hit, the tensor up to
  /// the next tensor base; for a raw-allocation hit or a miss, the same
  /// kind of range in the allocation map, clipped to the gap between
  /// tensor intervals.
  Resolution lookupObject(sim::DeviceAddr Addr) const;

  /// Adds the records' multiplicities to their objects' counts in
  /// \p Counts. Looks up only a record that leaves the last lookup's
  /// range, and updates \p Counts once per change of object.
  void countChunk(const sim::MemAccessRecord *Records, std::size_t Count,
                  std::unordered_map<sim::DeviceAddr, std::uint64_t> &Counts)
      const;

  /// Merges a chunk-local map into the current kernel's map.
  void mergeCounts(
      const std::unordered_map<sim::DeviceAddr, std::uint64_t> &Local);

  WsAnalysisMode Mode;
  Reducer InSituReducer;
  EventProcessor *Processor = nullptr;
  bool CaptureMaxRef = false;

  /// Live object intervals keyed by base address.
  std::map<sim::DeviceAddr, Interval> TensorIntervals;
  std::map<sim::DeviceAddr, Interval> AllocIntervals;
  /// Object sizes (base -> bytes) for footprint sums.
  std::unordered_map<sim::DeviceAddr, std::uint64_t> ObjectBytes;

  /// Current kernel accumulation (object base -> access count).
  std::unordered_map<sim::DeviceAddr, std::uint64_t> CurrentCounts;
  std::mutex MergeMutex;
  std::string CurrentKernelName;
  std::uint64_t CurrentGridId = 0;

  std::vector<KernelRecord> Kernels;
  std::uint64_t PeakReserved = 0;
  std::uint64_t LiveAllocBytes = 0;
  std::uint64_t PeakAllocBytes = 0;
  sim::TraceTimeBreakdown TotalBreakdown;
  std::uint64_t MaxRefCount = 0;
  std::string MaxRefName;
  CrossLayerStack MaxRefStack;
};

} // namespace tools
} // namespace pasta

#endif // PASTA_TOOLS_WORKINGSETTOOL_H
