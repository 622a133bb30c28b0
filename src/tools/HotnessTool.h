//===- tools/HotnessTool.h - Fig. 13 case study -----------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Time-series hotness analysis (paper §V-C2, Fig. 13): tracks memory
/// access hotness over time at 2 MiB virtual-memory-block granularity.
/// Long-lived hot blocks (parameters) are prefetch-and-pin candidates;
/// bursty short-lived blocks (transient activations) are pro-active
/// eviction candidates.
///
/// The device-resident reducer sums each run of consecutive records in
/// the same block before it touches its map, so a batch that sweeps a
/// block costs one map update, with the same counts as per record.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_TOOLS_HOTNESSTOOL_H
#define PASTA_TOOLS_HOTNESSTOOL_H

#include "pasta/Tool.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pasta {
namespace tools {

/// Per-(block, time-window) access counting tool.
class HotnessTool : public Tool {
public:
  /// \p BlockBytes defaults to the paper's 2 MiB unit.
  explicit HotnessTool(std::uint64_t BlockBytes = 2 * 1024 * 1024);
  ~HotnessTool() override;

  std::string name() const override { return "hotness"; }

  /// Kernel launches (window bookkeeping) + access records, on one
  /// serial lane; the in-situ reducer is separately synchronized.
  Subscription subscription() override;

  void onKernelLaunch(const Event &E) override;
  DeviceAnalysis *deviceAnalysis() override { return &InSituReducer; }
  void writeReport(std::FILE *Out) override;

  /// Classification of one block over the run.
  struct BlockProfile {
    sim::DeviceAddr Block = 0;
    std::uint64_t TotalAccesses = 0;
    /// Number of time windows with nonzero accesses.
    std::uint32_t ActiveWindows = 0;
    /// True when active in most windows (long-lived hot data, e.g.
    /// parameters — pin candidates).
    bool LongLived = false;
  };

  /// (block, window) -> access count. Window = kernel launch order
  /// bucketed by WindowKernels.
  const std::map<std::pair<sim::DeviceAddr, std::uint32_t>, std::uint64_t> &
  heatmap() const {
    return Heatmap;
  }

  /// Per-block classification; \p LongLivedFraction is the active-window
  /// share above which a block counts as long-lived.
  std::vector<BlockProfile> profiles(double LongLivedFraction = 0.6) const;

  std::uint32_t numWindows() const { return LastWindow + 1; }
  std::uint64_t blockBytes() const { return BlockBytes; }

  /// Kernel launches per time window (logical-time bucketing).
  void setWindowKernels(std::uint32_t Kernels) { WindowKernels = Kernels; }

private:
  class Reducer : public DeviceAnalysis {
  public:
    explicit Reducer(HotnessTool &Parent) : Parent(Parent) {}
    void processRecords(const sim::LaunchInfo &Info,
                        const sim::MemAccessRecord *Records,
                        std::size_t Count) override;

  private:
    HotnessTool &Parent;
  };

  std::uint64_t BlockBytes;
  std::uint32_t WindowKernels = 8;
  Reducer InSituReducer;
  std::mutex MergeMutex;
  std::uint64_t KernelIndex = 0;
  std::uint32_t CurrentWindow = 0;
  std::uint32_t LastWindow = 0;
  std::map<std::pair<sim::DeviceAddr, std::uint32_t>, std::uint64_t> Heatmap;
};

} // namespace tools
} // namespace pasta

#endif // PASTA_TOOLS_HOTNESSTOOL_H
