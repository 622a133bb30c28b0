//===- tools/MemUsageTimelineTool.h - Fig. 14/15 case study -----*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory-usage-over-time analysis (paper §V-D, Fig. 14/15): records the
/// pool's allocated bytes at every tensor allocation/deallocation event,
/// per device. The x-axis is the logical timestamp — the tensor event
/// index — exactly as the paper plots it. Works identically on NVIDIA and
/// AMD backends, which is the cross-vendor point of Fig. 14.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_TOOLS_MEMUSAGETIMELINETOOL_H
#define PASTA_TOOLS_MEMUSAGETIMELINETOOL_H

#include "pasta/Tool.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pasta {
namespace tools {

/// Per-device tensor-granularity memory usage series.
///
/// Declares the ShardByDevice contract: its state is a per-device series,
/// so events for different devices may be dispatched concurrently — only
/// the container itself (creating a device's series on first use) is
/// guarded; appends to one device's series are serialized by the
/// per-device ordering the contract guarantees.
class MemUsageTimelineTool : public Tool {
public:
  std::string name() const override { return "mem_usage_timeline"; }

  /// Tensor alloc/reclaim only, sharded by device.
  Subscription subscription() override;

  void onTensorAlloc(const Event &E) override { record(E); }
  void onTensorReclaim(const Event &E) override { record(E); }
  void writeReport(std::FILE *Out) override;
  void report(ReportSink &Sink) override;

  /// Allocated-bytes series per device, one sample per tensor event.
  /// Accessors are for quiescent pipelines (post-finish / post-flush).
  const std::vector<std::uint64_t> &series(int DeviceIndex) const;
  std::vector<int> devices() const;
  std::uint64_t peak(int DeviceIndex) const;
  std::uint64_t numEvents(int DeviceIndex) const;

private:
  void record(const Event &E);

  /// Guards the map structure only (device-series creation and lookup);
  /// values are appended outside the lock, per the sharded contract.
  mutable std::mutex SeriesMutex;
  std::map<int, std::vector<std::uint64_t>> Series;
};

} // namespace tools
} // namespace pasta

#endif // PASTA_TOOLS_MEMUSAGETIMELINETOOL_H
