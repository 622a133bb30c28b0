//===- tools/MemUsageTimelineTool.cpp -------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tools/MemUsageTimelineTool.h"

#include "support/ReportSink.h"
#include "support/TablePrinter.h"
#include "support/Units.h"

#include <algorithm>

using namespace pasta;
using namespace pasta::tools;

Subscription MemUsageTimelineTool::subscription() {
  Subscription Sub;
  Sub.Kinds = {EventKind::TensorAlloc, EventKind::TensorReclaim};
  Sub.Model = ExecutionModel::ShardByDevice;
  return Sub;
}

void MemUsageTimelineTool::record(const Event &E) {
  std::vector<std::uint64_t> *DeviceSeries;
  {
    // Map nodes are stable; only the find-or-create races across devices.
    std::lock_guard<std::mutex> Lock(SeriesMutex);
    DeviceSeries = &Series[E.DeviceIndex];
  }
  // One device's events arrive in order, one at a time: appends to its
  // series are unshared.
  DeviceSeries->push_back(E.PoolAllocated);
}

const std::vector<std::uint64_t> &
MemUsageTimelineTool::series(int DeviceIndex) const {
  static const std::vector<std::uint64_t> Empty;
  std::lock_guard<std::mutex> Lock(SeriesMutex);
  auto It = Series.find(DeviceIndex);
  return It == Series.end() ? Empty : It->second;
}

std::vector<int> MemUsageTimelineTool::devices() const {
  std::vector<int> Out;
  std::lock_guard<std::mutex> Lock(SeriesMutex);
  for (const auto &[Device, Samples] : Series)
    Out.push_back(Device);
  return Out;
}

std::uint64_t MemUsageTimelineTool::peak(int DeviceIndex) const {
  const auto &Samples = series(DeviceIndex);
  if (Samples.empty())
    return 0;
  return *std::max_element(Samples.begin(), Samples.end());
}

std::uint64_t MemUsageTimelineTool::numEvents(int DeviceIndex) const {
  return series(DeviceIndex).size();
}

void MemUsageTimelineTool::writeReport(std::FILE *Out) {
  std::fprintf(Out, "=== mem_usage_timeline ===\n");
  TablePrinter Table({"Device", "Tensor Events", "Peak Usage"});
  for (int Device : devices())
    Table.addRow({std::to_string(Device),
                  std::to_string(numEvents(Device)),
                  formatBytes(peak(Device))});
  Table.print(Out);
}

void MemUsageTimelineTool::report(ReportSink &Sink) {
  Sink.beginReport(name());
  for (int Device : devices()) {
    std::string Prefix = "device" + std::to_string(Device);
    Sink.metric(Prefix + ".tensor_events", numEvents(Device));
    Sink.metric(Prefix + ".peak_bytes", peak(Device));
  }
  Sink.text(renderTextReport());
  Sink.endReport();
}
