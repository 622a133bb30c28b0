//===- tools/TraceExportTool.h - Chrome-trace timeline export ---*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exports PASTA's event stream as a Chrome trace (chrome://tracing /
/// Perfetto JSON): operators as nested duration events, kernels as
/// complete events on per-device GPU tracks, memory copies and UVM batch
/// operations as instant events. This is the timeline view vendor tools
/// like Nsight Systems provide — reconstructed from PASTA's normalized
/// events alone, on any vendor.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_TOOLS_TRACEEXPORTTOOL_H
#define PASTA_TOOLS_TRACEEXPORTTOOL_H

#include "pasta/Tool.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pasta {
namespace tools {

/// Collects timeline events and renders Chrome trace JSON.
class TraceExportTool : public Tool {
public:
  std::string name() const override { return "chrome_trace"; }

  /// Timeline-relevant events, Serial (a single ordered
  /// entries vector is the whole data structure).
  Subscription subscription() override;

  void onOperatorStart(const Event &E) override;
  void onOperatorEnd(const Event &E) override;
  void onKernelLaunch(const Event &E) override;
  void onKernelComplete(const Event &E) override;
  void onMemoryCopy(const Event &E) override;
  void onBatchMemoryOp(const Event &E) override;

  /// Renders the Chrome trace JSON document.
  std::string toJson() const;
  /// writeReport emits the JSON (pipe to a .json file for Perfetto).
  void writeReport(std::FILE *Out) override;

  std::size_t numEvents() const { return Entries.size(); }

private:
  struct Entry {
    char Phase = 'X';      ///< 'B', 'E', 'X' or 'i'
    /// Shared payload handles: timeline entries adopt the event's
    /// interned operator/layer strings instead of copying them, so a
    /// million-entry trace stores each distinct name once.
    PayloadString Name;
    PayloadString Category;
    int Device = 0;
    int Track = 0;         ///< tid: 0 = CPU/ops, 1 = GPU kernels
    SimTime TimestampNs = 0;
    SimTime DurationNs = 0; ///< for 'X' entries
  };

  static void appendJsonString(std::string &Out, const std::string &Text);

  std::vector<Entry> Entries;
  /// Launch timestamp of the in-flight kernel per device (simulator
  /// kernels are synchronous, so one slot per device suffices). The
  /// name is a payload handle aliasing the interned kernel descriptor,
  /// so repeated launches allocate nothing.
  std::map<int, std::pair<PayloadString, SimTime>> PendingKernels;
};

} // namespace tools
} // namespace pasta

#endif // PASTA_TOOLS_TRACEEXPORTTOOL_H
