//===- tools/KernelFrequencyTool.h - Fig. 6/7 case study --------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kernel invocation frequency analysis (paper §V-B1, Fig. 6/7): the
/// "intuitive yet insightful" example tool — a map from kernel name to
/// invocation count, built by overriding one handler of the PASTA tool
/// template. With the MAX_CALLED_KERNEL knob it also captures the
/// cross-layer call stack of the hottest kernel.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_TOOLS_KERNELFREQUENCYTOOL_H
#define PASTA_TOOLS_KERNELFREQUENCYTOOL_H

#include "pasta/CallStack.h"
#include "pasta/Tool.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pasta {
namespace tools {

/// Counts kernel invocations by name (the paper's
/// TOOL::record_kernel_freq).
class KernelFrequencyTool : public Tool {
public:
  std::string name() const override { return "kernel_frequency"; }

  /// Kernel launches only, Serial (the frequency map and
  /// hottest-stack capture are unsynchronized).
  Subscription subscription() override;

  void onAttach(EventProcessor &Processor) override;
  void onKernelLaunch(const Event &E) override;
  void writeReport(std::FILE *Out) override;
  void report(ReportSink &Sink) override;

  /// Invocation counts keyed by kernel name.
  const std::map<std::string, std::uint64_t> &frequencies() const {
    return Frequencies;
  }
  std::uint64_t totalLaunches() const { return TotalLaunches; }

  /// (count, name) pairs sorted descending — Fig. 7's bubble sizes.
  std::vector<std::pair<std::uint64_t, std::string>> sorted() const;

  /// Cross-layer stack of the most frequently invoked kernel (captured
  /// when the MAX_CALLED_KERNEL knob is on).
  const CrossLayerStack &hottestKernelStack() const { return HottestStack; }
  const std::string &hottestKernel() const { return HottestName; }

private:
  std::map<std::string, std::uint64_t> Frequencies;
  std::uint64_t TotalLaunches = 0;
  EventProcessor *Processor = nullptr;
  bool CaptureHottest = false;
  std::string HottestName;
  std::uint64_t HottestCount = 0;
  CrossLayerStack HottestStack;
};

} // namespace tools
} // namespace pasta

#endif // PASTA_TOOLS_KERNELFREQUENCYTOOL_H
