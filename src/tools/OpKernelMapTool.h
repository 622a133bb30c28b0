//===- tools/OpKernelMapTool.h - operator -> kernel mapping -----*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operator-to-kernel mapping (paper §III-E): DL frameworks run one or
/// more kernels per operator and hide the mapping from users. By
/// consuming operator start/end events and kernel launches *together* —
/// the concurrent low-level + high-level capture the paper highlights —
/// this tool reconstructs the mapping: which kernels each operator
/// launched, how often, and how much simulated execution time each
/// operator's kernels consumed, attributed per layer and phase.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_TOOLS_OPKERNELMAPTOOL_H
#define PASTA_TOOLS_OPKERNELMAPTOOL_H

#include "pasta/Tool.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pasta {
namespace tools {

/// Reconstructs the hidden operator -> kernel fan-out.
class OpKernelMapTool : public Tool {
public:
  std::string name() const override { return "op_kernel_map"; }

  /// Operator + kernel lifecycle events, Serial (the
  /// operator nesting stacks are inherently order-sensitive).
  Subscription subscription() override;

  struct OpProfile {
    std::string OpName;
    std::uint64_t Invocations = 0;
    std::uint64_t KernelLaunches = 0;
    /// Distinct kernel names this operator dispatched to.
    std::map<std::string, std::uint64_t> Kernels;
    /// Simulated execution time attributed to this operator's kernels.
    SimTime ExecTime = 0;

    double kernelsPerInvocation() const {
      return Invocations == 0
                 ? 0.0
                 : static_cast<double>(KernelLaunches) /
                       static_cast<double>(Invocations);
    }
  };

  void onOperatorStart(const Event &E) override;
  void onOperatorEnd(const Event &E) override;
  void onKernelLaunch(const Event &E) override;
  void onKernelComplete(const Event &E) override;
  void writeReport(std::FILE *Out) override;

  /// Profiles keyed by operator name (e.g. "aten::conv2d").
  const std::map<std::string, OpProfile> &profiles() const {
    return Profiles;
  }
  /// Kernels launched with no operator context (framework-external).
  std::uint64_t unattributedKernels() const { return Unattributed; }

private:
  struct ActiveOp {
    /// Shared handle adopted from the event — pushing an operator onto
    /// the nesting stack never copies the name bytes.
    PayloadString OpName;
    /// The operator's entry in Profiles (map nodes are stable), so the
    /// kernel hooks never look the name up again.
    OpProfile *Profile = nullptr;
    SimTime LastLaunchTime = 0;
  };

  /// The innermost active operator on \p Device, or null.
  ActiveOp *innermost(int Device);

  std::map<std::string, OpProfile> Profiles;
  /// Operator nesting stack per device (outermost first): producers of
  /// different devices interleave their operators.
  std::map<int, std::vector<ActiveOp>> Stacks;
  std::uint64_t Unattributed = 0;
};

} // namespace tools
} // namespace pasta

#endif // PASTA_TOOLS_OPKERNELMAPTOOL_H
