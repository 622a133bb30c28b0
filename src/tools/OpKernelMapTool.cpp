//===- tools/OpKernelMapTool.cpp ------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tools/OpKernelMapTool.h"

#include "support/TablePrinter.h"
#include "support/Units.h"

#include <algorithm>

using namespace pasta;
using namespace pasta::tools;

Subscription OpKernelMapTool::subscription() {
  Subscription Sub;
  Sub.Kinds = {EventKind::OperatorStart, EventKind::OperatorEnd,
               EventKind::KernelLaunch, EventKind::KernelComplete};
  Sub.Model = ExecutionModel::Serial;
  return Sub;
}

void OpKernelMapTool::onOperatorStart(const Event &E) {
  auto [It, Inserted] = Profiles.try_emplace(E.OpName.str());
  OpProfile &Profile = It->second;
  if (Inserted)
    Profile.OpName = It->first;
  ++Profile.Invocations;
  Stacks[E.DeviceIndex].push_back(ActiveOp{E.OpName, &Profile, 0});
}

void OpKernelMapTool::onOperatorEnd(const Event &E) {
  // Tolerate mismatches (range filters can suppress begins).
  auto It = Stacks.find(E.DeviceIndex);
  if (It != Stacks.end() && !It->second.empty() &&
      It->second.back().OpName == E.OpName)
    It->second.pop_back();
}

OpKernelMapTool::ActiveOp *OpKernelMapTool::innermost(int Device) {
  auto It = Stacks.find(Device);
  if (It == Stacks.end() || It->second.empty())
    return nullptr;
  return &It->second.back();
}

void OpKernelMapTool::onKernelLaunch(const Event &E) {
  ActiveOp *Op = innermost(E.DeviceIndex);
  if (!Op) {
    ++Unattributed;
    return;
  }
  ++Op->Profile->KernelLaunches;
  if (E.Kernel)
    ++Op->Profile->Kernels[E.Kernel->Name];
  Op->LastLaunchTime = E.Timestamp;
}

void OpKernelMapTool::onKernelComplete(const Event &E) {
  ActiveOp *Op = innermost(E.DeviceIndex);
  if (!Op)
    return;
  // Kernel execution is synchronous in the simulator: completion minus
  // launch is the kernel's simulated wall time.
  if (E.Timestamp >= Op->LastLaunchTime)
    Op->Profile->ExecTime += E.Timestamp - Op->LastLaunchTime;
}

void OpKernelMapTool::writeReport(std::FILE *Out) {
  std::fprintf(Out, "=== op_kernel_map (%zu operators, %llu unattributed "
                    "kernels) ===\n",
               Profiles.size(),
               static_cast<unsigned long long>(Unattributed));
  std::vector<const OpProfile *> Sorted;
  Sorted.reserve(Profiles.size());
  for (const auto &[Name, Profile] : Profiles)
    Sorted.push_back(&Profile);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const OpProfile *A, const OpProfile *B) {
              return A->ExecTime > B->ExecTime;
            });
  TablePrinter Table({"Operator", "Invocations", "Kernels",
                      "Kernels/Invocation", "Exec Time",
                      "Distinct Kernels"});
  char PerInvocation[32];
  for (const OpProfile *Profile : Sorted) {
    std::snprintf(PerInvocation, sizeof(PerInvocation), "%.2f",
                  Profile->kernelsPerInvocation());
    Table.addRow({Profile->OpName, std::to_string(Profile->Invocations),
                  std::to_string(Profile->KernelLaunches), PerInvocation,
                  formatSimTime(Profile->ExecTime),
                  std::to_string(Profile->Kernels.size())});
  }
  Table.print(Out);
}
