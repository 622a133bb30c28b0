//===- tools/KernelFrequencyTool.cpp --------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tools/KernelFrequencyTool.h"

#include "pasta/EventProcessor.h"
#include "pasta/Knobs.h"
#include "support/ReportSink.h"
#include "support/TablePrinter.h"

#include <algorithm>

using namespace pasta;
using namespace pasta::tools;

Subscription KernelFrequencyTool::subscription() {
  Subscription Sub;
  Sub.Kinds = {EventKind::KernelLaunch};
  Sub.Model = ExecutionModel::Serial;
  return Sub;
}

void KernelFrequencyTool::onAttach(EventProcessor &Processor) {
  this->Processor = &Processor;
  CaptureHottest = Knobs::fromEnv().MaxCalledKernel;
}

void KernelFrequencyTool::onKernelLaunch(const Event &E) {
  if (!E.Kernel)
    return;
  ++TotalLaunches;
  std::uint64_t Count = ++Frequencies[E.Kernel->Name];
  if (CaptureHottest && Processor && Count > HottestCount) {
    HottestCount = Count;
    HottestName = E.Kernel->Name;
    HottestStack = Processor->callStacks().capture(HottestName);
  }
}

std::vector<std::pair<std::uint64_t, std::string>>
KernelFrequencyTool::sorted() const {
  std::vector<std::pair<std::uint64_t, std::string>> Out;
  Out.reserve(Frequencies.size());
  for (const auto &[Name, Count] : Frequencies)
    Out.emplace_back(Count, Name);
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) {
              if (A.first != B.first)
                return A.first > B.first;
              return A.second < B.second;
            });
  return Out;
}

void KernelFrequencyTool::writeReport(std::FILE *Out) {
  TablePrinter Table({"Invocations", "Kernel"});
  for (const auto &[Count, Name] : sorted())
    Table.addRow({std::to_string(Count), Name});
  std::fprintf(Out, "=== kernel_frequency: %llu launches, %zu distinct "
                    "kernels ===\n",
               static_cast<unsigned long long>(TotalLaunches),
               Frequencies.size());
  Table.print(Out);
  if (CaptureHottest && !HottestName.empty()) {
    std::fprintf(Out, "\nMost-called kernel: %s\n%s",
                 HottestName.c_str(), HottestStack.str().c_str());
  }
}

void KernelFrequencyTool::report(ReportSink &Sink) {
  Sink.beginReport(name());
  Sink.metric("total_launches", TotalLaunches);
  Sink.metric("distinct_kernels",
              static_cast<std::uint64_t>(Frequencies.size()));
  for (const auto &[Name, Count] : Frequencies)
    Sink.metric("launches." + Name, Count);
  Sink.text(renderTextReport());
  Sink.endReport();
}
