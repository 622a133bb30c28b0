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

namespace {

/// (count, name) pairs for the map's entries, count descending, name
/// ascending. The pairs are filled in map order (name ascending) and
/// stable-sorted by count, so no compare touches a name or a map node.
std::vector<std::pair<std::uint64_t, const std::string *>>
byCount(const std::map<std::string, std::uint64_t> &Frequencies) {
  std::vector<std::pair<std::uint64_t, const std::string *>> Order;
  Order.reserve(Frequencies.size());
  for (const auto &[Name, Count] : Frequencies)
    Order.emplace_back(Count, &Name);
  std::stable_sort(Order.begin(), Order.end(),
                   [](const auto &A, const auto &B) {
                     return A.first > B.first;
                   });
  return Order;
}

} // namespace

std::vector<std::pair<std::uint64_t, std::string>>
KernelFrequencyTool::sorted() const {
  std::vector<std::pair<std::uint64_t, std::string>> Out;
  Out.reserve(Frequencies.size());
  for (const auto &[Count, Name] : byCount(Frequencies))
    Out.emplace_back(Count, *Name);
  return Out;
}

void KernelFrequencyTool::writeReport(std::FILE *Out) {
  TablePrinter Table({"Invocations", "Kernel"});
  for (const auto &[Count, Name] : byCount(Frequencies))
    Table.addRow({std::to_string(Count), *Name});
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
  std::string Key = "launches.";
  const std::size_t Prefix = Key.size();
  for (const auto &[Name, Count] : Frequencies) {
    Key.resize(Prefix);
    Key += Name;
    Sink.metric(Key, Count);
  }
  Sink.text(renderTextReport());
  Sink.endReport();
}
