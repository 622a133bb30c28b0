//===- pasta/Tool.cpp -----------------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/Tool.h"

#include "support/Format.h"
#include "support/Logging.h"
#include "support/ReportSink.h"

#include <cstdlib>

using namespace pasta;

DeviceAnalysis::~DeviceAnalysis() = default;
Tool::~Tool() = default;

const char *pasta::capabilityName(Capability Cap) {
  switch (Cap) {
  case Capability::CoarseEvents:
    return "coarse-events";
  case Capability::AccessRecords:
    return "access-records";
  case Capability::InstrMix:
    return "instr-mix";
  case Capability::UvmCounters:
    return "uvm-counters";
  }
  return "unknown";
}

std::string CapabilitySet::str() const {
  std::string Out;
  for (Capability Cap :
       {Capability::CoarseEvents, Capability::AccessRecords,
        Capability::InstrMix, Capability::UvmCounters}) {
    if (!has(Cap))
      continue;
    if (!Out.empty())
      Out += '|';
    Out += capabilityName(Cap);
  }
  return Out.empty() ? "none" : Out;
}

const char *pasta::executionModelName(ExecutionModel Model) {
  switch (Model) {
  case ExecutionModel::Serial:
    return "serial";
  case ExecutionModel::ShardByDevice:
    return "shard-by-device";
  case ExecutionModel::Concurrent:
    return "concurrent";
  }
  return "unknown";
}

std::string EventKindMask::str() const {
  if (*this == all())
    return "all";
  if (empty())
    return "none";
  std::string Out;
  for (std::size_t I = 0; I < NumEventKinds; ++I) {
    EventKind Kind = static_cast<EventKind>(I);
    if (!has(Kind))
      continue;
    if (!Out.empty())
      Out += '|';
    Out += eventKindName(Kind);
  }
  return Out;
}

CapabilitySet Subscription::requiredCapabilities() const {
  CapabilitySet Required(Capability::CoarseEvents);
  if (AccessRecords)
    Required |= Capability::AccessRecords;
  if (InstrMix)
    Required |= Capability::InstrMix;
  if (UvmCounters)
    Required |= Capability::UvmCounters;
  return Required;
}

CapabilitySet Tool::requirements() {
  CapabilitySet Required = subscription().requiredCapabilities();
  if (deviceAnalysis())
    Required |= Capability::AccessRecords;
  return Required;
}

std::string Tool::renderTextReport() {
  char *Buffer = nullptr;
  std::size_t Size = 0;
  std::FILE *Mem = open_memstream(&Buffer, &Size);
  if (!Mem)
    return std::string();
  writeReport(Mem);
  std::fclose(Mem);
  std::string Text(Buffer, Size);
  std::free(Buffer);
  return Text;
}

void Tool::report(ReportSink &Sink) {
  Sink.beginReport(name());
  std::string Text = renderTextReport();
  if (!Text.empty())
    Sink.text(Text);
  Sink.endReport();
}

ToolRegistry &ToolRegistry::instance() {
  static ToolRegistry Registry;
  return Registry;
}

void ToolRegistry::registerTool(const std::string &Name, Factory MakeTool) {
  auto [It, Inserted] = Factories.emplace(Name, std::move(MakeTool));
  if (!Inserted)
    logWarning("tool registered twice: " + Name);
}

std::unique_ptr<Tool> ToolRegistry::create(const std::string &Name) const {
  auto It = Factories.find(Name);
  if (It == Factories.end())
    return nullptr;
  return It->second();
}

std::unique_ptr<Tool> ToolRegistry::create(const std::string &Name,
                                           SessionError &Err) const {
  if (std::unique_ptr<Tool> T = create(Name))
    return T;
  std::vector<std::string> Known = registeredNames();
  Err.assign("unknown tool '" + Name + "'; registered tools: " +
             (Known.empty() ? "<none>" : join(Known, ", ")));
  return nullptr;
}

std::vector<std::string> ToolRegistry::registeredNames() const {
  std::vector<std::string> Names;
  Names.reserve(Factories.size());
  for (const auto &[Name, Factory] : Factories)
    Names.push_back(Name);
  return Names;
}
