//===- tools/ExtensionTools.cpp -------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tools/ExtensionTools.h"

#include "support/Format.h"
#include "support/TablePrinter.h"
#include "support/Units.h"

#include <algorithm>

using namespace pasta;
using namespace pasta::tools;

//===----------------------------------------------------------------------===//
// InstructionMixTool
//===----------------------------------------------------------------------===//

Subscription InstructionMixTool::subscription() {
  Subscription Sub;
  Sub.Kinds = EventKindMask::none();
  Sub.InstrMix = true;
  Sub.Model = ExecutionModel::Concurrent;
  return Sub;
}

double InstructionMixTool::KernelMix::memoryFraction() const {
  std::uint64_t Total = Mix.total();
  if (Total == 0)
    return 0.0;
  return static_cast<double>(Mix.GlobalLoads + Mix.GlobalStores +
                             Mix.SharedAccesses) /
         static_cast<double>(Total);
}

void InstructionMixTool::onInstrMix(const sim::LaunchInfo &Info,
                                    const sim::InstrMix &Mix) {
  // Ignore empty payloads (e.g. the requirements() negotiation probe).
  if (Mix.total() == 0)
    return;
  KernelMix &Entry = Mixes[Info.Desc ? Info.Desc->Name : "<unknown>"];
  ++Entry.Launches;
  Entry.Mix.GlobalLoads += Mix.GlobalLoads;
  Entry.Mix.GlobalStores += Mix.GlobalStores;
  Entry.Mix.SharedAccesses += Mix.SharedAccesses;
  Entry.Mix.Barriers += Mix.Barriers;
  Entry.Mix.ComputeInstrs += Mix.ComputeInstrs;
}

void InstructionMixTool::writeReport(std::FILE *Out) {
  std::fprintf(Out, "=== instruction_mix (%zu kernels) ===\n",
               Mixes.size());
  TablePrinter Table({"Kernel", "Launches", "Loads", "Stores", "Barriers",
                      "Compute", "Mem%"});
  for (const auto &[Name, Entry] : Mixes)
    Table.addRow({Name, std::to_string(Entry.Launches),
                  std::to_string(Entry.Mix.GlobalLoads),
                  std::to_string(Entry.Mix.GlobalStores),
                  std::to_string(Entry.Mix.Barriers),
                  std::to_string(Entry.Mix.ComputeInstrs),
                  format("%.1f%%", Entry.memoryFraction() * 100.0)});
  Table.print(Out);
}

//===----------------------------------------------------------------------===//
// BarrierStallTool
//===----------------------------------------------------------------------===//

BarrierStallTool::BarrierStallTool(std::uint64_t BarrierLatencyNs)
    : BarrierLatencyNs(BarrierLatencyNs) {}

Subscription BarrierStallTool::subscription() {
  Subscription Sub;
  Sub.Kinds = {EventKind::OperatorStart, EventKind::KernelLaunch};
  Sub.Model = ExecutionModel::Serial;
  return Sub;
}

void BarrierStallTool::onOperatorStart(const Event &E) {
  CurrentLayer = E.LayerName;
}

void BarrierStallTool::onKernelLaunch(const Event &E) {
  if (!E.Kernel)
    return;
  // Each block executes BarriersPerBlock barriers; waves of blocks stall
  // serially per SM, so weight by grid size.
  std::uint64_t Barriers =
      static_cast<std::uint64_t>(E.Kernel->BarriersPerBlock) *
      E.Kernel->Grid.count();
  std::uint64_t Stall = Barriers * BarrierLatencyNs / 1000;
  if (CurrentLayer.empty())
    StallByLayer["<toplevel>"] += Stall;
  else
    StallByLayer[CurrentLayer.str()] += Stall;
  TotalStall += Stall;
}

void BarrierStallTool::writeReport(std::FILE *Out) {
  std::fprintf(Out, "=== barrier_stall: total %s ===\n",
               formatSimTime(TotalStall).c_str());
  std::vector<std::pair<std::uint64_t, std::string>> Sorted;
  for (const auto &[Layer, Stall] : StallByLayer)
    Sorted.emplace_back(Stall, Layer);
  std::sort(Sorted.rbegin(), Sorted.rend());
  TablePrinter Table({"Estimated Stall", "Layer"});
  for (const auto &[Stall, Layer] : Sorted)
    Table.addRow({formatSimTime(Stall), Layer});
  Table.print(Out);
}

//===----------------------------------------------------------------------===//
// RedundantLoadTool
//===----------------------------------------------------------------------===//

Subscription RedundantLoadTool::subscription() {
  Subscription Sub;
  Sub.Kinds = {EventKind::KernelLaunch};
  Sub.AccessRecords = true;
  Sub.KernelTrace = true;
  Sub.Model = ExecutionModel::Serial;
  return Sub;
}

void RedundantLoadTool::onKernelLaunch(const Event &E) {
  (void)E;
  SeenAddresses.clear();
  CurrentAccesses = 0;
  CurrentRedundant = 0;
}

void RedundantLoadTool::InSitu::processRecords(
    const sim::LaunchInfo &Info, const sim::MemAccessRecord *Records,
    std::size_t Count) {
  (void)Info;
  std::unordered_map<sim::DeviceAddr, std::uint64_t> Local;
  for (std::size_t I = 0; I < Count; ++I)
    Local[Records[I].Address] += Records[I].Multiplicity;

  for (const auto &[Addr, Hits] : Local) {
    // Multiplicity-0 records carry no access: they must neither count
    // nor make the address "seen".
    if (Hits == 0)
      continue;
    std::uint64_t &Seen = Parent.SeenAddresses[Addr];
    // First access to an address is useful; repeats are redundancy
    // candidates (same value re-loaded).
    std::uint64_t Redundant = Seen == 0 ? Hits - 1 : Hits;
    Parent.CurrentRedundant += Redundant;
    Parent.CurrentAccesses += Hits;
    Seen += Hits;
  }
}

void RedundantLoadTool::onKernelTraceEnd(
    const sim::LaunchInfo &Info, const sim::TraceTimeBreakdown &Breakdown) {
  (void)Breakdown;
  KernelRedundancy Record;
  Record.Name = Info.Desc ? Info.Desc->Name : "<unknown>";
  Record.GridId = Info.GridId;
  Record.Accesses = CurrentAccesses;
  Record.Redundant = CurrentRedundant;
  Kernels.push_back(std::move(Record));
  SeenAddresses.clear();
  CurrentAccesses = 0;
  CurrentRedundant = 0;
}

void RedundantLoadTool::writeReport(std::FILE *Out) {
  std::fprintf(Out, "=== redundant_load (%zu launches) ===\n",
               Kernels.size());
  TablePrinter Table({"GridId", "Kernel", "Accesses", "Redundant",
                      "Fraction"});
  for (const KernelRedundancy &Record : Kernels)
    Table.addRow({std::to_string(Record.GridId), Record.Name,
                  std::to_string(Record.Accesses),
                  std::to_string(Record.Redundant),
                  format("%.1f%%", Record.fraction() * 100.0)});
  Table.print(Out);
}
