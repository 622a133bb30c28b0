//===- tools/HotnessTool.cpp ----------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tools/HotnessTool.h"

#include "support/Format.h"
#include "support/TablePrinter.h"
#include "support/Units.h"

#include <unordered_map>

using namespace pasta;
using namespace pasta::tools;

HotnessTool::HotnessTool(std::uint64_t BlockBytes)
    : BlockBytes(BlockBytes), InSituReducer(*this) {}

HotnessTool::~HotnessTool() = default;

Subscription HotnessTool::subscription() {
  Subscription Sub;
  Sub.Kinds = {EventKind::KernelLaunch};
  Sub.AccessRecords = true;
  Sub.Model = ExecutionModel::Serial;
  return Sub;
}

void HotnessTool::onKernelLaunch(const Event &E) {
  (void)E;
  CurrentWindow = static_cast<std::uint32_t>(KernelIndex / WindowKernels);
  LastWindow = std::max(LastWindow, CurrentWindow);
  ++KernelIndex;
}

void HotnessTool::Reducer::processRecords(const sim::LaunchInfo &Info,
                                          const sim::MemAccessRecord *Records,
                                          std::size_t Count) {
  (void)Info;
  if (Count == 0)
    return;
  // One map update per run of records in the same block.
  std::uint64_t BlockBytes = Parent.BlockBytes;
  std::unordered_map<sim::DeviceAddr, std::uint64_t> Local;
  sim::DeviceAddr Block = Records[0].Address / BlockBytes * BlockBytes;
  std::uint64_t RunSum = 0;
  for (std::size_t I = 0; I < Count; ++I) {
    sim::DeviceAddr Addr = Records[I].Address;
    if (Addr - Block >= BlockBytes) {
      Local[Block] += RunSum;
      Block = Addr / BlockBytes * BlockBytes;
      RunSum = 0;
    }
    RunSum += Records[I].Multiplicity;
  }
  Local[Block] += RunSum;
  std::lock_guard<std::mutex> Lock(Parent.MergeMutex);
  for (const auto &[Block, Accesses] : Local)
    Parent.Heatmap[{Block, Parent.CurrentWindow}] += Accesses;
}

std::vector<HotnessTool::BlockProfile>
HotnessTool::profiles(double LongLivedFraction) const {
  std::map<sim::DeviceAddr, BlockProfile> ByBlock;
  for (const auto &[Key, Count] : Heatmap) {
    BlockProfile &Profile = ByBlock[Key.first];
    Profile.Block = Key.first;
    Profile.TotalAccesses += Count;
    ++Profile.ActiveWindows;
  }
  std::vector<BlockProfile> Out;
  Out.reserve(ByBlock.size());
  double Threshold = LongLivedFraction * numWindows();
  for (auto &[Block, Profile] : ByBlock) {
    Profile.LongLived = Profile.ActiveWindows >= Threshold;
    Out.push_back(Profile);
  }
  return Out;
}

void HotnessTool::writeReport(std::FILE *Out) {
  auto Profiles = profiles();
  std::uint64_t LongLived = 0;
  for (const BlockProfile &Profile : Profiles)
    if (Profile.LongLived)
      ++LongLived;
  std::fprintf(Out,
               "=== hotness: %zu blocks of %s, %u windows, %llu "
               "long-lived hot blocks ===\n",
               Profiles.size(), formatBytes(BlockBytes).c_str(),
               numWindows(), static_cast<unsigned long long>(LongLived));
  TablePrinter Table({"Block", "Windows Active", "Total Accesses",
                      "Class"});
  for (const BlockProfile &Profile : Profiles)
    Table.addRow({format("0x%llx", static_cast<unsigned long long>(
                                       Profile.Block)),
                  std::to_string(Profile.ActiveWindows),
                  std::to_string(Profile.TotalAccesses),
                  Profile.LongLived ? "long-lived (pin)"
                                    : "bursty (evict)"});
  Table.print(Out);
}
