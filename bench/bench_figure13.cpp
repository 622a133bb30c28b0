//===- bench/bench_figure13.cpp - BERT access hotness over time -----------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reproduces paper Fig. 13: memory access hotness of BERT inference over
// time at 2 MiB virtual-memory-block granularity, rendered as an ASCII
// heat map (rows = hottest blocks, columns = time windows). Long-lived
// hot rows (solid stripes) are parameter blocks — prefetch/pin
// candidates; bursty rows are transient data — pro-active eviction
// candidates.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "tools/HotnessTool.h"

#include <algorithm>
#include <map>

using namespace pasta;
using namespace pasta::tools;

int main() {
  bench::banner("Memory access hotness of BERT inference over time",
                "paper Figure 13");

  SessionBuilder Builder;
  Builder.tool("hotness").backend("cs-gpu").gpu("A100").model("bert");
  std::unique_ptr<Session> S = bench::buildSession(Builder);
  S->run();
  auto *Hot = S->toolAs<HotnessTool>("hotness");

  // Collect per-block window activity.
  std::map<sim::DeviceAddr, std::vector<std::uint64_t>> Rows;
  std::uint32_t Windows = Hot->numWindows();
  for (const auto &[Key, Count] : Hot->heatmap()) {
    auto &Row = Rows[Key.first];
    Row.resize(Windows, 0);
    Row[Key.second] += Count;
  }

  // Rank blocks by total accesses; show the hottest 32.
  std::vector<std::pair<std::uint64_t, sim::DeviceAddr>> Ranking;
  for (const auto &[Block, Row] : Rows) {
    std::uint64_t Total = 0;
    for (std::uint64_t Count : Row)
      Total += Count;
    Ranking.emplace_back(Total, Block);
  }
  std::sort(Ranking.rbegin(), Ranking.rend());

  std::printf("\n%zu blocks x %u windows; hottest 32 blocks "
              "(darker = hotter):\n\n",
              Rows.size(), Windows);
  auto Profiles = Hot->profiles();
  std::map<sim::DeviceAddr, bool> LongLived;
  for (const auto &Profile : Profiles)
    LongLived[Profile.Block] = Profile.LongLived;

  for (std::size_t I = 0; I < Ranking.size() && I < 32; ++I) {
    sim::DeviceAddr Block = Ranking[I].second;
    std::printf("0x%011llx |%s| %s\n",
                static_cast<unsigned long long>(Block),
                bench::sparkline(Rows[Block]).c_str(),
                LongLived[Block] ? "long-lived (pin)" : "bursty (evict)");
  }

  std::uint64_t Pin = 0;
  for (const auto &Profile : Profiles)
    if (Profile.LongLived)
      ++Pin;
  std::printf("\nclassified %llu/%zu blocks as long-lived hot data "
              "(cudaMemPrefetchAsync + cudaMemAdvise pin candidates); "
              "the rest are bursty, transient data (pro-active eviction "
              "candidates) — the paper's two populations.\n",
              static_cast<unsigned long long>(Pin), Profiles.size());
  return 0;
}
