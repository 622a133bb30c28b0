//===- tests/tools_test.cpp - case-study tool tests -----------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"
#include "support/ReportSink.h"
#include "tests/TestSession.h"
#include "tools/ExtensionTools.h"
#include "tools/HotnessTool.h"
#include "tools/KernelFrequencyTool.h"
#include "tools/MemUsageTimelineTool.h"
#include "tools/RegisterTools.h"
#include "tools/WorkingSetTool.h"

#include <gtest/gtest.h>

using namespace pasta;
using namespace pasta::tools;
using pasta::test::buildSession;

namespace {

class ToolsTest : public ::testing::Test {
protected:
  void SetUp() override { registerBuiltinTools(); }
  void TearDown() override { clearAllEnvOverrides(); }

  /// One traced iteration of \p Model on \p Backend, running
  /// \p ToolName.
  std::unique_ptr<Session> traceRun(const char *ToolName,
                                    const char *Model = "resnet18",
                                    const char *Backend = "cs-gpu") {
    SessionBuilder Builder;
    Builder.tool(ToolName)
        .model(Model)
        .iterations(1)
        .backend(Backend)
        .recordGranularity(32768);
    std::unique_ptr<Session> S = buildSession(Builder);
    S->run();
    return S;
  }

  /// One untraced iteration of \p Model running \p ToolName.
  std::unique_ptr<Session> run(const char *ToolName, const char *Model) {
    SessionBuilder Builder;
    std::unique_ptr<Session> S =
        buildSession(Builder.tool(ToolName).model(Model).iterations(1));
    S->run();
    return S;
  }
};

} // namespace

TEST_F(ToolsTest, RegistryHasAllBuiltins) {
  auto Names = ToolRegistry::instance().registeredNames();
  for (const char *Expected :
       {"kernel_frequency", "working_set", "working_set_host", "hotness",
        "mem_usage_timeline", "instruction_mix", "barrier_stall",
        "redundant_load"}) {
    EXPECT_NE(std::find(Names.begin(), Names.end(), Expected),
              Names.end())
        << Expected;
  }
}

TEST_F(ToolsTest, BuiltinToolsDeclareExpectedContracts) {
  struct Expectation {
    const char *Name;
    ExecutionModel Model;
    bool AllKinds;
    /// What negotiation asks the backend for.
    const char *Requirements;
  };
  // mem_usage_timeline is the sharded showcase (per-device state);
  // instruction_mix consumes no discrete events at all; the rest keep
  // the serial contract, and only the two stream tools (capture and
  // forward) subscribe to every event kind.
  const Expectation Expectations[] = {
      {"kernel_frequency", ExecutionModel::Serial, false, "coarse-events"},
      {"working_set", ExecutionModel::Serial, false,
       "coarse-events|access-records"},
      {"hotness", ExecutionModel::Serial, false,
       "coarse-events|access-records"},
      {"mem_usage_timeline", ExecutionModel::ShardByDevice, false,
       "coarse-events"},
      {"instruction_mix", ExecutionModel::Concurrent, false,
       "coarse-events|instr-mix"},
      {"barrier_stall", ExecutionModel::Serial, false, "coarse-events"},
      {"redundant_load", ExecutionModel::Serial, false,
       "coarse-events|access-records"},
      {"op_kernel_map", ExecutionModel::Serial, false, "coarse-events"},
      {"chrome_trace", ExecutionModel::Serial, false, "coarse-events"},
      {"working_set_host", ExecutionModel::Serial, false,
       "coarse-events|access-records"},
      {"trace_capture", ExecutionModel::Serial, true, "coarse-events"},
      {"stream_forward", ExecutionModel::Serial, true, "coarse-events"},
  };
  for (const Expectation &Expected : Expectations) {
    std::unique_ptr<Tool> T = ToolRegistry::instance().create(Expected.Name);
    ASSERT_NE(T, nullptr) << Expected.Name;
    Subscription Sub = T->subscription();
    EXPECT_EQ(Sub.Model, Expected.Model) << Expected.Name;
    EXPECT_EQ(Sub.Kinds == EventKindMask::all(), Expected.AllKinds)
        << Expected.Name;
    EXPECT_EQ(T->requirements().str(), Expected.Requirements)
        << Expected.Name;
  }
}

TEST_F(ToolsTest, KernelFrequencyCountsMatchProgram) {
  SessionBuilder Builder;
  auto S = buildSession(
      Builder.tool("kernel_frequency").model("resnet18").iterations(2));
  SessionResult Result = S->run();
  auto *Freq = S->toolAs<KernelFrequencyTool>("kernel_frequency");
  EXPECT_EQ(Freq->totalLaunches(), Result.ProgramKernels);
  // A handful of kernels dominates (the Fig. 7 claim): the top entry
  // must repeat far more often than the mean.
  auto Sorted = Freq->sorted();
  ASSERT_FALSE(Sorted.empty());
  double Mean = static_cast<double>(Freq->totalLaunches()) /
                static_cast<double>(Sorted.size());
  EXPECT_GT(static_cast<double>(Sorted.front().first), 2.0 * Mean);
}

TEST_F(ToolsTest, KernelFrequencyHottestStackViaKnob) {
  setEnvOverride("MAX_CALLED_KERNEL", "1");
  auto S = traceRun("kernel_frequency");
  auto *Freq = S->toolAs<KernelFrequencyTool>("kernel_frequency");
  EXPECT_FALSE(Freq->hottestKernel().empty());
  EXPECT_FALSE(Freq->hottestKernelStack().Frames.empty());
}

TEST_F(ToolsTest, WorkingSetSmallerThanFootprint) {
  auto S = traceRun("working_set");
  auto Summary = S->toolAs<WorkingSetTool>("working_set")->summary();
  EXPECT_GT(Summary.KernelCount, 0u);
  EXPECT_GT(Summary.WorkingSetBytes, 0u);
  EXPECT_LT(Summary.WorkingSetBytes, Summary.PeakFootprintBytes)
      << "Table V: working sets are smaller than footprints";
  EXPECT_LE(Summary.MedianWsBytes, Summary.P90WsBytes);
  EXPECT_LE(Summary.MinWsBytes, Summary.AvgWsBytes);
}

TEST_F(ToolsTest, WorkingSetDeviceAndHostModesAgree) {
  // The GPU-resident reduction must produce the same analysis results as
  // the conventional host-side path — only the cost differs (Fig. 8).
  // Both variants report under the name "working_set".
  auto Gpu = traceRun("working_set", "resnet18", "cs-gpu")
                 ->toolAs<WorkingSetTool>("working_set")
                 ->summary();
  auto Host = traceRun("working_set_host", "resnet18", "cs-cpu")
                  ->toolAs<WorkingSetTool>("working_set")
                  ->summary();
  EXPECT_EQ(Gpu.KernelCount, Host.KernelCount);
  EXPECT_EQ(Gpu.WorkingSetBytes, Host.WorkingSetBytes);
  EXPECT_DOUBLE_EQ(Gpu.MedianWsBytes, Host.MedianWsBytes);
}

TEST_F(ToolsTest, WorkingSetPerKernelSpansLiveWithinFootprint) {
  auto S = traceRun("working_set");
  auto *Ws = S->toolAs<WorkingSetTool>("working_set");
  for (const auto &Kernel : Ws->kernels()) {
    std::uint64_t SpanSum = 0;
    for (const auto &[Base, Bytes] : Kernel.Spans)
      SpanSum += Bytes;
    EXPECT_EQ(SpanSum, Kernel.FootprintBytes);
  }
}

TEST_F(ToolsTest, WorkingSetMaxRefKnobCapturesStack) {
  setEnvOverride("MAX_MEM_REFERENCED_KERNEL", "1");
  auto S = traceRun("working_set", "bert");
  auto *Ws = S->toolAs<WorkingSetTool>("working_set");
  EXPECT_FALSE(Ws->maxReferencedKernel().empty());
  EXPECT_NE(Ws->maxReferencedStack().str().find("--- Python ---"),
            std::string::npos);
}

TEST_F(ToolsTest, HotnessSeparatesLongLivedFromBursty) {
  auto S = traceRun("hotness", "bert");
  auto Profiles = S->toolAs<HotnessTool>("hotness")->profiles();
  ASSERT_GT(Profiles.size(), 10u);
  int LongLived = 0, Bursty = 0;
  for (const auto &Profile : Profiles)
    (Profile.LongLived ? LongLived : Bursty)++;
  // Fig. 13: both populations exist — parameters stay hot, activations
  // burst.
  EXPECT_GT(LongLived, 0);
  EXPECT_GT(Bursty, 0);
}

TEST_F(ToolsTest, HotnessHeatmapWindowsOrdered) {
  auto S = traceRun("hotness");
  auto *Hot = S->toolAs<HotnessTool>("hotness");
  EXPECT_GE(Hot->numWindows(), 2u);
  for (const auto &[Key, Count] : Hot->heatmap()) {
    EXPECT_LT(Key.second, Hot->numWindows());
    EXPECT_GT(Count, 0u);
    EXPECT_EQ(Key.first % Hot->blockBytes(), 0u)
        << "block addresses must be block-aligned";
  }
}

TEST_F(ToolsTest, TimelineTracksEveryTensorEvent) {
  auto S = run("mem_usage_timeline", "resnet18");
  auto *Timeline = S->toolAs<MemUsageTimelineTool>("mem_usage_timeline");
  const auto &Series = Timeline->series(0);
  ASSERT_FALSE(Series.empty());
  // Ramp-up/peak/ramp-down: the series must end near zero and peak in
  // between.
  EXPECT_EQ(Series.back(), 0u);
  EXPECT_GT(Timeline->peak(0), Series.front());
}

TEST_F(ToolsTest, InstructionMixRequiresNvbit) {
  auto Run = [&](const char *Backend) {
    return traceRun("instruction_mix", "resnet18", Backend)
        ->toolAs<InstructionMixTool>("instruction_mix")
        ->mixes()
        .size();
  };
  EXPECT_EQ(Run("cs-gpu"), 0u)
      << "sanitizer cannot see the full instruction stream";
  EXPECT_GT(Run("nvbit-cpu"), 0u);
}

TEST_F(ToolsTest, InstructionMixFractionsSane) {
  auto S = traceRun("instruction_mix", "resnet18", "nvbit-cpu");
  for (const auto &[Name, Entry] :
       S->toolAs<InstructionMixTool>("instruction_mix")->mixes()) {
    EXPECT_GT(Entry.Launches, 0u);
    EXPECT_GE(Entry.memoryFraction(), 0.0);
    EXPECT_LE(Entry.memoryFraction(), 1.0);
  }
}

TEST_F(ToolsTest, BarrierStallAttributesToLayers) {
  auto S = run("barrier_stall", "bert");
  auto *Stall = S->toolAs<BarrierStallTool>("barrier_stall");
  EXPECT_GT(Stall->totalStallNs(), 0u);
  EXPECT_GT(Stall->stallByLayer().size(), 5u);
}

TEST_F(ToolsTest, RedundantLoadDetectsGemmReuse) {
  auto S = traceRun("redundant_load", "bert");
  auto *Redundant = S->toolAs<RedundantLoadTool>("redundant_load");
  ASSERT_FALSE(Redundant->kernels().empty());
  // GEMMs re-read their tiles: at least one kernel must show substantial
  // redundancy, and fractions must stay in [0, 1].
  double MaxFraction = 0;
  for (const auto &Kernel : Redundant->kernels()) {
    EXPECT_LE(Kernel.Redundant, Kernel.Accesses);
    MaxFraction = std::max(MaxFraction, Kernel.fraction());
  }
  EXPECT_GT(MaxFraction, 0.5);
}

TEST_F(ToolsTest, PrefetcherCountsCalls) {
  SessionBuilder Builder;
  Builder.model("resnet18")
      .iterations(1)
      .managed()
      .prefetch(PrefetchLevel::Tensor);
  // The session installs the prefetcher itself; verify it had an effect
  // through the UVM counters.
  SessionResult Result = buildSession(Builder)->run();
  EXPECT_GT(Result.Uvm.PrefetchedPages, 0u);
}

TEST_F(ToolsTest, PrefetchReducesFaults) {
  auto Faults = [&](PrefetchLevel Level) {
    SessionBuilder Builder;
    Builder.model("resnet18").iterations(1).managed().prefetch(Level);
    return buildSession(Builder)->run().Uvm.Faults;
  };
  EXPECT_LT(Faults(PrefetchLevel::Tensor), Faults(PrefetchLevel::None));
}

TEST_F(ToolsTest, WriteReportsProduceOutput) {
  SessionBuilder Builder;
  Builder.tool("kernel_frequency")
      .tool("working_set")
      .model("resnet18")
      .iterations(1)
      .backend("cs-gpu")
      .recordGranularity(32768);
  auto S = buildSession(Builder);
  S->run();
  std::FILE *Tmp = std::tmpfile();
  ASSERT_NE(Tmp, nullptr);
  TextReportSink Sink(Tmp);
  S->writeReports(Sink);
  EXPECT_GT(std::ftell(Tmp), 100L);
  std::fclose(Tmp);
}
