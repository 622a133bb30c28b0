//===- tests/pasta_extras_test.cpp - annotations/injection/new tools ------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/Annotations.h"
#include "pasta/Injection.h"
#include "support/Env.h"
#include "tests/TestSession.h"
#include "tools/OpKernelMapTool.h"
#include "tools/RegisterTools.h"
#include "tools/UvmAdvisorTool.h"

#include <gtest/gtest.h>

using namespace pasta;
using namespace pasta::tools;
using pasta::test::buildSession;

namespace {

class ExtrasTest : public ::testing::Test {
protected:
  void SetUp() override { registerBuiltinTools(); }
  void TearDown() override { clearAllEnvOverrides(); }

  /// A one-iteration session of \p Model with \p ToolName attached.
  std::unique_ptr<Session> session(const char *ToolName, const char *Model) {
    SessionBuilder Builder;
    return buildSession(Builder.tool(ToolName).model(Model).iterations(1));
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// ScopedRegion
//===----------------------------------------------------------------------===//

TEST_F(ExtrasTest, ScopedRegionBracketsAnalysis) {
  SessionBuilder Builder;
  auto S = buildSession(Builder);
  RangeFilter &Filter = S->processor().rangeFilter();
  {
    ScopedRegion Region(*S);
    EXPECT_TRUE(Filter.regionActive());
    {
      ScopedRegion Nested(*S);
      EXPECT_TRUE(Filter.regionActive());
    }
    EXPECT_TRUE(Filter.regionActive());
  }
  EXPECT_FALSE(Filter.regionActive());
}

//===----------------------------------------------------------------------===//
// InjectionPolicy (paper §IV-D)
//===----------------------------------------------------------------------===//

TEST(InjectionTest, LdPreloadInstrumentsEverything) {
  InjectionPolicy Policy(InjectionMechanism::LdPreload);
  EXPECT_TRUE(Policy.onProcessSpawn({1, "rank0", true}));
  EXPECT_TRUE(Policy.onProcessSpawn({2, "jit_helper", false}));
  EXPECT_EQ(Policy.instrumented().size(), 2u);
  // The hazard: helpers without a CUDA context got instrumented.
  EXPECT_EQ(Policy.spuriouslyInstrumented().size(), 1u);
  EXPECT_EQ(Policy.spuriouslyInstrumented()[0].Command, "jit_helper");
}

TEST(InjectionTest, CudaInjectionPathSkipsHelpers) {
  InjectionPolicy Policy(InjectionMechanism::CudaInjectionPath);
  EXPECT_TRUE(Policy.onProcessSpawn({1, "rank0", true}));
  EXPECT_TRUE(Policy.onProcessSpawn({2, "rank1", true}));
  EXPECT_FALSE(Policy.onProcessSpawn({3, "jit_helper", false}));
  EXPECT_FALSE(Policy.onProcessSpawn({4, "dataloader", false}));
  EXPECT_EQ(Policy.instrumented().size(), 2u);
  EXPECT_EQ(Policy.skipped().size(), 2u);
  EXPECT_TRUE(Policy.spuriouslyInstrumented().empty())
      << "CUDA_INJECTION64_PATH eliminates spurious instrumentation";
}

//===----------------------------------------------------------------------===//
// OpKernelMapTool
//===----------------------------------------------------------------------===//

TEST_F(ExtrasTest, OpKernelMapAttributesEveryKernel) {
  auto S = session("op_kernel_map", "resnet18");
  SessionResult Result = S->run();
  auto *Map = S->toolAs<OpKernelMapTool>("op_kernel_map");

  std::uint64_t Attributed = 0;
  for (const auto &[Name, Profile] : Map->profiles())
    Attributed += Profile.KernelLaunches;
  EXPECT_EQ(Attributed + Map->unattributedKernels(),
            Result.ProgramKernels);
  EXPECT_EQ(Map->unattributedKernels(), 0u)
      << "every kernel launches inside an operator";
}

TEST_F(ExtrasTest, OpKernelMapRevealsFanOut) {
  auto S = session("op_kernel_map", "resnet18");
  S->run();
  auto *Map = S->toolAs<OpKernelMapTool>("op_kernel_map");

  // batch_norm runs two kernels per invocation in training; in inference
  // it is one transform kernel. conv2d via im2col is >= 2.
  auto It = Map->profiles().find("aten::batch_norm");
  ASSERT_NE(It, Map->profiles().end());
  EXPECT_GE(It->second.kernelsPerInvocation(), 1.0);
  EXPECT_GT(It->second.ExecTime, 0u);
  auto Conv = Map->profiles().find("aten::conv2d");
  ASSERT_NE(Conv, Map->profiles().end());
  EXPECT_GT(Conv->second.Kernels.size(), 0u);
}

TEST_F(ExtrasTest, OpKernelMapExecTimeSumsBelowTotal) {
  auto S = session("op_kernel_map", "bert");
  SessionResult Result = S->run();
  auto *Map = S->toolAs<OpKernelMapTool>("op_kernel_map");
  SimTime Sum = 0;
  for (const auto &[Name, Profile] : Map->profiles())
    Sum += Profile.ExecTime;
  EXPECT_GT(Sum, 0u);
  EXPECT_LE(Sum, Result.Stats.wallTime());
}

//===----------------------------------------------------------------------===//
// UvmAdvisor
//===----------------------------------------------------------------------===//

TEST_F(ExtrasTest, AdvisorPlanSeparatesPinAndEvict) {
  SessionBuilder Builder;
  Builder.tool("hotness")
      .backend("cs-gpu")
      .model("bert")
      .iterations(1)
      .recordGranularity(65536);
  auto S = buildSession(Builder);
  S->run();
  auto *Hot = S->toolAs<HotnessTool>("hotness");

  auto Plan = UvmAdvisor::planFromHotness(*Hot);
  ASSERT_FALSE(Plan.empty());
  int Pins = 0, Evicts = 0;
  for (const UvmAdvice &Advice : Plan) {
    EXPECT_EQ(Advice.Block % Hot->blockBytes(), 0u);
    (Advice.Advice == UvmAdvice::Kind::PrefetchAndPin ? Pins : Evicts)++;
  }
  EXPECT_GT(Pins, 0);
}

TEST_F(ExtrasTest, AdvisorPinsOnlyManagedBlocks) {
  sim::System System(sim::a100Spec());
  cuda::CudaRuntime Runtime(System);
  dl::CudaDeviceApi Api(Runtime, 0);

  sim::DeviceAddr Managed = 0;
  Runtime.cudaMallocManaged(&Managed, 8 * MiB);

  std::vector<UvmAdvice> Plan;
  UvmAdvice Pin;
  Pin.Advice = UvmAdvice::Kind::PrefetchAndPin;
  Pin.Block = Managed;
  Pin.Bytes = 4 * MiB;
  Plan.push_back(Pin);
  UvmAdvice Bogus = Pin;
  Bogus.Block = 0x1234; // not managed
  Plan.push_back(Bogus);

  std::uint64_t Pinned = UvmAdvisor::applyPins(Api, Plan);
  EXPECT_EQ(Pinned, 4 * MiB);
  EXPECT_GT(System.device(0).uvm().numResidentPages(), 0u);
}

TEST_F(ExtrasTest, AdvisorPinsSurviveMemoryPressure) {
  sim::System System(sim::a100Spec());
  cuda::CudaRuntime Runtime(System);
  dl::CudaDeviceApi Api(Runtime, 0);
  sim::DeviceAddr Managed = 0;
  Runtime.cudaMallocManaged(&Managed, 16 * MiB);
  System.device(0).setMemoryLimit(8 * MiB);

  std::vector<UvmAdvice> Plan;
  UvmAdvice Pin;
  Pin.Advice = UvmAdvice::Kind::PrefetchAndPin;
  Pin.Block = Managed;
  Pin.Bytes = 4 * MiB;
  Plan.push_back(Pin);
  UvmAdvisor::applyPins(Api, Plan);

  // Touch the rest of the range to create pressure; pinned pages must
  // stay resident (touching them again is free).
  System.device(0).uvm().touch(Managed + 4 * MiB, 12 * MiB);
  EXPECT_EQ(System.device(0).uvm().touch(Managed, 4 * MiB), 0u)
      << "pinned block was evicted under pressure";
}

//===----------------------------------------------------------------------===//
// TraceExportTool
//===----------------------------------------------------------------------===//

#include "tools/TraceExportTool.h"

TEST_F(ExtrasTest, ChromeTraceExportsBalancedEvents) {
  auto S = session("chrome_trace", "resnet18");
  SessionResult Result = S->run();
  auto *Trace = S->toolAs<TraceExportTool>("chrome_trace");

  std::string Json = Trace->toJson();
  ASSERT_GT(Trace->numEvents(), Result.ProgramKernels);
  // Structure: a JSON array with balanced B/E phases and X kernels.
  EXPECT_EQ(Json.front(), '[');
  EXPECT_EQ(Json[Json.size() - 2], ']');
  auto CountSub = [&](const std::string &Needle) {
    std::size_t Count = 0, Pos = 0;
    while ((Pos = Json.find(Needle, Pos)) != std::string::npos) {
      ++Count;
      Pos += Needle.size();
    }
    return Count;
  };
  EXPECT_EQ(CountSub("\"ph\": \"B\""), CountSub("\"ph\": \"E\""));
  EXPECT_EQ(CountSub("\"ph\": \"X\""), Result.ProgramKernels);
  EXPECT_GT(CountSub("\"dur\": "), 0u);
}

TEST_F(ExtrasTest, ChromeTraceEscapesKernelNames) {
  TraceExportTool Trace;
  Event Begin;
  Begin.Kind = EventKind::OperatorStart;
  Begin.OpName = "op\"with\\quotes";
  Trace.onOperatorStart(Begin);
  std::string Json = Trace.toJson();
  EXPECT_NE(Json.find("op\\\"with\\\\quotes"), std::string::npos);
}
