//===- tests/pasta_core_test.cpp - events/filter/processor/stacks ---------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/CallStack.h"
#include "pasta/EventProcessor.h"
#include "pasta/Events.h"
#include "pasta/RangeFilter.h"
#include "pasta/Tool.h"
#include "support/Env.h"

#include <gtest/gtest.h>

#include <thread>

using namespace pasta;

namespace {

/// Tool recording everything it receives.
class RecordingTool : public Tool {
public:
  std::string name() const override { return "recording"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.AccessRecords = true;
    Sub.KernelTrace = true;
    return Sub;
  }
  void onEvent(const Event &E) override { AllEvents.push_back(E.Kind); }
  void onKernelLaunch(const Event &) override { ++KernelLaunches; }
  void onTensorAlloc(const Event &) override { ++TensorAllocs; }
  void onMemoryAlloc(const Event &) override { ++MemoryAllocs; }
  void onAccessBatch(const sim::LaunchInfo &, const sim::MemAccessRecord *,
                     std::size_t Count) override {
    HostRecords += Count;
  }

  std::vector<EventKind> AllEvents;
  int KernelLaunches = 0;
  int TensorAllocs = 0;
  int MemoryAllocs = 0;
  std::uint64_t HostRecords = 0;
};

/// Tool with a device-resident reducer counting its calls and records.
class DeviceTool : public Tool {
public:
  std::string name() const override { return "device"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.AccessRecords = true;
    Sub.KernelTrace = true;
    return Sub;
  }
  DeviceAnalysis *deviceAnalysis() override { return &Reducer; }

  struct Counter : DeviceAnalysis {
    std::uint64_t Calls = 0;
    std::uint64_t Records = 0;
    std::thread::id Caller;
    void processRecords(const sim::LaunchInfo &,
                        const sim::MemAccessRecord *,
                        std::size_t Count) override {
      ++Calls;
      Records += Count;
      Caller = std::this_thread::get_id();
    }
  };
  Counter Reducer;
};

Event kernelEvent(std::uint64_t GridId) {
  Event E;
  E.Kind = EventKind::KernelLaunch;
  E.GridId = GridId;
  return E;
}

class RangeFilterTest : public ::testing::Test {
protected:
  void TearDown() override { clearAllEnvOverrides(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Events
//===----------------------------------------------------------------------===//

TEST(EventsTest, KindNamesNonNull) {
  EXPECT_STREQ(eventKindName(EventKind::KernelLaunch), "KernelLaunch");
  EXPECT_STREQ(eventKindName(EventKind::TensorReclaim), "TensorReclaim");
}

TEST(EventsTest, LevelsFollowTableII) {
  EXPECT_EQ(eventLevel(EventKind::KernelLaunch), EventLevel::HostApi);
  EXPECT_EQ(eventLevel(EventKind::MemoryCopy), EventLevel::HostApi);
  EXPECT_EQ(eventLevel(EventKind::BarrierInstruction),
            EventLevel::DeviceOp);
  EXPECT_EQ(eventLevel(EventKind::TensorAlloc), EventLevel::DlFramework);
  EXPECT_EQ(eventLevel(EventKind::OperatorStart),
            EventLevel::DlFramework);
}

//===----------------------------------------------------------------------===//
// RangeFilter
//===----------------------------------------------------------------------===//

TEST_F(RangeFilterTest, DefaultAcceptsEverything) {
  RangeFilter Filter;
  EXPECT_TRUE(Filter.kernelActive(1));
  EXPECT_TRUE(Filter.kernelActive(1ull << 40));
}

TEST_F(RangeFilterTest, GridWindowFromEnv) {
  setEnvOverride("START_GRID_ID", "10");
  setEnvOverride("END_GRID_ID", "20");
  RangeFilter Filter;
  EXPECT_FALSE(Filter.kernelActive(9));
  EXPECT_TRUE(Filter.kernelActive(10));
  EXPECT_TRUE(Filter.kernelActive(20));
  EXPECT_FALSE(Filter.kernelActive(21));
}

TEST_F(RangeFilterTest, NegativeStartClampsToZero) {
  // Regression: a negative START_GRID_ID used to be cast straight to
  // uint64, producing a huge start id that silently filtered every
  // kernel. Negatives mean "from the beginning".
  setEnvOverride("START_GRID_ID", "-5");
  RangeFilter Filter;
  EXPECT_EQ(Filter.startGridId(), 0u);
  EXPECT_TRUE(Filter.kernelActive(0));
  EXPECT_TRUE(Filter.kernelActive(1));
  EXPECT_TRUE(Filter.kernelActive(1ull << 40));
}

TEST_F(RangeFilterTest, AnnotationsGateOnceUsed) {
  RangeFilter Filter;
  EXPECT_TRUE(Filter.regionActive()) << "no annotations => whole program";
  Filter.annotationStart();
  EXPECT_TRUE(Filter.regionActive());
  Filter.annotationStop();
  EXPECT_FALSE(Filter.regionActive())
      << "after first use, outside regions are inactive";
  Filter.annotationStart();
  EXPECT_TRUE(Filter.regionActive());
}

TEST_F(RangeFilterTest, AnnotationsNest) {
  RangeFilter Filter;
  Filter.annotationStart();
  Filter.annotationStart();
  Filter.annotationStop();
  EXPECT_TRUE(Filter.regionActive());
  Filter.annotationStop();
  EXPECT_FALSE(Filter.regionActive());
}

TEST_F(RangeFilterTest, StopWithoutStartIsSafe) {
  RangeFilter Filter;
  Filter.annotationStop();
  EXPECT_TRUE(Filter.regionActive());
}

//===----------------------------------------------------------------------===//
// EventProcessor
//===----------------------------------------------------------------------===//

TEST_F(RangeFilterTest, ProcessorDispatchesToSpecificHooks) {
  EventProcessor Processor;
  RecordingTool Tool;
  Processor.addTool(&Tool);

  Processor.process(kernelEvent(1));
  Event Alloc;
  Alloc.Kind = EventKind::MemoryAlloc;
  Processor.process(Alloc);
  Event TensorAlloc;
  TensorAlloc.Kind = EventKind::TensorAlloc;
  Processor.process(TensorAlloc);

  EXPECT_EQ(Tool.KernelLaunches, 1);
  EXPECT_EQ(Tool.MemoryAllocs, 1);
  EXPECT_EQ(Tool.TensorAllocs, 1);
  EXPECT_EQ(Tool.AllEvents.size(), 3u) << "generic hook sees everything";
  EXPECT_EQ(Processor.stats().EventsProcessed, 3u);
}

TEST_F(RangeFilterTest, ProcessorFiltersKernelsOutsideGridWindow) {
  setEnvOverride("START_GRID_ID", "5");
  setEnvOverride("END_GRID_ID", "6");
  EventProcessor Processor;
  RecordingTool Tool;
  Processor.addTool(&Tool);
  for (std::uint64_t Grid = 1; Grid <= 10; ++Grid)
    Processor.process(kernelEvent(Grid));
  EXPECT_EQ(Tool.KernelLaunches, 2);
  EXPECT_EQ(Processor.stats().EventsFiltered, 8u);
}

TEST_F(RangeFilterTest, ProcessorRoutesRecordsToHostPath) {
  EventProcessor Processor;
  RecordingTool Tool;
  Processor.addTool(&Tool);
  std::vector<sim::MemAccessRecord> Records(100);
  sim::LaunchInfo Info;
  Info.GridId = 1;
  Processor.onAccessBatch(Info, Records.data(), Records.size());
  EXPECT_EQ(Tool.HostRecords, 100u);
  EXPECT_EQ(Processor.stats().HostAnalyzedRecords, 100u);
  EXPECT_EQ(Processor.stats().DeviceAnalyzedRecords, 0u);
}

TEST_F(RangeFilterTest, ProcessorRoutesRecordsToDevicePath) {
  EventProcessor Processor;
  DeviceTool Tool;
  Processor.addTool(&Tool);
  std::vector<sim::MemAccessRecord> Records(100000);
  sim::LaunchInfo Info;
  Info.GridId = 1;
  Processor.onAccessBatch(Info, Records.data(), Records.size());
  // One call with the whole batch, on the delivering thread.
  EXPECT_EQ(Tool.Reducer.Calls, 1u);
  EXPECT_EQ(Tool.Reducer.Records, 100000u);
  EXPECT_EQ(Tool.Reducer.Caller, std::this_thread::get_id());
  EXPECT_EQ(Processor.stats().DeviceAnalyzedRecords, 100000u);
  EXPECT_EQ(Processor.stats().HostAnalyzedRecords, 0u);
}

TEST_F(RangeFilterTest, ProcessorDropsRecordsOutsideWindow) {
  setEnvOverride("START_GRID_ID", "100");
  EventProcessor Processor;
  RecordingTool Tool;
  Processor.addTool(&Tool);
  std::vector<sim::MemAccessRecord> Records(10);
  sim::LaunchInfo Info;
  Info.GridId = 5;
  Processor.onAccessBatch(Info, Records.data(), Records.size());
  EXPECT_EQ(Tool.HostRecords, 0u);
}

TEST_F(RangeFilterTest, ProcessorUpdatesPythonContext) {
  EventProcessor Processor;
  Event Op;
  Op.Kind = EventKind::OperatorStart;
  Op.OpName = "aten::linear";
  Op.PythonStack = {"frame0", "frame1"};
  Processor.process(Op);
  EXPECT_EQ(Processor.callStacks().pythonStack().size(), 2u);
}

TEST_F(RangeFilterTest, MultipleToolsAllReceive) {
  EventProcessor Processor;
  RecordingTool A, B;
  Processor.addTool(&A);
  Processor.addTool(&B);
  Processor.process(kernelEvent(1));
  EXPECT_EQ(A.KernelLaunches, 1);
  EXPECT_EQ(B.KernelLaunches, 1);
}

//===----------------------------------------------------------------------===//
// CallStackBuilder
//===----------------------------------------------------------------------===//

TEST(CallStackTest, GemmStackMatchesFig4) {
  CallStackBuilder Builder;
  Builder.setPythonStack(
      {"models/bert/run_bert.py:146 def test_bert()"});
  CrossLayerStack Stack = Builder.capture("ampere_sgemm_128x64_nn");
  std::string Text = Stack.str();
  EXPECT_NE(Text.find("gemm_and_bias"), std::string::npos);
  EXPECT_NE(Text.find("test_bert"), std::string::npos);
  EXPECT_NE(Text.find("__libc_start_main_impl"), std::string::npos);
  EXPECT_NE(Text.find("--- Python ---"), std::string::npos);
}

TEST(CallStackTest, KernelFamiliesGetDistinctCppFrames) {
  CallStackBuilder Builder;
  std::string Gemm = Builder.capture("ampere_sgemm_128x64_nn").str();
  std::string Im2col = Builder.capture("at::native::im2col_kernel").str();
  std::string Softmax =
      Builder.capture("at::native::softmax_warp_forward").str();
  EXPECT_NE(Gemm, Im2col);
  EXPECT_NE(Im2col, Softmax);
  EXPECT_NE(Im2col.find("im2col"), std::string::npos);
  EXPECT_NE(Softmax.find("softmax_cuda"), std::string::npos);
}

TEST(CallStackTest, MixedLanguageOrdering) {
  CallStackBuilder Builder;
  Builder.setPythonStack({"python_frame"});
  CrossLayerStack Stack = Builder.capture("whatever_kernel");
  // C++ frames first (innermost), then Python frames.
  ASSERT_GE(Stack.Frames.size(), 3u);
  EXPECT_EQ(Stack.Frames.front().Language, StackFrame::Lang::Cpp);
  bool SawPython = false;
  for (const StackFrame &Frame : Stack.Frames)
    if (Frame.Language == StackFrame::Lang::Python)
      SawPython = true;
  EXPECT_TRUE(SawPython);
}

//===----------------------------------------------------------------------===//
// ToolRegistry
//===----------------------------------------------------------------------===//

TEST(ToolRegistryTest, CreateUnknownReturnsNull) {
  EXPECT_EQ(ToolRegistry::instance().create("definitely_not_registered"),
            nullptr);
}

TEST(ToolRegistryTest, RegisterAndCreate) {
  ToolRegistry::instance().registerTool("test_recording_tool", [] {
    return std::make_unique<RecordingTool>();
  });
  auto Tool = ToolRegistry::instance().create("test_recording_tool");
  ASSERT_NE(Tool, nullptr);
  EXPECT_EQ(Tool->name(), "recording");
}
