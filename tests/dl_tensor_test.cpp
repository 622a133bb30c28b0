//===- tests/dl_tensor_test.cpp - tensor/shape/profiler misc tests --------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dl/Models.h"
#include "dl/Tensor.h"
#include "tests/TestSession.h"

#include <gtest/gtest.h>

using namespace pasta;
using namespace pasta::dl;
using pasta::test::buildSession;

//===----------------------------------------------------------------------===//
// TensorShape / TensorInfo
//===----------------------------------------------------------------------===//

TEST(TensorShapeTest, NumelAndRank) {
  TensorShape Shape({2, 3, 4});
  EXPECT_EQ(Shape.rank(), 3u);
  EXPECT_EQ(Shape.numel(), 24u);
  EXPECT_EQ(Shape.dim(1), 3);
}

TEST(TensorShapeTest, EmptyShapeIsScalar) {
  TensorShape Shape;
  EXPECT_EQ(Shape.rank(), 0u);
  EXPECT_EQ(Shape.numel(), 1u);
}

TEST(TensorShapeTest, ZeroDimension) {
  TensorShape Shape({4, 0, 2});
  EXPECT_EQ(Shape.numel(), 0u);
}

TEST(TensorShapeTest, StringRendering) {
  EXPECT_EQ(TensorShape({16, 3, 224, 224}).str(), "[16, 3, 224, 224]");
  EXPECT_EQ(TensorShape({}).str(), "[]");
}

TEST(TensorInfoTest, BytesFollowDtype) {
  TensorInfo Info;
  Info.Shape = TensorShape({10});
  Info.Type = DataType::F32;
  EXPECT_EQ(Info.bytes(), 40u);
  Info.Type = DataType::F16;
  EXPECT_EQ(Info.bytes(), 20u);
  Info.Type = DataType::I64;
  EXPECT_EQ(Info.bytes(), 80u);
}

TEST(TensorInfoTest, RoleNames) {
  EXPECT_STREQ(tensorRoleName(TensorRole::Weight), "weight");
  EXPECT_STREQ(tensorRoleName(TensorRole::Workspace), "workspace");
  EXPECT_STREQ(tensorRoleName(TensorRole::Gradient), "gradient");
}

//===----------------------------------------------------------------------===//
// Table II event-kind coverage (exhaustive)
//===----------------------------------------------------------------------===//

TEST(TableIITest, EveryEventKindHasNameAndLevel) {
  for (int Raw = 0; Raw <= static_cast<int>(EventKind::CustomRegion);
       ++Raw) {
    EventKind Kind = static_cast<EventKind>(Raw);
    EXPECT_NE(eventKindName(Kind), nullptr);
    EXPECT_STRNE(eventKindName(Kind), "");
    EventLevel Level = eventLevel(Kind);
    EXPECT_TRUE(Level == EventLevel::HostApi ||
                Level == EventLevel::DeviceOp ||
                Level == EventLevel::DlFramework);
  }
}

TEST(TableIITest, AllThreeLevelsPopulated) {
  int Counts[3] = {0, 0, 0};
  for (int Raw = 0; Raw <= static_cast<int>(EventKind::CustomRegion);
       ++Raw)
    ++Counts[static_cast<int>(eventLevel(static_cast<EventKind>(Raw)))];
  EXPECT_GE(Counts[0], 8) << "coarse host-API events";
  EXPECT_GE(Counts[1], 3) << "device-side operations";
  EXPECT_GE(Counts[2], 5) << "DL framework events";
}

//===----------------------------------------------------------------------===//
// Profiler lifecycle
//===----------------------------------------------------------------------===//

namespace {

class LifecycleTool : public Tool {
public:
  std::string name() const override { return "lifecycle"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.KernelTrace = true;
    Sub.CapturesStacks = true;
    return Sub;
  }
  void onStart() override { ++Starts; }
  void onFinish() override { ++Finishes; }
  int Starts = 0, Finishes = 0;
};

} // namespace

TEST(ProfilerLifecycleTest, StartAndFinishFireOnce) {
  auto Owned = std::make_unique<LifecycleTool>();
  LifecycleTool *Raw = Owned.get();
  {
    SessionBuilder Builder;
    auto S = buildSession(Builder);
    S->addTool(std::move(Owned));
    EXPECT_EQ(Raw->Starts, 1);
    S->finish();
    S->finish(); // idempotent
    EXPECT_EQ(Raw->Finishes, 1);
  }
}

TEST(ProfilerLifecycleTest, DestructorFinishes) {
  {
    SessionBuilder Builder;
    auto S = buildSession(Builder);
    S->addTool(std::make_unique<LifecycleTool>());
    // No explicit finish: the destructor must call it while the tool is
    // still alive (the session owns the tool; ASan flags a use after
    // free).
  }
  SUCCEED();
}

TEST(ProfilerLifecycleTest, UnknownToolNameReturnsNull) {
  SessionBuilder Builder;
  auto S = buildSession(Builder);
  EXPECT_EQ(S->addToolByName("no_such_tool"), nullptr);
  EXPECT_TRUE(S->tools().empty());
}

//===----------------------------------------------------------------------===//
// Workload harness
//===----------------------------------------------------------------------===//

TEST(WorkloadHarnessTest, NativeRunTimePositiveAndStable) {
  auto NativeRunTime = [] {
    SessionBuilder Builder;
    return buildSession(Builder.model("resnet18").iterations(1))
        ->run()
        .Stats.wallTime();
  };
  SimTime A = NativeRunTime();
  SimTime B = NativeRunTime();
  EXPECT_GT(A, 0u);
  EXPECT_EQ(A, B);
}

TEST(WorkloadHarnessTest, AmdGpuSelectsHipPath) {
  SessionBuilder Builder;
  Builder.tool("working_set")
      .backend("cs-gpu")
      .gpu("MI300X")
      .model("resnet18")
      .iterations(1)
      .recordGranularity(65536);
  SessionResult Result = buildSession(Builder)->run();
  EXPECT_GT(Result.Stats.KernelsLaunched, 0u);
}

TEST(WorkloadHarnessTest, IterationOverrideRespected) {
  SessionBuilder Builder;
  Builder.model("bert").iterations(2);
  std::uint64_t Two = buildSession(Builder)->run().ProgramKernels;
  Builder.iterations(1);
  std::uint64_t One = buildSession(Builder)->run().ProgramKernels;
  EXPECT_EQ(Two, 2 * One);
}
