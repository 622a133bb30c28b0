//===- tests/pasta_handler_test.cpp - normalization tests -----------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The core cross-vendor claim: whatever the source (Sanitizer callbacks,
// ROCprofiler records, DL framework callbacks), the event handler emits
// the same normalized Events.
//
//===----------------------------------------------------------------------===//

#include "cuda/CudaRuntime.h"
#include "dl/Callbacks.h"
#include "hip/HipRuntime.h"
#include "pasta/EventHandler.h"
#include "pasta/EventProcessor.h"
#include "sim/System.h"

#include <gtest/gtest.h>

using namespace pasta;

namespace {

class CollectTool : public Tool {
public:
  std::string name() const override { return "collect"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.KernelTrace = true;
    Sub.CapturesStacks = true;
    return Sub;
  }
  void onEvent(const Event &E) override { Events.push_back(E); }
  std::vector<Event> Events;
};

sim::KernelDesc simpleKernel(sim::DeviceAddr Base) {
  sim::KernelDesc Desc;
  Desc.Name = "k";
  Desc.Grid = {4, 1, 1};
  Desc.Block = {64, 1, 1};
  sim::AccessSegment Seg;
  Seg.Base = Base;
  Seg.Extent = 1 * MiB;
  Seg.AccessBytes = 1 * MiB;
  Desc.Segments.push_back(Seg);
  return Desc;
}

/// Runs the identical alloc/launch/free sequence through either vendor
/// runtime and returns the normalized events.
std::vector<Event> runSequence(bool Amd) {
  sim::System System(Amd ? sim::mi300xSpec() : sim::a100Spec());
  EventProcessor Processor(2);
  CollectTool Tool;
  Processor.addTool(&Tool);
  EventHandler Handler(Processor);

  if (Amd) {
    hip::HipRuntime Runtime(System);
    Handler.attachHip(Runtime, 0);
    sim::DeviceAddr Ptr = 0;
    Runtime.hipMalloc(&Ptr, 4 * MiB);
    Runtime.hipLaunchKernel(simpleKernel(Ptr));
    Runtime.hipMemcpy(Ptr, 2 * MiB, hip::HipMemcpyKind::DeviceToHost);
    Runtime.hipFree(Ptr);
    Handler.detach(); // before the runtime dies
  } else {
    cuda::CudaRuntime Runtime(System);
    Handler.attachCuda(Runtime, 0);
    sim::DeviceAddr Ptr = 0;
    Runtime.cudaMalloc(&Ptr, 4 * MiB);
    Runtime.cudaLaunchKernel(simpleKernel(Ptr));
    Runtime.cudaMemcpy(Ptr, 2 * MiB, cuda::CudaMemcpyKind::DeviceToHost);
    Runtime.cudaFree(Ptr);
    Handler.detach(); // before the runtime dies
  }
  return Tool.Events;
}

std::vector<EventKind> kinds(const std::vector<Event> &Events) {
  std::vector<EventKind> Out;
  for (const Event &E : Events)
    Out.push_back(E.Kind);
  return Out;
}

} // namespace

TEST(HandlerNormalizationTest, CudaSequenceEventKinds) {
  auto Events = runSequence(/*Amd=*/false);
  auto Kinds = kinds(Events);
  ASSERT_EQ(Kinds.size(), 5u);
  EXPECT_EQ(Kinds[0], EventKind::MemoryAlloc);
  EXPECT_EQ(Kinds[1], EventKind::KernelLaunch);
  EXPECT_EQ(Kinds[2], EventKind::KernelComplete);
  EXPECT_EQ(Kinds[3], EventKind::MemoryCopy);
  EXPECT_EQ(Kinds[4], EventKind::MemoryFree);
}

TEST(HandlerNormalizationTest, AmdSequenceNormalizesToSameShape) {
  auto Cuda = runSequence(false);
  auto Amd = runSequence(true);
  // AMD has no LaunchEnd callback, so drop KernelComplete from the CUDA
  // stream before comparing — everything else must line up.
  std::vector<EventKind> CudaKinds;
  for (const Event &E : Cuda)
    if (E.Kind != EventKind::KernelComplete)
      CudaKinds.push_back(E.Kind);
  EXPECT_EQ(CudaKinds, kinds(Amd));
}

TEST(HandlerNormalizationTest, AmdFreeSizeIsPositive) {
  auto Events = runSequence(true);
  for (const Event &E : Events)
    if (E.Kind == EventKind::MemoryFree) {
      EXPECT_EQ(E.Bytes, 4 * MiB);
      return;
    }
  FAIL() << "no MemoryFree event seen";
}

TEST(HandlerNormalizationTest, AmdTimestampsConvertedToNanoseconds) {
  auto Events = runSequence(true);
  ASSERT_GE(Events.size(), 2u);
  // Timestamps must be monotone non-decreasing in nanoseconds (raw AMD
  // microsecond ticks would still be monotone, but the magnitude check
  // below catches unit mistakes: kernel time >> 1000 ticks).
  for (std::size_t I = 1; I < Events.size(); ++I)
    EXPECT_GE(Events[I].Timestamp, Events[I - 1].Timestamp);
  EXPECT_EQ(Events.back().Timestamp % 1000, 0u)
      << "converted us ticks are whole microseconds";
}

TEST(HandlerNormalizationTest, VendorTagged) {
  for (const Event &E : runSequence(false))
    EXPECT_EQ(E.Vendor, sim::VendorKind::NVIDIA);
  for (const Event &E : runSequence(true))
    EXPECT_EQ(E.Vendor, sim::VendorKind::AMD);
}

TEST(HandlerNormalizationTest, AmdDispatchBecomesKernelLaunch) {
  auto Events = runSequence(true);
  for (const Event &E : Events)
    if (E.Kind == EventKind::KernelLaunch) {
      EXPECT_NE(E.Kernel, nullptr);
      EXPECT_EQ(E.GridId, 1u);
      return;
    }
  FAIL() << "no KernelLaunch from the AMD path";
}

TEST(HandlerNormalizationTest, CopyDirectionNormalized) {
  for (bool Amd : {false, true}) {
    bool Saw = false;
    for (const Event &E : runSequence(Amd))
      if (E.Kind == EventKind::MemoryCopy) {
        EXPECT_EQ(E.Direction, CopyDirection::DeviceToHost);
        EXPECT_EQ(E.Bytes, 2 * MiB);
        Saw = true;
      }
    EXPECT_TRUE(Saw);
  }
}

TEST(HandlerNormalizationTest, DlCallbacksBecomeTensorEvents) {
  EventProcessor Processor(2);
  CollectTool Tool;
  Processor.addTool(&Tool);
  EventHandler Handler(Processor);
  dl::CallbackRegistry Callbacks;
  Handler.attachDl(Callbacks);

  dl::TensorInfo Info;
  Info.Id = 7;
  Info.Address = 0x1000;
  Info.Shape = dl::TensorShape({16});
  dl::MemoryUsageReport Report;
  Report.Tensor = &Info;
  Report.SizeDelta = 64;
  Report.TotalAllocated = 64;
  Callbacks.reportMemoryUsage(Report);
  Report.SizeDelta = -64;
  Report.TotalAllocated = 0;
  Callbacks.reportMemoryUsage(Report);

  ASSERT_EQ(Tool.Events.size(), 2u);
  EXPECT_EQ(Tool.Events[0].Kind, EventKind::TensorAlloc);
  EXPECT_EQ(Tool.Events[0].Bytes, 64u);
  EXPECT_EQ(Tool.Events[1].Kind, EventKind::TensorReclaim);
  EXPECT_EQ(Tool.Events[1].Bytes, 64u)
      << "negative deltas normalize to positive sizes";
}

TEST(HandlerNormalizationTest, RecordFunctionBecomesOperatorEvents) {
  EventProcessor Processor(2);
  CollectTool Tool;
  Processor.addTool(&Tool);
  EventHandler Handler(Processor);
  dl::CallbackRegistry Callbacks;
  Handler.attachDl(Callbacks);

  dl::RecordFunctionData Data;
  Data.OpName = "aten::conv2d";
  Data.LayerName = "features.0";
  Data.IsBegin = true;
  Data.PythonStack = {"f1", "f2"};
  Callbacks.recordFunction(Data);
  Data.IsBegin = false;
  Callbacks.recordFunction(Data);

  ASSERT_EQ(Tool.Events.size(), 2u);
  EXPECT_EQ(Tool.Events[0].Kind, EventKind::OperatorStart);
  EXPECT_EQ(Tool.Events[0].OpName, "aten::conv2d");
  EXPECT_EQ(Tool.Events[0].LayerName, "features.0");
  EXPECT_EQ(Tool.Events[0].PythonStack.size(), 2u);
  EXPECT_EQ(Tool.Events[1].Kind, EventKind::OperatorEnd);
}

TEST(HandlerNormalizationTest, DetachStopsDelivery) {
  sim::System System(sim::a100Spec());
  cuda::CudaRuntime Runtime(System);
  EventProcessor Processor(2);
  CollectTool Tool;
  Processor.addTool(&Tool);
  EventHandler Handler(Processor);
  Handler.attachCuda(Runtime, 0);
  sim::DeviceAddr Ptr = 0;
  Runtime.cudaMalloc(&Ptr, 1 * MiB);
  std::size_t Before = Tool.Events.size();
  Handler.detach();
  Runtime.cudaFree(Ptr);
  EXPECT_EQ(Tool.Events.size(), Before);
}

TEST(HandlerNormalizationTest, NvbitBackendRejectedOnAmd) {
  sim::System System(sim::mi300xSpec());
  hip::HipRuntime Runtime(System);
  EventProcessor Processor(2);
  EventHandler Handler(Processor);
  TraceOptions Opts;
  Opts.Backend = TraceBackend::NvbitCpu;
  EXPECT_DEATH(Handler.attachHip(Runtime, 0, Opts), "NVIDIA-only");
}

TEST(HandlerNormalizationTest, BackendNames) {
  EXPECT_STREQ(traceBackendName(TraceBackend::SanitizerGpu), "CS-GPU");
  EXPECT_STREQ(traceBackendName(TraceBackend::SanitizerCpu), "CS-CPU");
  EXPECT_STREQ(traceBackendName(TraceBackend::NvbitCpu), "NVBIT-CPU");
}
