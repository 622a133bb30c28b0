//===- tests/integration_test.cpp - end-to-end property sweeps ------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"
#include "tests/TestSession.h"
#include "tools/KernelFrequencyTool.h"
#include "tools/RegisterTools.h"
#include "tools/WorkingSetTool.h"

#include <gtest/gtest.h>

using namespace pasta;
using namespace pasta::tools;
using pasta::test::buildSession;

namespace {

class IntegrationFixture : public ::testing::Test {
protected:
  void SetUp() override { registerBuiltinTools(); }
  void TearDown() override { clearAllEnvOverrides(); }
};

class ModelSweep : public ::testing::TestWithParam<const char *> {
protected:
  void SetUp() override { registerBuiltinTools(); }
  void TearDown() override { clearAllEnvOverrides(); }

  SessionBuilder baseBuilder() {
    SessionBuilder Builder;
    Builder.model(GetParam()).iterations(1).recordGranularity(65536);
    return Builder;
  }
};

} // namespace

TEST_P(ModelSweep, WorkingSetBoundedByFootprint) {
  SessionBuilder Builder = baseBuilder();
  auto S = buildSession(Builder.tool("working_set").backend("cs-gpu"));
  S->run();
  auto Summary = S->toolAs<WorkingSetTool>("working_set")->summary();
  EXPECT_GT(Summary.WorkingSetBytes, 0u);
  EXPECT_LE(Summary.WorkingSetBytes, Summary.PeakFootprintBytes);
}

TEST_P(ModelSweep, BackendOverheadOrdering) {
  // Paper Fig. 9's ordering must hold for every model: native < CS-GPU
  // < CS-CPU < NVBIT-CPU in simulated time.
  auto TimeWith = [&](const std::string &Backend) {
    SessionBuilder Builder = baseBuilder();
    Builder.backend(Backend);
    if (Backend != "none")
      Builder.tool(Backend == "cs-gpu" ? "working_set" : "working_set_host");
    return buildSession(Builder)->run().Stats.wallTime();
  };
  SimTime Native = TimeWith("none");
  SimTime CsGpu = TimeWith("cs-gpu");
  SimTime CsCpu = TimeWith("cs-cpu");
  SimTime Nvbit = TimeWith("nvbit-cpu");
  EXPECT_LT(Native, CsGpu);
  EXPECT_LT(CsGpu * 10, CsCpu) << "GPU-resident analysis must win big";
  EXPECT_LT(CsCpu, Nvbit);
}

TEST_P(ModelSweep, InstrumentationPreservesAnalysisResults) {
  // Sampling at different granularities must not change the identified
  // working set materially (records sweep every segment).
  auto WsWith = [&](std::uint64_t Granularity) {
    SessionBuilder Builder = baseBuilder();
    Builder.tool("working_set").backend("cs-gpu").recordGranularity(
        Granularity);
    auto S = buildSession(Builder);
    S->run();
    return S->toolAs<WorkingSetTool>("working_set")->summary().WorkingSetBytes;
  };
  std::uint64_t Fine = WsWith(16384);
  std::uint64_t Coarse = WsWith(262144);
  EXPECT_EQ(Fine, Coarse);
}

TEST_P(ModelSweep, TrainingFootprintExceedsInference) {
  SessionBuilder Infer = baseBuilder();
  std::uint64_t InferPeak = buildSession(Infer)->run().Stats.PeakReserved;
  SessionBuilder Train = baseBuilder();
  std::uint64_t TrainPeak =
      buildSession(Train.training())->run().Stats.PeakReserved;
  EXPECT_GT(TrainPeak, InferPeak);
}

TEST_P(ModelSweep, CrossVendorKernelCountsComparable) {
  SessionBuilder Nvidia = baseBuilder();
  std::uint64_t NvidiaKernels =
      buildSession(Nvidia.gpu("A100"))->run().Stats.KernelsLaunched;
  SessionBuilder Amd = baseBuilder();
  std::uint64_t AmdKernels =
      buildSession(Amd.gpu("MI300X"))->run().Stats.KernelsLaunched;
  // MIOpen decomposes more finely, but within 2x (Fig. 14's regime).
  EXPECT_GE(AmdKernels, NvidiaKernels);
  EXPECT_LT(AmdKernels, NvidiaKernels * 2);
}

INSTANTIATE_TEST_SUITE_P(Models, ModelSweep,
                         ::testing::Values("alexnet", "resnet18",
                                           "resnet34", "gpt2", "bert",
                                           "whisper"));

//===----------------------------------------------------------------------===//
// Cross-cutting integration checks
//===----------------------------------------------------------------------===//

TEST_F(IntegrationFixture, SampleRateReducesOverheadProportionally) {
  auto TimeWith = [&](double Rate) {
    // A record consumer is attached so negotiation enables tracing.
    SessionBuilder Builder;
    Builder.tool("working_set_host")
        .backend("cs-cpu")
        .model("bert")
        .iterations(1)
        .sampleRate(Rate)
        .recordGranularity(65536);
    return buildSession(Builder)->run().Stats.wallTime();
  };
  SimTime Full = TimeWith(1.0);
  SimTime Tenth = TimeWith(0.1);
  // ACCEL_PROF_ENV_SAMPLE_RATE's purpose: near-linear overhead cut.
  EXPECT_LT(Tenth, Full / 5);
}

TEST_F(IntegrationFixture, GridRangeFilterLimitsAnalysis) {
  setEnvOverride("START_GRID_ID", "10");
  setEnvOverride("END_GRID_ID", "20");
  SessionBuilder Builder;
  auto S = buildSession(
      Builder.tool("kernel_frequency").model("resnet18").iterations(1));
  S->run();
  EXPECT_EQ(S->toolAs<KernelFrequencyTool>("kernel_frequency")
                ->totalLaunches(),
            11u);
}

TEST_F(IntegrationFixture, AnnotationsGateToolVisibility) {
  SessionBuilder Builder;
  auto S = buildSession(
      Builder.tool("kernel_frequency").model("resnet18").iterations(1));
  // Touch the annotation API before the run so only annotated regions
  // count; the run itself never calls start(), so nothing counts.
  S->start();
  S->stop();
  S->run();
  EXPECT_EQ(S->toolAs<KernelFrequencyTool>("kernel_frequency")
                ->totalLaunches(),
            0u);
}

TEST_F(IntegrationFixture, OversubscriptionSlowsExecution) {
  SessionBuilder Builder;
  Builder.model("resnet18").iterations(1).managed();
  SessionResult Free = buildSession(Builder)->run();
  Builder.memoryLimit(Free.Stats.PeakReserved / 3);
  SessionResult Limited = buildSession(Builder)->run();
  EXPECT_GT(Limited.Stats.wallTime(), Free.Stats.wallTime());
  EXPECT_GT(Limited.Uvm.Evictions, Free.Uvm.Evictions);
}

TEST_F(IntegrationFixture, ObjectPrefetchThrashesUnderOversubscription) {
  // Fig. 12's mechanism: object-level prefetching causes more evictions
  // than tensor-level under a 3x-oversubscribed budget.
  SessionBuilder Builder;
  Builder.model("resnet18").iterations(1).managed();
  std::uint64_t Footprint = buildSession(Builder)->run().Stats.PeakReserved;
  Builder.memoryLimit(Footprint / 3);

  SessionResult Object =
      buildSession(Builder.prefetch(PrefetchLevel::Object))->run();
  SessionResult Tensor =
      buildSession(Builder.prefetch(PrefetchLevel::Tensor))->run();
  EXPECT_GT(Object.Uvm.PrefetchedBytes, Tensor.Uvm.PrefetchedBytes);
  EXPECT_GT(Object.Stats.wallTime(), Tensor.Stats.wallTime());
}

TEST_F(IntegrationFixture, PrefetchHelpsWithoutOversubscription) {
  SessionBuilder Builder;
  Builder.model("bert").iterations(1).managed();
  SimTime Base = buildSession(Builder)->run().Stats.wallTime();
  SimTime Prefetched = buildSession(Builder.prefetch(PrefetchLevel::Tensor))
                           ->run()
                           .Stats.wallTime();
  EXPECT_LT(Prefetched, Base) << "Fig. 11: prefetching beats faulting";
}

TEST_F(IntegrationFixture, MultipleToolsShareOneRun) {
  SessionBuilder Builder;
  Builder.tool("kernel_frequency")
      .tool("working_set")
      .backend("cs-gpu")
      .model("resnet18")
      .iterations(1)
      .recordGranularity(65536);
  auto S = buildSession(Builder);
  S->run();
  auto *Freq = S->toolAs<KernelFrequencyTool>("kernel_frequency");
  auto *Ws = S->toolAs<WorkingSetTool>("working_set");
  EXPECT_GT(Freq->totalLaunches(), 0u);
  EXPECT_EQ(Ws->summary().KernelCount, Freq->totalLaunches());
}

TEST_F(IntegrationFixture, SimulatedTimeDeterministicAcrossRuns) {
  auto Run = [&] {
    SessionBuilder Builder;
    Builder.tool("working_set")
        .backend("cs-gpu")
        .model("bert")
        .iterations(1)
        .recordGranularity(65536);
    return buildSession(Builder)->run().Stats.wallTime();
  };
  EXPECT_EQ(Run(), Run());
}
