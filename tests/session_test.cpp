//===- tests/session_test.cpp - Session API / backends / negotiation ------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dl/Models.h"
#include "pasta/Backend.h"
#include "pasta/Session.h"
#include "support/ReportSink.h"
#include "tools/KernelFrequencyTool.h"
#include "tools/RegisterTools.h"
#include "tools/WorkingSetTool.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pasta;

namespace {

/// Consumes only coarse events — capability negotiation must keep every
/// fine-grained instrumentation path disabled for it.
class CoarseOnlyTool : public Tool {
public:
  std::string name() const override { return "coarse_only"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.KernelTrace = true;
    return Sub;
  }
  void onKernelLaunch(const Event &) override { ++KernelLaunches; }

  int KernelLaunches = 0;
};

/// Overrides the host-side record hook (no device analysis).
class HostRecordsTool : public Tool {
public:
  std::string name() const override { return "host_records"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.AccessRecords = true;
    Sub.KernelTrace = true;
    return Sub;
  }
  void onAccessBatch(const sim::LaunchInfo &, const sim::MemAccessRecord *,
                     std::size_t Count) override {
    Records += Count;
  }

  std::uint64_t Records = 0;
};

//===----------------------------------------------------------------------===
// Tool::requirements (derived from the declared subscription)
//===----------------------------------------------------------------------===

TEST(ToolRequirements, CoarseOnlyToolNeedsNoInstrumentation) {
  CoarseOnlyTool T;
  CapabilitySet Req = T.requirements();
  EXPECT_TRUE(Req.has(Capability::CoarseEvents));
  EXPECT_FALSE(Req.has(Capability::AccessRecords));
  EXPECT_FALSE(Req.has(Capability::InstrMix));
  // Deriving requirements calls no hook — no state changed.
  EXPECT_EQ(T.KernelLaunches, 0);
}

TEST(ToolRequirements, AccessBatchOverrideRequestsRecords) {
  HostRecordsTool T;
  CapabilitySet Req = T.requirements();
  EXPECT_TRUE(Req.has(Capability::AccessRecords));
  EXPECT_FALSE(Req.has(Capability::InstrMix));
  EXPECT_EQ(T.Records, 0u);
}

TEST(ToolRequirements, DeviceAnalysisRequestsRecords) {
  tools::WorkingSetTool T(tools::WsAnalysisMode::DeviceResident);
  EXPECT_TRUE(T.requirements().has(Capability::AccessRecords));
}

TEST(ToolRequirements, BuiltinKernelFrequencyIsCoarseOnly) {
  tools::KernelFrequencyTool T;
  CapabilitySet Req = T.requirements();
  EXPECT_TRUE(Req.has(Capability::CoarseEvents));
  EXPECT_FALSE(Req.has(Capability::AccessRecords));
  EXPECT_FALSE(Req.has(Capability::InstrMix));
}

TEST(ToolRequirements, InstructionMixToolRequestsInstrMix) {
  tools::registerBuiltinTools();
  std::unique_ptr<Tool> T =
      ToolRegistry::instance().create("instruction_mix");
  ASSERT_NE(T, nullptr);
  EXPECT_TRUE(T->requirements().has(Capability::InstrMix));
}

//===----------------------------------------------------------------------===
// CapabilitySet
//===----------------------------------------------------------------------===

TEST(CapabilitySet, SetAlgebraAndNames) {
  CapabilitySet A{Capability::CoarseEvents, Capability::AccessRecords};
  CapabilitySet B{Capability::AccessRecords, Capability::InstrMix};
  EXPECT_TRUE((A & B).has(Capability::AccessRecords));
  EXPECT_FALSE((A & B).has(Capability::CoarseEvents));
  EXPECT_TRUE((A | B).has(Capability::InstrMix));
  EXPECT_EQ(A.minus(B), CapabilitySet(Capability::CoarseEvents));
  EXPECT_EQ(A.str(), "coarse-events|access-records");
  EXPECT_EQ(CapabilitySet().str(), "none");
  EXPECT_TRUE(CapabilitySet::all().has(Capability::UvmCounters));
}

//===----------------------------------------------------------------------===
// BackendRegistry
//===----------------------------------------------------------------------===

TEST(BackendRegistry, ResolvesPerVendorAdapters) {
  SessionError Err;
  auto Nvidia = BackendRegistry::instance().create(
      "cs-gpu", sim::VendorKind::NVIDIA, Err);
  ASSERT_NE(Nvidia, nullptr);
  EXPECT_EQ(Nvidia->name(), "cs-gpu");
  EXPECT_EQ(Nvidia->vendor(), sim::VendorKind::NVIDIA);
  EXPECT_TRUE(Nvidia->capabilities().has(Capability::AccessRecords));

  auto Amd = BackendRegistry::instance().create("cs-gpu",
                                                sim::VendorKind::AMD, Err);
  ASSERT_NE(Amd, nullptr);
  EXPECT_EQ(Amd->vendor(), sim::VendorKind::AMD);
  EXPECT_TRUE(Err.ok());
}

TEST(BackendRegistry, NvbitIsNvidiaOnly) {
  SessionError Err;
  auto Nvbit = BackendRegistry::instance().create(
      "nvbit-cpu", sim::VendorKind::NVIDIA, Err);
  ASSERT_NE(Nvbit, nullptr);
  EXPECT_TRUE(Nvbit->capabilities().has(Capability::InstrMix));

  auto Rejected = BackendRegistry::instance().create(
      "nvbit-cpu", sim::VendorKind::AMD, Err);
  EXPECT_EQ(Rejected, nullptr);
  EXPECT_FALSE(Err.ok());
  EXPECT_NE(Err.message().find("NVIDIA-only"), std::string::npos);
}

TEST(BackendRegistry, UnknownNameListsRegisteredBackends) {
  SessionError Err;
  auto B = BackendRegistry::instance().create("warp-scope",
                                              sim::VendorKind::NVIDIA, Err);
  EXPECT_EQ(B, nullptr);
  EXPECT_FALSE(Err.ok());
  EXPECT_NE(Err.message().find("unknown backend 'warp-scope'"),
            std::string::npos);
  EXPECT_NE(Err.message().find("cs-gpu"), std::string::npos);
  EXPECT_NE(Err.message().find("nvbit-cpu"), std::string::npos);
}

TEST(BackendRegistry, NamesAreSorted) {
  std::vector<std::string> Names =
      BackendRegistry::instance().registeredNames();
  ASSERT_GE(Names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(Names.begin(), Names.end()));
}

//===----------------------------------------------------------------------===
// ToolRegistry diagnostics
//===----------------------------------------------------------------------===

TEST(ToolRegistryDiag, UnknownToolListsSortedNames) {
  tools::registerBuiltinTools();
  SessionError Err;
  std::unique_ptr<Tool> T =
      ToolRegistry::instance().create("definitely_not_a_tool", Err);
  EXPECT_EQ(T, nullptr);
  EXPECT_FALSE(Err.ok());
  EXPECT_NE(Err.message().find("unknown tool 'definitely_not_a_tool'"),
            std::string::npos);
  // A couple of known names, and sortedness of the full listing.
  EXPECT_NE(Err.message().find("kernel_frequency"), std::string::npos);
  EXPECT_NE(Err.message().find("working_set"), std::string::npos);
  EXPECT_LT(Err.message().find("hotness"),
            Err.message().find("working_set"));
}

//===----------------------------------------------------------------------===
// SessionBuilder validation
//===----------------------------------------------------------------------===

TEST(SessionBuilder, UnknownToolFailsWithDiagnostic) {
  SessionError Err;
  auto S = SessionBuilder().tool("no_such_tool").model("bert").build(Err);
  EXPECT_EQ(S, nullptr);
  EXPECT_NE(Err.message().find("registered tools"), std::string::npos);
}

TEST(SessionBuilder, UnknownGpuAndModelFail) {
  SessionError Err;
  EXPECT_EQ(SessionBuilder().gpu("H100").build(Err), nullptr);
  EXPECT_NE(Err.message().find("known GPUs"), std::string::npos);

  SessionError Err2;
  EXPECT_EQ(SessionBuilder().model("llama").build(Err2), nullptr);
  EXPECT_NE(Err2.message().find("model zoo"), std::string::npos);
}

TEST(SessionBuilder, ParameterRangeValidation) {
  SessionError Err;
  EXPECT_EQ(SessionBuilder().sampleRate(0.0).build(Err), nullptr);
  SessionError Err2;
  EXPECT_EQ(SessionBuilder().sampleRate(1.5).build(Err2), nullptr);
  SessionError Err3;
  EXPECT_EQ(SessionBuilder().deviceCount(0).build(Err3), nullptr);
  SessionError Err4;
  EXPECT_EQ(SessionBuilder().recordGranularity(0).build(Err4), nullptr);
  SessionError Err5;
  EXPECT_EQ(SessionBuilder().iterations(-1).build(Err5), nullptr);
}

TEST(SessionBuilder, NvbitOnAmdGpuFails) {
  SessionError Err;
  auto S = SessionBuilder().backend("nvbit-cpu").gpu("MI300X").build(Err);
  EXPECT_EQ(S, nullptr);
  EXPECT_NE(Err.message().find("NVIDIA-only"), std::string::npos);
}

//===----------------------------------------------------------------------===
// Capability negotiation end-to-end
//===----------------------------------------------------------------------===

TEST(SessionNegotiation, CoarseToolDisablesRecordTracing) {
  SessionError Err;
  auto Coarse = std::make_unique<CoarseOnlyTool>();
  CoarseOnlyTool *CoarseRaw = Coarse.get();
  auto S = SessionBuilder()
               .addTool(std::move(Coarse))
               .backend("cs-gpu")
               .gpu("A100")
               .model("bert")
               .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();

  // The backend could trace records, but no attached tool wants them.
  EXPECT_EQ(S->required(), CapabilitySet(Capability::CoarseEvents));
  EXPECT_EQ(S->negotiated(), CapabilitySet(Capability::CoarseEvents));
  EXPECT_TRUE(S->unsatisfied().empty());

  SessionResult Result = S->run();
  EXPECT_GT(Result.Stats.KernelsLaunched, 0u);
  EXPECT_GT(CoarseRaw->KernelLaunches, 0);

  // No device-side instrumentation ran: the processor saw no record
  // batches and the simulated device generated no sampled records.
  const ProcessorStats &Stats = S->processor().stats();
  EXPECT_EQ(Stats.RecordBatches, 0u);
  EXPECT_EQ(Stats.RecordsDelivered, 0u);
  EXPECT_EQ(S->system().device(0).counters().SampledRecords, 0u);
  EXPECT_EQ(S->system().device(0).counters().RealTracedOps, 0u);
}

TEST(SessionNegotiation, RecordConsumerEnablesTracing) {
  SessionError Err;
  auto S = SessionBuilder()
               .tool("working_set")
               .backend("cs-gpu")
               .gpu("A100")
               .model("bert")
               .recordGranularity(1u << 20)
               .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();
  EXPECT_TRUE(S->negotiated().has(Capability::AccessRecords));

  S->run();
  const ProcessorStats &Stats = S->processor().stats();
  EXPECT_GT(Stats.RecordBatches, 0u);
  EXPECT_GT(Stats.DeviceAnalyzedRecords, 0u);
  EXPECT_GT(S->system().device(0).counters().SampledRecords, 0u);
}

TEST(SessionNegotiation, UnsatisfiedRequirementIsReported) {
  // instruction_mix needs InstrMix, which the Sanitizer backend cannot
  // deliver: the session still runs, with the gap visible to callers.
  SessionError Err;
  auto S = SessionBuilder()
               .tool("instruction_mix")
               .backend("cs-cpu")
               .model("bert")
               .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();
  EXPECT_TRUE(S->unsatisfied().has(Capability::InstrMix));
}

//===----------------------------------------------------------------------===
// Session end-to-end + lifecycle guards
//===----------------------------------------------------------------------===

TEST(Session, WorkingSetOnCsGpuEndToEnd) {
  SessionError Err;
  auto S = SessionBuilder()
               .tool("working_set")
               .backend("cs-gpu")
               .gpu("A100")
               .model("bert")
               .recordGranularity(1u << 20)
               .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();

  SessionResult Result = S->run();
  EXPECT_GT(Result.Stats.KernelsLaunched, 0u);
  EXPECT_GT(Result.ProgramKernels, 0u);

  auto *Ws = S->toolAs<tools::WorkingSetTool>("working_set");
  ASSERT_NE(Ws, nullptr);
  EXPECT_GT(Ws->summary().KernelCount, 0u);
  EXPECT_GT(Ws->summary().WorkingSetBytes, 0u);
}

TEST(Session, CrossVendorSameToolSameCode) {
  for (const char *Gpu : {"A100", "MI300X"}) {
    SessionError Err;
    auto S = SessionBuilder()
                 .tool("kernel_frequency")
                 .backend("cs-gpu")
                 .gpu(Gpu)
                 .model("alexnet")
                 .iterations(1)
                 .build(Err);
    ASSERT_NE(S, nullptr) << Gpu << ": " << Err.message();
    SessionResult Result = S->run();
    EXPECT_GT(Result.Stats.KernelsLaunched, 0u) << Gpu;
    auto *Freq = S->toolAs<tools::KernelFrequencyTool>("kernel_frequency");
    EXPECT_GT(Freq->totalLaunches(), 0u) << Gpu;
  }
}

TEST(Session, ToolAsIsACheckedCast) {
  // Regression: toolAs<T> used to static_cast whatever tool the name
  // lookup returned; a type mismatch was silent UB. It must be a
  // checked cast that returns null instead.
  SessionError Err;
  auto S = SessionBuilder()
               .tool("kernel_frequency")
               .model("alexnet")
               .iterations(1)
               .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();

  EXPECT_NE(S->toolAs<tools::KernelFrequencyTool>("kernel_frequency"),
            nullptr);
  // Right name, wrong type: null, not a reinterpreted pointer.
  EXPECT_EQ(S->toolAs<tools::WorkingSetTool>("kernel_frequency"), nullptr);
  // Unknown name stays null through the typed variant too.
  EXPECT_EQ(S->toolAs<tools::WorkingSetTool>("no_such_tool"), nullptr);
}

TEST(Session, FinishIsIdempotentAndReportsStaySafe) {
  SessionError Err;
  auto S = SessionBuilder()
               .tool("kernel_frequency")
               .model("alexnet")
               .iterations(1)
               .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();
  S->run(); // run() already finishes the session.
  S->finish();
  S->finish();

  JsonReportSink Sink;
  S->writeReports(Sink);
  EXPECT_NE(Sink.str().find("kernel_frequency"), std::string::npos);
}

TEST(Profiler, FinishThenWriteReportsIsSafe) {
  SessionError Err;
  auto S = SessionBuilder().build(Err);
  ASSERT_NE(S, nullptr) << Err.message();
  S->addToolByName("kernel_frequency");
  S->finish();
  S->finish(); // double finish must be a no-op

  // Reports remain writable after (repeated) finish.
  JsonReportSink Sink;
  S->writeReports(Sink);
  EXPECT_NE(Sink.str().find("kernel_frequency"), std::string::npos);
}

TEST(Session, MultiDeviceRunProgram) {
  SessionError Err;
  auto S = SessionBuilder()
               .tool("mem_usage_timeline")
               .gpu("A100")
               .deviceCount(2)
               .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();

  dl::ScheduleBuilder::Options Opts;
  Opts.Iterations = 1;
  dl::Program Prog = dl::buildModelProgram("alexnet", Opts);
  for (int Rank = 0; Rank < 2; ++Rank) {
    dl::RunStats Stats = S->runProgram(Prog, Rank);
    EXPECT_GT(Stats.KernelsLaunched, 0u) << "rank " << Rank;
  }
  S->finish();
}

} // namespace
