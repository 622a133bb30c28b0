//===- tests/tools_test.cpp - case-study tool tests -----------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "support/Env.h"
#include "support/ReportSink.h"
#include "support/Units.h"
#include "tests/TestSession.h"
#include "tools/ExtensionTools.h"
#include "tools/HotnessTool.h"
#include "tools/KernelFrequencyTool.h"
#include "tools/MemUsageTimelineTool.h"
#include "tools/RegisterTools.h"
#include "tools/WorkingSetTool.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <vector>

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

//===----------------------------------------------------------------------===//
// Run-coalesced record reducers against a per-record reference
//===----------------------------------------------------------------------===//

namespace {

constexpr std::uint64_t HotBlock = 2 * MiB;

/// Brute-force model of working_set and hotness: resolves every record
/// on its own. An address belongs to the interval with the greatest base
/// at or below it if it lies below that interval's end; tensors are
/// tried before raw allocations, and an object based at 0 is not
/// counted. Sizes share one base-keyed map, as in the tool.
class PerRecordReference {
public:
  explicit PerRecordReference(std::uint32_t WindowKernels)
      : WindowKernels(WindowKernels) {}

  void apply(const Event &E) {
    switch (E.Kind) {
    case EventKind::MemoryAlloc:
      AllocEnds[E.Address] = E.Address + E.Bytes;
      Sizes[E.Address] = E.Bytes;
      break;
    case EventKind::MemoryFree:
      if (AllocEnds.erase(E.Address))
        Sizes.erase(E.Address);
      break;
    case EventKind::TensorAlloc:
      if (E.Address != 0 && E.Bytes != 0) {
        TensorEnds[E.Address] = E.Address + E.Bytes;
        Sizes[E.Address] = E.Bytes;
      }
      break;
    case EventKind::TensorReclaim:
      if (TensorEnds.erase(E.Address))
        Sizes.erase(E.Address);
      break;
    case EventKind::KernelLaunch:
      Counts.clear();
      SeenAddresses.clear();
      Current = {};
      Window = Launches++ / WindowKernels;
      break;
    default:
      break;
    }
  }

  void records(const std::vector<sim::MemAccessRecord> &Batch) {
    for (const sim::MemAccessRecord &R : Batch) {
      Heatmap[{R.Address / HotBlock * HotBlock, Window}] += R.Multiplicity;
      if (sim::DeviceAddr Base = resolve(R.Address))
        Counts[Base] += R.Multiplicity;
      // redundant_load: the first access to an address in a launch is
      // useful, every later one redundant; a multiplicity-0 record is no
      // access at all.
      Current.Accesses += R.Multiplicity;
      if (R.Multiplicity != 0)
        Current.Redundant += SeenAddresses.insert(R.Address).second
                                 ? R.Multiplicity - 1
                                 : R.Multiplicity;
    }
  }

  void kernelEnd(std::uint64_t GridId) {
    Current.GridId = GridId;
    Redundancy.push_back(Current);
    Current = {};
    SeenAddresses.clear();

    WorkingSetTool::KernelRecord K;
    for (const auto &[Base, Count] : Counts) {
      auto It = Sizes.find(Base);
      std::uint64_t Bytes = It == Sizes.end() ? 0 : It->second;
      K.FootprintBytes += Bytes;
      K.References += Count;
      K.Spans.emplace_back(Base, Bytes);
    }
    Counts.clear();
    Kernels.push_back(std::move(K));
  }

  std::vector<WorkingSetTool::KernelRecord> Kernels;
  std::map<std::pair<sim::DeviceAddr, std::uint32_t>, std::uint64_t> Heatmap;
  std::vector<RedundantLoadTool::KernelRedundancy> Redundancy;

private:
  sim::DeviceAddr resolve(sim::DeviceAddr Addr) const {
    for (const auto *Ends : {&TensorEnds, &AllocEnds}) {
      auto It = Ends->upper_bound(Addr);
      if (It != Ends->begin() && Addr < std::prev(It)->second)
        return std::prev(It)->first;
    }
    return 0;
  }

  std::uint32_t WindowKernels;
  std::uint32_t Launches = 0;
  std::uint32_t Window = 0;
  std::map<sim::DeviceAddr, sim::DeviceAddr> TensorEnds;
  std::map<sim::DeviceAddr, sim::DeviceAddr> AllocEnds;
  std::map<sim::DeviceAddr, std::uint64_t> Sizes;
  std::map<sim::DeviceAddr, std::uint64_t> Counts;
  std::set<sim::DeviceAddr> SeenAddresses;
  RedundantLoadTool::KernelRedundancy Current;
};

Event objectEvent(EventKind Kind, sim::DeviceAddr Address,
                  std::uint64_t Bytes) {
  Event E;
  E.Kind = Kind;
  E.Address = Address;
  E.Bytes = Bytes;
  return E;
}

// Object layout. Block 0 holds a raw allocation at address 0 (never
// counted by working_set) and one right after it. A pool segment holds a
// tensor at its own base, a tensor with another nested inside it, and a
// tensor that is freed and allocated again at the same base with another
// size; the rest of the segment is outside every tensor. Two adjacent
// raw allocations are followed by a gap, then one more allocation.
constexpr sim::DeviceAddr Pool = 4 * MiB;
constexpr sim::DeviceAddr PoolBytes = 8 * MiB;
constexpr sim::DeviceAddr Outer = 6 * MiB;
constexpr sim::DeviceAddr Inner = Outer + MiB / 2;
constexpr sim::DeviceAddr Reused = 9 * MiB;
constexpr sim::DeviceAddr AllocA = 16 * MiB;
constexpr sim::DeviceAddr AllocB = AllocA + MiB;
constexpr sim::DeviceAddr AllocC = 18 * MiB;
constexpr sim::DeviceAddr Unmapped = sim::DeviceAddr{0x7f} << 40;

/// Address ranges the generated records sweep; several cross an object
/// edge or lie partly or wholly outside every object.
const std::vector<std::pair<sim::DeviceAddr, sim::DeviceAddr>> SweepRanges = {
    {0, 2 * MiB},
    {Pool, Pool + MiB},
    {Outer, Outer + 2 * MiB},
    {Inner, Inner + MiB / 4},
    {Reused, Reused + MiB},
    {Pool + 6 * MiB, Pool + PoolBytes},
    {Pool + 7 * MiB, Pool + PoolBytes + MiB},
    {AllocB - MiB / 16, AllocB + MiB},
    {AllocC, AllocC + MiB / 4},
    {Unmapped, Unmapped + 4 * MiB},
};

/// Seeded record batches in the three shapes that matter to a
/// run-coalescing reducer: sweeps (long runs, as the device generator
/// emits them), a different range on every record, and unmapped
/// addresses. Multiplicities are random; one segment in eight has
/// multiplicity 0 throughout, which still makes its objects touched.
class BatchGenerator {
public:
  explicit BatchGenerator(std::uint64_t Seed) : Rng(Seed) {}

  std::vector<sim::MemAccessRecord> next() {
    std::vector<sim::MemAccessRecord> Batch;
    for (int Segments = pick(1, 6); Segments > 0; --Segments) {
      std::size_t Records = static_cast<std::size_t>(pick(1, 700));
      ZeroSegment = pick(0, 7) == 0;
      switch (pick(0, 3)) {
      case 0: { // interleaved: a different range on every record
        std::size_t First = static_cast<std::size_t>(pick(0, 9));
        for (std::size_t I = 0; I < Records; ++I) {
          const auto &[Lo, Hi] =
              SweepRanges[(First + I) % SweepRanges.size()];
          push(Batch, Lo + offset(Hi - Lo));
        }
        break;
      }
      case 1: // unmapped
        for (std::size_t I = 0; I < Records; ++I)
          push(Batch, Unmapped + offset(4096 * MiB));
        break;
      default: { // a sweep, as Device::generateTrace emits a segment
        const auto &[Lo, Hi] = SweepRanges[static_cast<std::size_t>(
            pick(0, static_cast<int>(SweepRanges.size()) - 1))];
        sim::DeviceAddr Stride = std::max<sim::DeviceAddr>(
            32, (Hi - Lo) / Records / 32 * 32);
        for (std::size_t I = 0; I < Records; ++I)
          push(Batch, Lo + I * Stride + offset(Stride));
        break;
      }
      }
    }
    return Batch;
  }

  int pick(int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  }

private:
  sim::DeviceAddr offset(sim::DeviceAddr Span) {
    return std::uniform_int_distribution<sim::DeviceAddr>(0, Span - 1)(Rng) /
           32 * 32;
  }

  void push(std::vector<sim::MemAccessRecord> &Batch, sim::DeviceAddr Addr) {
    sim::MemAccessRecord R;
    R.Address = Addr;
    R.Bytes = 32;
    R.Multiplicity = ZeroSegment ? 0 : static_cast<std::uint32_t>(pick(1, 256));
    Batch.push_back(R);
  }

  std::mt19937_64 Rng;
  bool ZeroSegment = false;
};

void expectSameKernels(const std::vector<WorkingSetTool::KernelRecord> &Got,
                       const std::vector<WorkingSetTool::KernelRecord> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (std::size_t I = 0; I < Got.size(); ++I) {
    SCOPED_TRACE("kernel " + std::to_string(I));
    EXPECT_EQ(Got[I].FootprintBytes, Want[I].FootprintBytes);
    EXPECT_EQ(Got[I].References, Want[I].References);
    EXPECT_EQ(Got[I].Spans, Want[I].Spans);
  }
}

} // namespace

TEST_F(ToolsTest, RecordReducersMatchPerRecordReference) {
  // Both working_set modes and hotness count each run of records once,
  // and redundant_load folds each batch per address; their results must
  // equal a reference that resolves every record.
  for (std::uint64_t Seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    EventProcessor Processor;
    WorkingSetTool Device(WsAnalysisMode::DeviceResident);
    WorkingSetTool Host(WsAnalysisMode::HostSide);
    HotnessTool Hot;
    Hot.setWindowKernels(2);
    RedundantLoadTool Redundant;
    Processor.addTool(&Device);
    Processor.addTool(&Host);
    Processor.addTool(&Hot);
    Processor.addTool(&Redundant);
    PerRecordReference Reference(2);
    auto Send = [&](const Event &E) {
      Processor.process(E);
      Reference.apply(E);
    };
    // Reallocates the reused tensor at its base with another size.
    std::uint64_t ReusedBytes = MiB / 2;
    auto Reallocate = [&] {
      Send(objectEvent(EventKind::TensorReclaim, Reused, ReusedBytes));
      ReusedBytes = ReusedBytes == MiB / 2 ? MiB : MiB / 2;
      Send(objectEvent(EventKind::TensorAlloc, Reused, ReusedBytes));
    };

    Send(objectEvent(EventKind::MemoryAlloc, 0, MiB));
    Send(objectEvent(EventKind::MemoryAlloc, MiB, MiB));
    Send(objectEvent(EventKind::MemoryAlloc, Pool, PoolBytes));
    Send(objectEvent(EventKind::TensorAlloc, Pool, MiB));
    Send(objectEvent(EventKind::TensorAlloc, Outer, 2 * MiB));
    Send(objectEvent(EventKind::TensorAlloc, Inner, MiB / 4));
    Send(objectEvent(EventKind::TensorAlloc, Reused, ReusedBytes));
    Send(objectEvent(EventKind::MemoryAlloc, AllocA, MiB));
    Send(objectEvent(EventKind::MemoryAlloc, AllocB, MiB / 2));
    Send(objectEvent(EventKind::MemoryAlloc, AllocC, MiB / 4));

    BatchGenerator Gen(Seed);
    for (std::uint64_t Grid = 1; Grid <= 12; ++Grid) {
      if (Grid % 4 == 0) {
        Send(objectEvent(EventKind::MemoryFree, AllocC, MiB / 4));
        Send(objectEvent(EventKind::MemoryAlloc, AllocC, MiB / 8));
      }
      Event Launch;
      Launch.Kind = EventKind::KernelLaunch;
      Launch.GridId = Grid;
      Send(Launch);
      sim::LaunchInfo Info;
      Info.GridId = Grid;
      for (int Batches = Gen.pick(1, 3); Batches > 0; --Batches) {
        std::vector<sim::MemAccessRecord> Batch = Gen.next();
        Processor.onAccessBatch(Info, Batch.data(), Batch.size());
        Reference.records(Batch);
        Reallocate(); // between two batches of one kernel
      }
      Processor.onKernelEnd(Info, sim::TraceTimeBreakdown{});
      Reference.kernelEnd(Grid);
    }

    ASSERT_GT(Reference.Heatmap.count({0, 0}), 0u) << "block 0 unused";
    {
      SCOPED_TRACE("working_set (GPU-resident)");
      expectSameKernels(Device.kernels(), Reference.Kernels);
    }
    {
      SCOPED_TRACE("working_set (host-side)");
      expectSameKernels(Host.kernels(), Reference.Kernels);
    }
    EXPECT_EQ(Hot.heatmap(), Reference.Heatmap);
    const auto &Got = Redundant.kernels();
    ASSERT_EQ(Got.size(), Reference.Redundancy.size());
    for (std::size_t I = 0; I < Got.size(); ++I) {
      SCOPED_TRACE("redundant_load kernel " + std::to_string(I));
      EXPECT_EQ(Got[I].GridId, Reference.Redundancy[I].GridId);
      EXPECT_EQ(Got[I].Accesses, Reference.Redundancy[I].Accesses);
      EXPECT_EQ(Got[I].Redundant, Reference.Redundancy[I].Redundant);
    }
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
