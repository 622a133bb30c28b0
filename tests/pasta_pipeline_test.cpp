//===- tests/pasta_pipeline_test.cpp - the dispatch unit ------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The dispatch unit: synchronous dispatch under one mutex (concurrent
// producers, per-producer order, the re-entrancy guard), declarative
// subscription routing, and the ignored async knobs. The AsyncPipeline
// tests predate the deletion of the lane pipeline; they now build their
// processors and sessions with the async knobs pastabench still sets and
// pin that those knobs change nothing: delivery, order and tool reports
// match synchronous dispatch.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "pasta/Session.h"
#include "pasta/Validate.h"
#include "support/ReportSink.h"
#include "tools/RegisterTools.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

using namespace pasta;

namespace {

/// Records every delivered event's payload (dispatch is serialized, so
/// no locking needed inside the hooks).
class CollectTool : public Tool {
public:
  std::string name() const override { return "collect"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.KernelTrace = true;
    return Sub;
  }
  void onEvent(const Event &E) override {
    Addresses.push_back(E.Address);
    Kinds.push_back(E.Kind);
  }
  std::vector<sim::DeviceAddr> Addresses;
  std::vector<EventKind> Kinds;
};

/// Counts MemoryCopy deliveries, each taking \c Delay; the producer
/// reads the count after flush().
class CopyCountTool : public Tool {
public:
  std::string name() const override { return "copy_count"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::MemoryCopy};
    Sub.Model = ExecutionModel::Serial;
    return Sub;
  }
  void onMemoryCopy(const Event &) override {
    if (Delay.count() > 0)
      std::this_thread::sleep_for(Delay);
    Copies.fetch_add(1, std::memory_order_relaxed);
  }
  std::chrono::microseconds Delay{0};
  std::atomic<std::uint64_t> Copies{0};
};

Event allocEvent(sim::DeviceAddr Address) {
  Event E;
  E.Kind = EventKind::MemoryAlloc;
  E.Address = Address;
  E.Bytes = 64;
  return E;
}

Event copyEvent(sim::DeviceAddr Address, int Device = 0) {
  Event E;
  E.Kind = EventKind::MemoryCopy;
  E.Address = Address;
  E.Bytes = 64;
  E.DeviceIndex = Device;
  return E;
}

/// The async knobs pastabench still sets. They are ignored: a processor
/// built with them dispatches synchronously like any other.
ProcessorOptions asyncOptions(std::size_t Depth,
                              std::size_t DispatchThreads = 1) {
  ProcessorOptions Opts;
  Opts.AsyncEvents = true;
  Opts.QueueDepth = Depth;
  Opts.DispatchThreads = DispatchThreads;
  return Opts;
}

} // namespace

//===----------------------------------------------------------------------===//
// Delivery and ordering
//===----------------------------------------------------------------------===//

TEST(AsyncPipeline, DeliversEverythingAfterFlush) {
  // Every event is delivered before its process() call returns; flush()
  // has nothing left to wait for.
  EventProcessor Processor(asyncOptions(64));
  CollectTool Tool;
  Processor.addTool(&Tool);

  for (int I = 0; I < 1000; ++I) {
    Processor.process(allocEvent(static_cast<sim::DeviceAddr>(I)));
    ASSERT_EQ(Tool.Addresses.size(), static_cast<std::size_t>(I) + 1);
  }
  Processor.flush();

  ASSERT_EQ(Tool.Addresses.size(), 1000u);
  ProcessorStats Stats = Processor.stats();
  EXPECT_EQ(Stats.EventsProcessed, 1000u);
  EXPECT_EQ(Stats.EventsDropped, 0u);
  EXPECT_EQ(Stats.MaxQueueDepth, 0u);
  EXPECT_EQ(Stats.FlushCount, 0u);
}

TEST(AsyncPipeline, FlushWaitsForTheLastEventOfEveryBurst) {
  // After flush() every admitted event has been delivered. Many short
  // bursts, each followed by a flush, give a barrier that returns one
  // event early many chances to show it.
  EventProcessor Processor(asyncOptions(64));
  CopyCountTool Tool;
  Processor.addTool(&Tool);

  std::mt19937 Rng(20);
  std::uniform_int_distribution<int> BurstSize(4, 16);
  std::uint64_t Sent = 0;
  std::uint64_t LateRounds = 0;
  for (int Round = 0; Round < 20000; ++Round) {
    for (int I = BurstSize(Rng); I > 0; --I)
      Processor.process(copyEvent(Sent++));
    Processor.flush();
    if (Tool.Copies.load(std::memory_order_relaxed) != Sent)
      ++LateRounds;
  }
  EXPECT_EQ(LateRounds, 0u) << "flush() returned before delivery";
}

TEST(AsyncPipeline, FlushReturnsWhileAnotherProducerKeepsAdmitting) {
  // A flush does not wait for the events another thread keeps admitting.
  // The slow tool keeps that producer busy, so a barrier that waits for
  // it to go idle returns only when the producer gives up at its
  // deadline.
  CopyCountTool Tool;
  Tool.Delay = std::chrono::microseconds(20);
  EventProcessor Processor(asyncOptions(64));
  Processor.addTool(&Tool);

  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Admitted{0};
  std::thread Producer([&] {
    for (std::uint64_t Seq = 0; !Stop.load(std::memory_order_relaxed) &&
                                std::chrono::steady_clock::now() < Deadline;
         ++Seq) {
      Processor.process(copyEvent(Seq));
      Admitted.store(Seq + 1, std::memory_order_relaxed);
    }
  });
  while (Admitted.load(std::memory_order_relaxed) < 256 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  Processor.flush();
  const auto Returned = std::chrono::steady_clock::now();
  Stop.store(true, std::memory_order_relaxed);
  Producer.join();

  EXPECT_LT(Returned, Deadline)
      << "flush() waited for the other producer to stop admitting";
  EXPECT_GE(Tool.Copies.load(), 256u);
}

TEST(AsyncPipeline, SynchronizationIsAHardBarrier) {
  EventProcessor Processor(asyncOptions(1024));
  CollectTool Tool;
  Processor.addTool(&Tool);

  for (int I = 0; I < 100; ++I)
    Processor.process(allocEvent(static_cast<sim::DeviceAddr>(I)));
  Event Sync;
  Sync.Kind = EventKind::Synchronization;
  Processor.process(Sync);

  // No flush() call: everything admitted before the Synchronization
  // event, and the event itself, was delivered when process() returned.
  EXPECT_EQ(Tool.Addresses.size(), 101u);
  EXPECT_EQ(Tool.Kinds.back(), EventKind::Synchronization);
}

TEST(AsyncPipeline, QueuedKernelDescOutlivesProducerFrame) {
  EventProcessor Processor(asyncOptions(256));

  class NameTool : public Tool {
  public:
    std::string name() const override { return "names"; }
    Subscription subscription() override {
      Subscription Sub;
      Sub.Kinds = EventKindMask::all();
      Sub.KernelTrace = true;
      return Sub;
    }
    void onKernelLaunch(const Event &E) override {
      Names.push_back(E.Kernel ? E.Kernel->Name : "<null>");
    }
    std::vector<std::string> Names;
  };
  NameTool Tool;
  Processor.addTool(&Tool);

  for (int I = 0; I < 50; ++I) {
    // The descriptor dies as soon as process() returns — exactly what
    // the runtime's launch path does with its stack-allocated descs.
    sim::KernelDesc Transient;
    Transient.Name = "kernel_" + std::to_string(I);
    Event E;
    E.Kind = EventKind::KernelLaunch;
    E.Kernel = &Transient;
    E.GridId = static_cast<std::uint64_t>(I) + 1;
    Processor.process(std::move(E));
  }
  Processor.flush();

  ASSERT_EQ(Tool.Names.size(), 50u);
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(Tool.Names[static_cast<std::size_t>(I)],
              "kernel_" + std::to_string(I));
}

//===----------------------------------------------------------------------===//
// Declarative subscriptions and execution models
//===----------------------------------------------------------------------===//

namespace {

/// Subscribes to kernel launches only — nothing else may reach it, not
/// even through the generic hook.
class LaunchOnlyTool : public Tool {
public:
  std::string name() const override { return "launch_only"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::KernelLaunch};
    Sub.Model = ExecutionModel::Serial;
    return Sub;
  }
  void onKernelLaunch(const Event &) override { ++Launches; }
  void onEvent(const Event &E) override { Generic.push_back(E.Kind); }

  std::uint64_t Launches = 0;
  std::vector<EventKind> Generic;
};

/// Internally synchronized counter tool under the Concurrent contract.
class ConcurrentCountTool : public Tool {
public:
  std::string name() const override { return "concurrent_count"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::MemoryCopy};
    Sub.Model = ExecutionModel::Concurrent;
    return Sub;
  }
  void onMemoryCopy(const Event &) override {
    Copies.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> Copies{0};
};

/// Per-device sequence recorder under the ShardByDevice contract: each
/// device's events must arrive in order.
class ShardedOrderTool : public Tool {
public:
  std::string name() const override { return "sharded_order"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::MemoryCopy};
    Sub.Model = ExecutionModel::ShardByDevice;
    return Sub;
  }
  void onMemoryCopy(const Event &E) override {
    std::size_t Device = static_cast<std::size_t>(E.DeviceIndex);
    ASSERT_LT(Device, PerDevice.size());
    PerDevice[Device].push_back(E.Address);
  }
  std::array<std::vector<sim::DeviceAddr>, 8> PerDevice;
};

} // namespace

TEST(AsyncPipeline, SubscriptionRoutingSkipsNonSubscribers) {
  EventProcessor Processor(asyncOptions(64));
  LaunchOnlyTool Launches;
  CollectTool Everything;
  Processor.addTool(&Launches);
  Processor.addTool(&Everything);

  Event Launch;
  Launch.Kind = EventKind::KernelLaunch;
  Launch.GridId = 1;
  Processor.process(Launch);
  for (int I = 0; I < 10; ++I)
    Processor.process(copyEvent(static_cast<sim::DeviceAddr>(I)));
  Processor.flush();

  // The launch-only subscriber saw its kind and nothing else — the
  // generic hook included; the all-kinds subscriber saw everything.
  EXPECT_EQ(Launches.Launches, 1u);
  ASSERT_EQ(Launches.Generic.size(), 1u);
  EXPECT_EQ(Launches.Generic.front(), EventKind::KernelLaunch);
  EXPECT_EQ(Everything.Addresses.size(), 11u);
}

TEST(AsyncPipeline, ShardedDispatchDeliversEverythingInPerDeviceOrder) {
  constexpr int Devices = 8;
  constexpr std::uint64_t PerDeviceEvents = 250;
  EventProcessor Processor(asyncOptions(256, /*DispatchThreads=*/4));
  ConcurrentCountTool Count;
  ShardedOrderTool Order;
  Processor.addTool(&Count);
  Processor.addTool(&Order);

  // One producer, round-robin across devices; the address encodes the
  // per-device sequence number.
  for (std::uint64_t Seq = 0; Seq < PerDeviceEvents; ++Seq)
    for (int Device = 0; Device < Devices; ++Device)
      Processor.process(copyEvent(Seq, Device));
  Processor.flush();

  EXPECT_EQ(Count.Copies.load(), PerDeviceEvents * Devices);
  for (int Device = 0; Device < Devices; ++Device) {
    const auto &Sequence =
        Order.PerDevice[static_cast<std::size_t>(Device)];
    ASSERT_EQ(Sequence.size(), PerDeviceEvents) << "device " << Device;
    for (std::uint64_t Seq = 0; Seq < PerDeviceEvents; ++Seq)
      ASSERT_EQ(Sequence[Seq], Seq) << "device " << Device;
  }

  ProcessorStats Stats = Processor.stats();
  EXPECT_EQ(Stats.EventsProcessed, PerDeviceEvents * Devices);
  EXPECT_EQ(Stats.EventsDropped, 0u);
}

TEST(AsyncPipeline, SerialToolsKeepPinnedLaneOrderAcrossManyLanes) {
  // A Serial tool sees its subscribed events in admission order next to
  // a Concurrent tool, with the ignored lane count set to 4.
  EventProcessor Processor(asyncOptions(128, /*DispatchThreads=*/4));
  CollectTool Serial; // all kinds, Serial
  ConcurrentCountTool Concurrent;
  Processor.addTool(&Serial);
  Processor.addTool(&Concurrent);

  constexpr std::uint64_t Sent = 500;
  for (std::uint64_t I = 0; I < Sent; ++I)
    Processor.process(copyEvent(I, static_cast<int>(I % 8)));
  Processor.flush();

  ASSERT_EQ(Serial.Addresses.size(), Sent);
  for (std::uint64_t I = 0; I < Sent; ++I)
    EXPECT_EQ(Serial.Addresses[I], I);
  EXPECT_EQ(Concurrent.Copies.load(), Sent);
}

TEST(AsyncPipeline, AddToolAfterPipelineStartPublishesNewEpoch) {
  EventProcessor Processor(asyncOptions(64));
  CollectTool Tool;
  ASSERT_TRUE(Processor.addTool(&Tool));

  Processor.process(copyEvent(1));
  Processor.flush();

  // The pipeline started, but the tool set is not sealed: addTool
  // rebuilds the routing table under the dispatch mutex. The late tool
  // only sees events admitted after it was attached.
  CollectTool Late;
  EXPECT_TRUE(Processor.addTool(&Late));
  ASSERT_EQ(Processor.tools().size(), 2u);
  EXPECT_EQ(Processor.tools().front(), &Tool);
  EXPECT_GE(Processor.stats().Reconfigurations, 1u);

  Processor.process(copyEvent(2));
  Processor.flush();
  EXPECT_EQ(Tool.Addresses.size(), 2u);
  ASSERT_EQ(Late.Addresses.size(), 1u);
  EXPECT_EQ(Late.Addresses[0], 2u);

  // Removal works live too and the removed tool's view is frozen.
  EXPECT_TRUE(Processor.removeTool(&Late));
  Processor.process(copyEvent(3));
  Processor.flush();
  EXPECT_EQ(Tool.Addresses.size(), 3u);
  EXPECT_EQ(Late.Addresses.size(), 1u);
}

TEST(AsyncPipeline, SubscriptionOfReportsAttachedContracts) {
  EventProcessor Processor;
  ConcurrentCountTool Concurrent;
  CollectTool Default;
  Processor.addTool(&Concurrent);
  Processor.addTool(&Default);

  std::optional<Subscription> Sub = Processor.subscriptionOf(&Concurrent);
  ASSERT_TRUE(Sub.has_value());
  EXPECT_EQ(Sub->Model, ExecutionModel::Concurrent);
  EXPECT_TRUE(Sub->Kinds.has(EventKind::MemoryCopy));
  EXPECT_FALSE(Sub->Kinds.has(EventKind::KernelLaunch));

  std::optional<Subscription> DefaultSub =
      Processor.subscriptionOf(&Default);
  ASSERT_TRUE(DefaultSub.has_value());
  EXPECT_EQ(DefaultSub->Model, ExecutionModel::Serial);
  EXPECT_EQ(DefaultSub->Kinds, EventKindMask::all());

  CollectTool Detached;
  EXPECT_FALSE(Processor.subscriptionOf(&Detached).has_value());
}

//===----------------------------------------------------------------------===//
// Determinism: the ignored async knobs leave the reports unchanged
//===----------------------------------------------------------------------===//

namespace {

/// Runs the fixed seeded workload and returns the JSON tool reports.
/// \p Async sets the ignored async knobs, \p DispatchThreads among them.
std::string runFixedWorkload(bool Async, std::size_t DispatchThreads = 1) {
  SessionError Err;
  SessionBuilder Builder;
  Builder.tool("kernel_frequency")
      .tool("working_set")
      .backend("cs-gpu")
      .gpu("A100")
      .model("alexnet")
      .iterations(1)
      .recordGranularity(1u << 20);
  if (Async)
    Builder.asyncEvents().queueDepth(64).dispatchThreads(DispatchThreads);
  std::unique_ptr<Session> S = Builder.build(Err);
  EXPECT_NE(S, nullptr) << Err.message();
  if (!S)
    return "<build failed>";
  S->run();
  JsonReportSink Sink;
  S->writeReports(Sink);
  return Sink.str();
}

} // namespace

TEST(AsyncPipeline, BlockPolicyReportsAreByteIdenticalToSync) {
  tools::registerBuiltinTools();
  std::string Sync = runFixedWorkload(/*Async=*/false);
  std::string Async = runFixedWorkload(/*Async=*/true);
  EXPECT_EQ(Sync, Async);
  EXPECT_NE(Sync.find("kernel_frequency"), std::string::npos);
  EXPECT_NE(Sync.find("working_set"), std::string::npos);
}

TEST(AsyncPipeline, ShardedBlockPolicyReportsAreByteIdenticalToSync) {
  // Whatever the ignored lane count, the reports match.
  tools::registerBuiltinTools();
  std::string Sync = runFixedWorkload(/*Async=*/false);
  for (std::size_t Lanes : {2u, 4u}) {
    std::string Sharded = runFixedWorkload(/*Async=*/true, Lanes);
    EXPECT_EQ(Sync, Sharded) << Lanes << " lanes";
  }
}

TEST(AsyncPipeline, SessionSurfacesPipelineCounters) {
  tools::registerBuiltinTools();
  SessionError Err;
  auto S = SessionBuilder()
               .tool("kernel_frequency")
               .backend("cs-gpu")
               .model("alexnet")
               .iterations(1)
               .asyncEvents()
               .queueDepth(32)
               .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();
  S->run();

  JsonReportSink Sink;
  S->writePipelineReport(Sink);
  S->writeReports(Sink);
  const std::string &Doc = Sink.str();
  ProcessorStats Stats = S->processor().stats();
  EXPECT_GT(Stats.EventsProcessed, 0u);
  EXPECT_NE(Doc.find("\"tool\": \"event_pipeline\""), std::string::npos);
  EXPECT_NE(Doc.find("\"events_processed\": " +
                     std::to_string(Stats.EventsProcessed)),
            std::string::npos);
  EXPECT_NE(Doc.find("\"events_dropped\": 0"), std::string::npos);
  EXPECT_NE(Doc.find("\"reconfigurations\": 1"), std::string::npos);
  EXPECT_EQ(Doc.find("queue"), std::string::npos) << "no queue to report";
}

TEST(SessionBuilder, AsyncKnobValidation) {
  // The async knobs are ignored, so no value of theirs is rejected.
  for (std::size_t Value : {0u, 1u, 65u}) {
    SessionError Err;
    EXPECT_NE(SessionBuilder()
                  .asyncEvents()
                  .queueDepth(Value)
                  .dispatchThreads(Value)
                  .analysisThreads(Value)
                  .build(Err),
              nullptr)
        << Value << ": " << Err.message();
  }
}

//===----------------------------------------------------------------------===//
// Synchronous dispatch under the dispatch mutex
//===----------------------------------------------------------------------===//

namespace {

/// Serial tool logging each launch's GridId. The log has its own lock so
/// that the assertions below, not a corrupted vector, decide the test
/// when dispatch is not serialized.
class LaunchLogTool : public Tool {
public:
  std::string name() const override { return "launch_log"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::KernelLaunch};
    Sub.Model = ExecutionModel::Serial;
    return Sub;
  }
  void onKernelLaunch(const Event &E) override {
    std::lock_guard<std::mutex> Lock(Mu);
    GridIds.push_back(E.GridId);
  }
  std::mutex Mu;
  std::vector<std::uint64_t> GridIds;
};

/// Admits a copy of every operator start back into \p Target (its own
/// processor unless told otherwise) from inside its hook.
class ReadmitTool : public Tool {
public:
  std::string name() const override { return "readmit"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::OperatorStart};
    return Sub;
  }
  void onAttach(EventProcessor &P) override {
    if (!Target)
      Target = &P;
  }
  void onOperatorStart(const Event &E) override {
    ++Seen;
    Target->process(E);
    Target->onAccessBatch(sim::LaunchInfo{}, nullptr, 0);
  }
  EventProcessor *Target = nullptr;
  int Seen = 0;
};

Event operatorStart() {
  Event E;
  E.Kind = EventKind::OperatorStart;
  E.OpName = PayloadString("aten::conv2d");
  return E;
}

} // namespace

TEST(SyncDispatch, ConcurrentProducersNeverOverlapSerialTools) {
  // Four producers admit into one validating processor: every event is
  // delivered, the Serial tool's hooks never overlap, and each
  // producer's events arrive in the order it admitted them.
  ProcessorOptions Opts;
  Opts.Validate = true;
  EventProcessor Processor(Opts);
  std::atomic<std::uint64_t> Overlaps{0};
  Processor.validator()->setHandler([&](const ValidationViolation &V) {
    if (V.What == ValidationViolation::Kind::SerialOverlap)
      Overlaps.fetch_add(1, std::memory_order_relaxed);
  });
  LaunchLogTool Tool;
  Processor.addTool(&Tool);

  // The GridId encodes (producer, sequence number).
  constexpr std::uint64_t Producers = 4;
  constexpr std::uint64_t PerProducer = 20000;
  std::vector<std::thread> Threads;
  for (std::uint64_t P = 0; P < Producers; ++P)
    Threads.emplace_back([&Processor, P] {
      for (std::uint64_t Seq = 0; Seq < PerProducer; ++Seq) {
        Event E;
        E.Kind = EventKind::KernelLaunch;
        E.GridId = (P << 32) | Seq;
        Processor.process(std::move(E));
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Overlaps.load(), 0u) << "serial-overlap reports";
  ASSERT_EQ(Tool.GridIds.size(), Producers * PerProducer);
  std::uint64_t NextSeq[Producers] = {};
  for (std::uint64_t GridId : Tool.GridIds) {
    std::uint64_t P = GridId >> 32;
    ASSERT_LT(P, Producers);
    ASSERT_EQ(GridId & 0xffffffffu, NextSeq[P]) << "producer " << P;
    ++NextSeq[P];
  }
  EXPECT_EQ(Processor.stats().EventsProcessed, Producers * PerProducer);
}

TEST(SyncDispatch, HookAdmittingIntoItsOwnProcessorIsDiagnosed) {
  // The hook runs under the dispatch mutex, so its process() call and
  // record delivery into the same processor are dropped and counted,
  // not deadlocked on.
  EventProcessor Processor;
  ReadmitTool Tool;
  ASSERT_TRUE(Processor.addTool(&Tool));
  Processor.process(operatorStart());
  EXPECT_EQ(Tool.Seen, 1) << "the re-admitted event was dispatched";
  ProcessorStats Stats = Processor.stats();
  EXPECT_EQ(Stats.EventsDropped, 2u);
  EXPECT_EQ(Stats.EventsProcessed, 1u);
  EXPECT_EQ(Stats.RecordBatches, 0u);

  // Through another processor and back: Outer's hook admits into Inner,
  // whose hook admits into Outer while Outer's mutex is still held.
  EventProcessor Outer;
  EventProcessor Inner;
  ReadmitTool ToInner;
  ToInner.Target = &Inner;
  ReadmitTool ToOuter;
  ToOuter.Target = &Outer;
  ASSERT_TRUE(Outer.addTool(&ToInner));
  ASSERT_TRUE(Inner.addTool(&ToOuter));
  Outer.process(operatorStart());
  EXPECT_EQ(ToInner.Seen, 1);
  EXPECT_EQ(ToOuter.Seen, 1) << "a hook may admit into another processor";
  EXPECT_EQ(Outer.stats().EventsDropped, 2u);
  EXPECT_EQ(Inner.stats().EventsDropped, 0u);
  EXPECT_EQ(Inner.stats().RecordBatches, 1u);
}
