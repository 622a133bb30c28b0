//===- tests/pasta_pipeline_test.cpp - async event pipeline ---------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The asynchronous dispatch unit: ordering guarantees, flush barriers,
// lossless back-pressure in the ticketed ring, declarative subscription
// routing, sharded multi-lane dispatch, and the determinism contract —
// on a fixed workload, async mode must produce byte-identical JSON tool
// reports to synchronous mode, for any lane count, for Serial-contract
// tools.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "pasta/EventQueue.h"
#include "pasta/Session.h"
#include "support/ReportSink.h"
#include "tools/RegisterTools.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <random>
#include <thread>
#include <vector>

using namespace pasta;

namespace {

/// Records every delivered event's payload (dispatch is single-threaded,
/// so no locking needed inside the hooks).
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
  void onEvent(const Event &E) override {
    Addresses.push_back(E.Address);
    Kinds.push_back(E.Kind);
  }
  std::vector<sim::DeviceAddr> Addresses;
  std::vector<EventKind> Kinds;
};

/// Counts MemoryCopy deliveries on one serial lane, each taking
/// \c Delay; the producer reads the count after flush().
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

ProcessorOptions asyncOptions(std::size_t Depth,
                              std::size_t DispatchThreads = 1) {
  ProcessorOptions Opts;
  Opts.AnalysisThreads = 1;
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
  EventProcessor Processor(asyncOptions(64));
  CollectTool Tool;
  Processor.addTool(&Tool);

  for (int I = 0; I < 1000; ++I)
    Processor.process(allocEvent(static_cast<sim::DeviceAddr>(I)));
  Processor.flush();

  ASSERT_EQ(Tool.Addresses.size(), 1000u);
  ProcessorStats Stats = Processor.stats();
  EXPECT_EQ(Stats.EventsProcessed, 1000u);
  EXPECT_EQ(Stats.EventsDropped, 0u);
  EXPECT_GT(Stats.MaxQueueDepth, 0u);
  EXPECT_LE(Stats.MaxQueueDepth, 64u);
}

TEST(AsyncPipeline, FlushWaitsForTheLastEventOfEveryBurst) {
  // flush() must not return while the lane still dispatches the last
  // event it took. Many short bursts, each followed by a flush, give a
  // barrier that can return one event early many chances to show it.
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
  // A flush waits for the events admitted before it, not for those
  // another thread keeps admitting meanwhile. The slow tool keeps the
  // ring from ever draining, so a barrier that waits for an empty ring
  // returns only when the producer gives up at its deadline.

  // The tool is declared first so that it outlives the lane, which
  // still drains what the producer admitted after the flush.
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

TEST(AsyncPipeline, PerProducerOrderIsPreserved) {
  EventProcessor Processor(asyncOptions(128));
  CollectTool Tool;
  Processor.addTool(&Tool);

  // 4 producers, 500 events each; the address encodes (producer, seq).
  constexpr std::uint64_t PerProducer = 500;
  std::vector<std::thread> Producers;
  for (std::uint64_t P = 0; P < 4; ++P)
    Producers.emplace_back([&Processor, P] {
      for (std::uint64_t Seq = 0; Seq < PerProducer; ++Seq)
        Processor.process(allocEvent((P << 32) | Seq));
    });
  for (std::thread &T : Producers)
    T.join();
  Processor.flush();

  ASSERT_EQ(Tool.Addresses.size(), 4 * PerProducer);
  // Events from one producer must arrive in the order it sent them,
  // whatever the interleaving across producers.
  std::uint64_t NextSeq[4] = {0, 0, 0, 0};
  for (sim::DeviceAddr Address : Tool.Addresses) {
    std::uint64_t P = Address >> 32;
    std::uint64_t Seq = Address & 0xffffffffu;
    ASSERT_LT(P, 4u);
    EXPECT_EQ(Seq, NextSeq[P]) << "producer " << P;
    ++NextSeq[P];
  }
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

  // No flush() call: the Synchronization event itself guaranteed
  // delivery of everything admitted before it, including itself.
  EXPECT_EQ(Tool.Addresses.size(), 101u);
  EXPECT_EQ(Tool.Kinds.back(), EventKind::Synchronization);
  EXPECT_GE(Processor.stats().FlushCount, 1u);
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
      Sub.CapturesStacks = true;
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
// Ticketed ring queue (RingQueueTest.* is in the CI TSan filter)
//===----------------------------------------------------------------------===//

namespace {

Event addressEvent(sim::DeviceAddr Address) {
  Event E;
  E.Kind = EventKind::MemoryCopy;
  E.Address = Address;
  return E;
}

} // namespace

TEST(RingQueueTest, MultiProducerOrderAndConservationUnderDropChurn) {
  // Lossless admission drops only what arrives after close(). 4
  // producers churn through a small ring against a yielding consumer,
  // which closes the queue mid-stream, so every later enqueue is voided.
  // Closure is atomic with ticket claims: each producer's delivered
  // events must be a gap-free prefix 0..k-1 of what it sent, and the
  // conservation invariant (delivered + dropped == sent) must hold
  // exactly.
  constexpr std::uint64_t PerProducer = 5000;
  constexpr std::uint64_t ProducerCount = 4;
  constexpr std::size_t CloseAfter = 1000;
  EventQueue Queue(/*Capacity=*/32);

  std::vector<sim::DeviceAddr> Delivered;
  std::thread Consumer([&] {
    std::vector<Event> Batch;
    bool Closed = false;
    while (Queue.dequeueBatch(Batch)) {
      for (const Event &E : Batch)
        Delivered.push_back(E.Address);
      if (!Closed && Delivered.size() >= CloseAfter) {
        // At most CloseAfter + a batch + the ring + one parked ticket
        // per producer are claimed here, far short of what is sent.
        Queue.close();
        Closed = true;
      }
      std::this_thread::yield(); // keep the ring full
    }
  });

  std::vector<std::thread> Producers;
  for (std::uint64_t P = 0; P < ProducerCount; ++P)
    Producers.emplace_back([&Queue, P] {
      for (std::uint64_t Seq = 0; Seq < PerProducer; ++Seq)
        Queue.enqueue(addressEvent((P << 32) | Seq));
    });
  for (std::thread &T : Producers)
    T.join();
  Consumer.join();

  EventQueueCounters Counters = Queue.counters();
  EXPECT_EQ(Counters.Enqueued + Counters.Dropped,
            ProducerCount * PerProducer);
  EXPECT_EQ(Delivered.size(), Counters.Enqueued);
  EXPECT_GE(Delivered.size(), CloseAfter);
  EXPECT_GT(Counters.Dropped, 0u);
  EXPECT_LE(Counters.MaxDepth, 32u);
  // Per-producer order: the delivered events of each producer are its
  // first k events, in order.
  std::uint64_t NextSeq[ProducerCount] = {0, 0, 0, 0};
  for (sim::DeviceAddr Address : Delivered) {
    std::uint64_t P = Address >> 32;
    ASSERT_LT(P, ProducerCount);
    ASSERT_EQ(Address & 0xffffffffu, NextSeq[P]) << "producer " << P;
    ++NextSeq[P];
  }
}

TEST(RingQueueTest, BlockProducersParkAndLoseNothing) {
  // Every full-ring producer parks at once, so the futex-style waiter
  // path gets real traffic, and the drain-side targeted wakeups must
  // release every parked producer. Each address carries (producer,
  // sequence), so parking must not reorder either.
  constexpr std::uint64_t PerProducer = 2000;
  constexpr std::uint64_t ProducerCount = 4;
  EventQueue Queue(/*Capacity=*/8);

  std::vector<sim::DeviceAddr> Delivered;
  std::thread Consumer([&] {
    std::vector<Event> Batch;
    while (Queue.dequeueBatch(Batch))
      for (const Event &E : Batch)
        Delivered.push_back(E.Address);
  });

  std::vector<std::thread> Producers;
  for (std::uint64_t P = 0; P < ProducerCount; ++P)
    Producers.emplace_back([&Queue, P] {
      for (std::uint64_t Seq = 0; Seq < PerProducer; ++Seq)
        Queue.enqueue(addressEvent((P << 32) | Seq));
    });
  for (std::thread &T : Producers)
    T.join();
  Queue.waitDrained();
  Queue.close();
  Consumer.join();

  EventQueueCounters Counters = Queue.counters();
  EXPECT_EQ(Delivered.size(), ProducerCount * PerProducer);
  EXPECT_EQ(Counters.Enqueued, ProducerCount * PerProducer);
  EXPECT_EQ(Counters.Dropped, 0u);
  EXPECT_GT(Counters.Spins, 0u);
  EXPECT_GT(Counters.Parks, 0u) << "depth 8 with 4 producers must "
                                   "actually park";
  EXPECT_LE(Counters.MaxDepth, 8u);
  // Per-producer FIFO: each producer's events arrive as 0..PerProducer-1,
  // in order, whatever the interleaving across producers.
  std::uint64_t NextSeq[ProducerCount] = {0, 0, 0, 0};
  for (sim::DeviceAddr Address : Delivered) {
    std::uint64_t P = Address >> 32;
    ASSERT_LT(P, ProducerCount);
    ASSERT_EQ(Address & 0xffffffffu, NextSeq[P]) << "producer " << P;
    ++NextSeq[P];
  }
  for (std::uint64_t P = 0; P < ProducerCount; ++P)
    EXPECT_EQ(NextSeq[P], PerProducer) << "producer " << P;
}

TEST(RingQueueTest, NonPowerOfTwoCapacityIsEnforcedExactly) {
  // The backing ring rounds up to a power of two (8 slots); the logical
  // capacity must not: six events fill the queue, and a seventh parks
  // until the consumer frees space.
  EventQueue Queue(/*Capacity=*/6);
  for (std::uint64_t Seq = 0; Seq < 6; ++Seq)
    Queue.enqueue(addressEvent(Seq));
  std::thread Producer([&Queue] { Queue.enqueue(addressEvent(6)); });
  while (Queue.counters().Parks == 0)
    std::this_thread::yield();
  EventQueueCounters Counters = Queue.counters();
  EXPECT_EQ(Counters.Parks, 1u);
  EXPECT_EQ(Counters.MaxDepth, 6u);

  std::vector<Event> First;
  std::vector<Event> Second;
  EXPECT_TRUE(Queue.dequeueBatch(First));
  // The parked seventh claimed its ticket before this close, so it is
  // still delivered (and a wrong first batch cannot hang the test).
  Queue.close();
  EXPECT_TRUE(Queue.dequeueBatch(Second));
  Producer.join();
  auto AddressesOf = [](const std::vector<Event> &Batch) {
    std::vector<sim::DeviceAddr> Out;
    for (const Event &E : Batch)
      Out.push_back(E.Address);
    return Out;
  };
  EXPECT_EQ(AddressesOf(First),
            (std::vector<sim::DeviceAddr>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(AddressesOf(Second), (std::vector<sim::DeviceAddr>{6}));
  EXPECT_EQ(Queue.counters().MaxDepth, 6u);
}

TEST(RingQueueTest, EnqueueAfterCloseIsCountedAsDropped) {
  EventQueue Queue(/*Capacity=*/8);
  Queue.enqueue(addressEvent(1));
  Queue.enqueue(addressEvent(2));
  Queue.close();
  Queue.enqueue(addressEvent(3)); // arrives after close: discarded

  std::vector<Event> Batch;
  EXPECT_TRUE(Queue.dequeueBatch(Batch));
  EXPECT_EQ(Batch.size(), 2u);
  EXPECT_FALSE(Queue.dequeueBatch(Batch));

  EventQueueCounters Counters = Queue.counters();
  EXPECT_EQ(Counters.Enqueued, 2u);
  EXPECT_EQ(Counters.Dropped, 1u);
}

TEST(RingQueueTest, WaitDrainedCoversDispatchNotJustDequeue) {
  // waitDrained must hold until the consumer is *between* batches —
  // i.e. the previous batch was fully dispatched — not merely until
  // the ring is empty.
  EventQueue Queue(/*Capacity=*/64);
  std::atomic<std::uint64_t> Dispatched{0};
  std::thread Consumer([&] {
    std::vector<Event> Batch;
    while (Queue.dequeueBatch(Batch)) {
      // Simulate slow dispatch: the drain barrier must wait this out.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      Dispatched.fetch_add(Batch.size());
    }
  });
  for (std::uint64_t Seq = 0; Seq < 10; ++Seq)
    Queue.enqueue(addressEvent(Seq));
  Queue.waitDrained();
  EXPECT_EQ(Dispatched.load(), 10u);
  Queue.close();
  Consumer.join();
}

//===----------------------------------------------------------------------===//
// Declarative subscriptions + sharded dispatch
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
/// device's events must arrive in order, on one lane at a time.
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
  constexpr std::size_t LaneCount = 4;
  constexpr int Devices = 8;
  constexpr std::uint64_t PerDeviceEvents = 250;
  EventProcessor Processor(asyncOptions(256, LaneCount));
  ASSERT_EQ(Processor.laneCount(), LaneCount);
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
  EXPECT_EQ(Stats.DispatchLanes, LaneCount);
  EXPECT_EQ(Stats.EventsDropped, 0u);
  // Each lane's counters merge into the snapshot; with 8 devices over 4
  // lanes every lane must have dispatched something.
  std::vector<DispatchLaneStats> PerLane = Processor.laneStats();
  ASSERT_EQ(PerLane.size(), LaneCount);
  for (std::size_t L = 0; L < LaneCount; ++L)
    EXPECT_GT(PerLane[L].EventsDispatched, 0u) << "lane " << L;
}

TEST(AsyncPipeline, SerialToolsKeepPinnedLaneOrderAcrossManyLanes) {
  // A Serial tool must see its subscribed events in admission order even
  // when other tools spread across many lanes.
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

  // The pipeline started, but the tool set is not sealed: addTool drains
  // the current epoch behind a flush barrier and publishes a new routing
  // table (this test runs under TSan in CI — a racy swap would be caught
  // there). The late tool only sees events admitted after its epoch.
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
  EventProcessor Processor(2);
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
// Determinism: sync vs async sessions
//===----------------------------------------------------------------------===//

namespace {

/// Runs the fixed seeded workload and returns the JSON tool reports.
/// \p DispatchThreads selects the async lane count (ignored when sync);
/// \p ArenaShards / \p ArenaMemo configure the admission arena.
std::string runFixedWorkload(bool Async, std::size_t DispatchThreads = 1,
                             std::size_t ArenaShards = 0,
                             bool ArenaMemo = true) {
  SessionError Err;
  // The arena knobs have no builder setters: they are set on the
  // pipeline options.
  SessionOptions Opts;
  Opts.Pipeline.ArenaShards = ArenaShards;
  Opts.Pipeline.ArenaMemo = ArenaMemo;
  SessionBuilder Builder(Opts);
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
  // Serial-contract tools keep the byte-identity guarantee at any lane
  // count: each stays pinned to one lane that receives its subscribed
  // events in admission order.
  tools::registerBuiltinTools();
  std::string Sync = runFixedWorkload(/*Async=*/false);
  for (std::size_t Lanes : {2u, 4u}) {
    std::string Sharded = runFixedWorkload(/*Async=*/true, Lanes);
    EXPECT_EQ(Sync, Sharded) << Lanes << " lanes";
  }
}

TEST(AsyncPipeline, ArenaConfigsKeepReportsByteIdentical) {
  // The sharded arena and the intern memo are pure canonicalization
  // mechanics: whatever the shard count or memo setting, tool reports
  // must be byte-identical to synchronous dispatch.
  tools::registerBuiltinTools();
  std::string Sync = runFixedWorkload(/*Async=*/false);
  EXPECT_EQ(Sync, runFixedWorkload(true, 2, /*ArenaShards=*/1,
                                   /*ArenaMemo=*/false));
  EXPECT_EQ(Sync, runFixedWorkload(true, 2, /*ArenaShards=*/8,
                                   /*ArenaMemo=*/true));
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
  EXPECT_NE(Doc.find("\"tool\": \"event_pipeline\""), std::string::npos);
  EXPECT_NE(Doc.find("\"mode\": \"async\""), std::string::npos);
  EXPECT_NE(Doc.find("\"events_dropped\": 0"), std::string::npos);
  EXPECT_NE(Doc.find("max_queue_depth"), std::string::npos);
  EXPECT_NE(Doc.find("flush_count"), std::string::npos);

  ProcessorStats Stats = S->processor().stats();
  EXPECT_GT(Stats.EventsProcessed, 0u);
  EXPECT_GT(Stats.MaxQueueDepth, 0u);
  EXPECT_GE(Stats.FlushCount, 1u) << "finish() is a hard flush barrier";
}

TEST(SessionBuilder, AsyncKnobValidation) {
  SessionError Err;
  EXPECT_EQ(SessionBuilder().asyncEvents().queueDepth(0).build(Err),
            nullptr);
  EXPECT_NE(Err.message().find("queue depth"), std::string::npos);
  SessionError Err2;
  EXPECT_EQ(SessionBuilder().asyncEvents().dispatchThreads(0).build(Err2),
            nullptr);
  EXPECT_NE(Err2.message().find("dispatch thread"), std::string::npos);
  SessionError Err3;
  EXPECT_EQ(
      SessionBuilder().asyncEvents().dispatchThreads(65).build(Err3),
      nullptr);
  EXPECT_NE(Err3.message().find("dispatch thread"), std::string::npos);
}
