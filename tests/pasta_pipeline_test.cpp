//===- tests/pasta_pipeline_test.cpp - async event pipeline ---------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The asynchronous dispatch unit: ordering guarantees, flush barriers,
// overflow-policy accounting, admission classes (resource events are
// never dropped), declarative subscription routing, sharded multi-lane
// dispatch, and the determinism contract — on a fixed workload, async
// mode with the Block policy must produce byte-identical JSON tool
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
#include <condition_variable>
#include <mutex>
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

/// Blocks the dispatch thread on its first event until release() — lets
/// tests fill the queue deterministically behind it.
class GateTool : public Tool {
public:
  std::string name() const override { return "gate"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.KernelTrace = true;
    Sub.CapturesStacks = true;
    return Sub;
  }
  void onEvent(const Event &) override {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [this] { return Open; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Open = true;
    }
    Cv.notify_all();
  }

private:
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Open = false;
};

/// Counts MemoryCopy deliveries on one serial lane; the producer reads
/// the count after flush().
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
    Copies.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> Copies{0};
};

Event allocEvent(sim::DeviceAddr Address) {
  Event E;
  E.Kind = EventKind::MemoryAlloc;
  E.Address = Address;
  E.Bytes = 64;
  return E;
}

/// MemoryCopy is a standard-admission kind — unlike resource events, the
/// lossy overflow policies may discard it.
Event copyEvent(sim::DeviceAddr Address, int Device = 0) {
  Event E;
  E.Kind = EventKind::MemoryCopy;
  E.Address = Address;
  E.Bytes = 64;
  E.DeviceIndex = Device;
  return E;
}

ProcessorOptions asyncOptions(std::size_t Depth, OverflowPolicy Policy,
                              std::uint64_t SampleEveryN = 4,
                              std::size_t DispatchThreads = 1) {
  ProcessorOptions Opts;
  Opts.AnalysisThreads = 1;
  Opts.AsyncEvents = true;
  Opts.QueueDepth = Depth;
  Opts.Overflow = Policy;
  Opts.SampleEveryN = SampleEveryN;
  Opts.DispatchThreads = DispatchThreads;
  return Opts;
}

} // namespace

//===----------------------------------------------------------------------===//
// OverflowPolicy names
//===----------------------------------------------------------------------===//

TEST(OverflowPolicyTest, NamesAndParsing) {
  EXPECT_STREQ(overflowPolicyName(OverflowPolicy::Block), "block");
  EXPECT_STREQ(overflowPolicyName(OverflowPolicy::DropNewest),
               "drop-newest");
  EXPECT_STREQ(overflowPolicyName(OverflowPolicy::Sample), "sample");
  EXPECT_EQ(parseOverflowPolicy("block"), OverflowPolicy::Block);
  EXPECT_EQ(parseOverflowPolicy("drop"), OverflowPolicy::DropNewest);
  EXPECT_EQ(parseOverflowPolicy("drop-newest"), OverflowPolicy::DropNewest);
  EXPECT_EQ(parseOverflowPolicy("sample"), OverflowPolicy::Sample);
  EXPECT_EQ(parseOverflowPolicy("firehose"), std::nullopt);
}

//===----------------------------------------------------------------------===//
// Delivery and ordering
//===----------------------------------------------------------------------===//

TEST(AsyncPipeline, DeliversEverythingAfterFlush) {
  EventProcessor Processor(asyncOptions(64, OverflowPolicy::Block));
  CollectTool Tool;
  Processor.addTool(&Tool);

  for (int I = 0; I < 1000; ++I)
    Processor.process(allocEvent(static_cast<sim::DeviceAddr>(I)));
  Processor.flush();

  ASSERT_EQ(Tool.Addresses.size(), 1000u);
  ProcessorStats Stats = Processor.stats();
  EXPECT_EQ(Stats.EventsProcessed, 1000u);
  EXPECT_EQ(Stats.EventsDropped, 0u);
  EXPECT_EQ(Stats.EventsSampledOut, 0u);
  EXPECT_GT(Stats.MaxQueueDepth, 0u);
  EXPECT_LE(Stats.MaxQueueDepth, 64u);
}

TEST(AsyncPipeline, FlushWaitsForTheLastEventOfEveryBurst) {
  // flush() must not return while the lane still dispatches the last
  // event it took. Many short bursts, each followed by a flush, give a
  // barrier that can return one event early many chances to show it.
  EventProcessor Processor(asyncOptions(64, OverflowPolicy::Block));
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

TEST(AsyncPipeline, PerProducerOrderIsPreserved) {
  EventProcessor Processor(asyncOptions(128, OverflowPolicy::Block));
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
  EventProcessor Processor(asyncOptions(1024, OverflowPolicy::Block));
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
  EventProcessor Processor(asyncOptions(256, OverflowPolicy::Block));

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
// Overflow policies
//===----------------------------------------------------------------------===//

TEST(AsyncPipeline, DropNewestCountsAndNeverBlocks) {
  constexpr std::size_t Depth = 8;
  EventProcessor Processor(asyncOptions(Depth, OverflowPolicy::DropNewest));
  GateTool Gate;
  CollectTool Tool;
  Processor.addTool(&Gate);
  Processor.addTool(&Tool);

  // One event wedges the dispatch thread in the gate; everything past
  // the queue capacity must be dropped, not block this thread.
  // (MemoryCopy: the lossy policies only apply to standard-class kinds.)
  constexpr std::uint64_t Sent = 200;
  for (std::uint64_t I = 0; I < Sent; ++I)
    Processor.process(copyEvent(I));
  Gate.release();
  Processor.flush();

  ProcessorStats Stats = Processor.stats();
  EXPECT_GT(Stats.EventsDropped, 0u);
  EXPECT_LE(Stats.MaxQueueDepth, Depth);
  // Conservation: every event was either dispatched or dropped.
  EXPECT_EQ(Stats.EventsProcessed + Stats.EventsDropped, Sent);
  EXPECT_EQ(Tool.Addresses.size(), Stats.EventsProcessed);
}

TEST(AsyncPipeline, ResourceEventsAreNeverDroppedOrSampled) {
  // Admission classes: resource events (allocations, frees, tensors)
  // bypass the lossy policies — they wait for space like Block — so
  // every tool's allocation view stays consistent under loss.
  constexpr std::size_t Depth = 8;
  EventProcessor Processor(asyncOptions(Depth, OverflowPolicy::DropNewest));
  GateTool Gate;
  CollectTool Tool;
  Processor.addTool(&Gate);
  Processor.addTool(&Tool);

  // The producer overflows the gated queue with resource events; since
  // they block for space, the gate must be opened from this thread once
  // the queue has demonstrably filled.
  constexpr std::uint64_t Sent = 100;
  std::thread Producer([&Processor] {
    for (std::uint64_t I = 0; I < Sent; ++I)
      Processor.process(allocEvent(I));
  });
  while (Processor.stats().MaxQueueDepth < Depth)
    std::this_thread::yield();
  Gate.release();
  Producer.join();
  Processor.flush();

  ProcessorStats Stats = Processor.stats();
  EXPECT_EQ(Stats.EventsDropped, 0u);
  EXPECT_EQ(Stats.EventsSampledOut, 0u);
  EXPECT_EQ(Stats.EventsProcessed, Sent);
  EXPECT_EQ(Tool.Addresses.size(), Sent);
}

TEST(AsyncPipeline, SampleKeepsOneInNOfTheOverflow) {
  constexpr std::size_t Depth = 8;
  constexpr std::uint64_t EveryN = 4;
  EventProcessor Processor(
      asyncOptions(Depth, OverflowPolicy::Sample, EveryN));
  GateTool Gate;
  CollectTool Tool;
  Processor.addTool(&Gate);
  Processor.addTool(&Tool);

  // The admitted 1/N of overflowing events block for space, so they must
  // be sent from a separate producer while this thread opens the gate.
  constexpr std::uint64_t Sent = 200;
  std::thread Producer([&Processor] {
    for (std::uint64_t I = 0; I < Sent; ++I)
      Processor.process(copyEvent(I));
  });
  // Only open the gate once overflow sampling has demonstrably started;
  // otherwise the consumer could drain as fast as the producer fills.
  while (Processor.stats().EventsSampledOut == 0)
    std::this_thread::yield();
  Gate.release();
  Producer.join();
  Processor.flush();

  ProcessorStats Stats = Processor.stats();
  EXPECT_GT(Stats.EventsSampledOut, 0u);
  EXPECT_EQ(Stats.EventsDropped, 0u);
  // Conservation: dispatched + sampled out covers everything sent.
  EXPECT_EQ(Stats.EventsProcessed + Stats.EventsSampledOut, Sent);
  // Of E overflowing events, ceil(E/N) are admitted, so no more than
  // (N-1)/N of everything sent can have been sampled out.
  EXPECT_LE(Stats.EventsSampledOut, Sent * (EveryN - 1) / EveryN);
  EXPECT_EQ(Tool.Addresses.size(), Stats.EventsProcessed);
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
  // Direct queue stress: 4 producers against a slow consumer with the
  // DropNewest policy. Per-producer FIFO must hold for whatever is
  // delivered, producers must never block, and the conservation
  // invariant (delivered + dropped == sent) must hold exactly.
  constexpr std::uint64_t PerProducer = 5000;
  constexpr std::uint64_t ProducerCount = 4;
  EventQueue Queue(/*Capacity=*/32, OverflowPolicy::DropNewest,
                   /*SampleEveryN=*/1, /*SpinIterations=*/4);

  std::vector<sim::DeviceAddr> Delivered;
  std::thread Consumer([&] {
    std::vector<Event> Batch;
    while (Queue.dequeueBatch(Batch)) {
      for (const Event &E : Batch)
        Delivered.push_back(E.Address);
      std::this_thread::yield(); // keep the queue overflowing
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
  Queue.close();
  Consumer.join();

  EventQueueCounters Counters = Queue.counters();
  EXPECT_EQ(Counters.Enqueued + Counters.Dropped,
            ProducerCount * PerProducer);
  EXPECT_EQ(Delivered.size(), Counters.Enqueued);
  EXPECT_GT(Counters.Dropped, 0u);
  EXPECT_LE(Counters.MaxDepth, 32u);
  // Per-producer order of the delivered subsequence.
  std::uint64_t LastSeq[ProducerCount];
  bool Seen[ProducerCount] = {false, false, false, false};
  for (sim::DeviceAddr Address : Delivered) {
    std::uint64_t P = Address >> 32;
    std::uint64_t Seq = Address & 0xffffffffu;
    ASSERT_LT(P, ProducerCount);
    if (Seen[P]) {
      EXPECT_GT(Seq, LastSeq[P]) << "producer " << P;
    }
    Seen[P] = true;
    LastSeq[P] = Seq;
  }
}

TEST(RingQueueTest, BlockProducersParkAndLoseNothing) {
  // Spin window of zero: every full-ring producer parks immediately —
  // the futex-style waiter path gets real traffic, and the drain-side
  // targeted wakeups must release every parked producer.
  constexpr std::uint64_t PerProducer = 2000;
  constexpr std::uint64_t ProducerCount = 4;
  EventQueue Queue(/*Capacity=*/8, OverflowPolicy::Block,
                   /*SampleEveryN=*/1, /*SpinIterations=*/0);

  std::atomic<std::uint64_t> Delivered{0};
  std::thread Consumer([&] {
    std::vector<Event> Batch;
    while (Queue.dequeueBatch(Batch))
      Delivered.fetch_add(Batch.size());
  });

  std::vector<std::thread> Producers;
  for (std::uint64_t P = 0; P < ProducerCount; ++P)
    Producers.emplace_back([&Queue] {
      for (std::uint64_t Seq = 0; Seq < PerProducer; ++Seq)
        Queue.enqueue(addressEvent(Seq));
    });
  for (std::thread &T : Producers)
    T.join();
  Queue.waitDrained();
  Queue.close();
  Consumer.join();

  EventQueueCounters Counters = Queue.counters();
  EXPECT_EQ(Delivered.load(), ProducerCount * PerProducer);
  EXPECT_EQ(Counters.Enqueued, ProducerCount * PerProducer);
  EXPECT_EQ(Counters.Dropped, 0u);
  EXPECT_GT(Counters.Spins, 0u);
  EXPECT_GT(Counters.Parks, 0u) << "depth 8 with 4 producers and spin 0 "
                                   "must actually park";
  EXPECT_LE(Counters.MaxDepth, 8u);
}

TEST(RingQueueTest, NonPowerOfTwoCapacityIsEnforcedExactly) {
  // The backing ring rounds up to a power of two; the logical capacity
  // must not.
  EventQueue Queue(/*Capacity=*/6, OverflowPolicy::DropNewest,
                   /*SampleEveryN=*/1, /*SpinIterations=*/0);
  for (std::uint64_t Seq = 0; Seq < 20; ++Seq)
    Queue.enqueue(addressEvent(Seq));
  EventQueueCounters Counters = Queue.counters();
  EXPECT_EQ(Counters.Enqueued, 6u);
  EXPECT_EQ(Counters.Dropped, 14u);
  EXPECT_EQ(Counters.MaxDepth, 6u);

  std::vector<Event> Batch;
  EXPECT_TRUE(Queue.dequeueBatch(Batch));
  ASSERT_EQ(Batch.size(), 6u);
  for (std::uint64_t Seq = 0; Seq < 6; ++Seq)
    EXPECT_EQ(Batch[Seq].Address, Seq);
}

TEST(RingQueueTest, SampleCounterIsPerProducerThread) {
  // The Sample policy's modular counter is per producer thread, not a
  // shared atomic: each producer independently keeps 1/N of the
  // overflow *it* produces. Two producers each send N-1 overflowing
  // events into a full ring with no consumer — per-producer counting
  // samples all of them out without blocking, deterministically. (With
  // the old shared counter, the combined 2(N-1) >= N overflow events
  // would tip the counter over N and one producer would block for
  // space that never comes.)
  constexpr std::uint64_t EveryN = 3;
  constexpr std::size_t Capacity = 4;
  EventQueue Queue(Capacity, OverflowPolicy::Sample, EveryN,
                   /*SpinIterations=*/0);
  for (std::uint64_t Seq = 0; Seq < Capacity; ++Seq)
    Queue.enqueue(addressEvent(Seq));
  ASSERT_EQ(Queue.counters().Enqueued, Capacity);

  std::vector<std::thread> Producers;
  for (int P = 0; P < 2; ++P)
    Producers.emplace_back([&Queue] {
      for (std::uint64_t Seq = 0; Seq < EveryN - 1; ++Seq)
        Queue.enqueue(addressEvent(1000 + Seq));
    });
  for (std::thread &T : Producers)
    T.join();

  EventQueueCounters Counters = Queue.counters();
  EXPECT_EQ(Counters.Enqueued, Capacity);
  EXPECT_EQ(Counters.SampledOut, 2 * (EveryN - 1));
  EXPECT_EQ(Counters.Dropped, 0u);
  Queue.close();
}

TEST(RingQueueTest, SampleConservationAcrossManyProducers) {
  // Drop accounting must still sum exactly with per-producer counters:
  // enqueued + dropped + sampled-out == sent, whatever the interleaving.
  constexpr std::uint64_t PerProducer = 4000;
  constexpr std::uint64_t ProducerCount = 4;
  constexpr std::uint64_t EveryN = 4;
  EventQueue Queue(/*Capacity=*/16, OverflowPolicy::Sample, EveryN,
                   /*SpinIterations=*/4);

  std::atomic<std::uint64_t> Delivered{0};
  std::thread Consumer([&] {
    std::vector<Event> Batch;
    while (Queue.dequeueBatch(Batch)) {
      Delivered.fetch_add(Batch.size());
      std::this_thread::yield(); // keep the queue overflowing
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
  Queue.waitDrained();
  Queue.close();
  Consumer.join();

  EventQueueCounters Counters = Queue.counters();
  EXPECT_EQ(Counters.Enqueued + Counters.Dropped + Counters.SampledOut,
            ProducerCount * PerProducer);
  EXPECT_EQ(Delivered.load(), Counters.Enqueued);
  EXPECT_EQ(Counters.Dropped, 0u); // Sample never drops before close()
}

TEST(RingQueueTest, EnqueueAfterCloseIsCountedAsDropped) {
  EventQueue Queue(/*Capacity=*/8, OverflowPolicy::Block,
                   /*SampleEveryN=*/1);
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
  EventQueue Queue(/*Capacity=*/64, OverflowPolicy::Block,
                   /*SampleEveryN=*/1, /*SpinIterations=*/0);
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
  EventProcessor Processor(asyncOptions(64, OverflowPolicy::Block));
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
  EventProcessor Processor(
      asyncOptions(256, OverflowPolicy::Block, 4, LaneCount));
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
  EventProcessor Processor(
      asyncOptions(128, OverflowPolicy::Block, 4, /*DispatchThreads=*/4));
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
  EventProcessor Processor(asyncOptions(64, OverflowPolicy::Block));
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
    Builder.asyncEvents()
        .queueDepth(64)
        .overflowPolicy(OverflowPolicy::Block)
        .dispatchThreads(DispatchThreads);
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
  EXPECT_EQ(SessionBuilder().asyncEvents().sampleEveryN(0).build(Err2),
            nullptr);
  EXPECT_NE(Err2.message().find("sample"), std::string::npos);
  SessionError Err3;
  EXPECT_EQ(SessionBuilder().asyncEvents().dispatchThreads(0).build(Err3),
            nullptr);
  EXPECT_NE(Err3.message().find("dispatch thread"), std::string::npos);
  SessionError Err4;
  EXPECT_EQ(
      SessionBuilder().asyncEvents().dispatchThreads(65).build(Err4),
      nullptr);
  EXPECT_NE(Err4.message().find("dispatch thread"), std::string::npos);
}
