//===- tests/pasta_arena_test.cpp - shared immutable event arena ----------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The zero-copy payload arena: PayloadString/PayloadStack handle
// semantics, cross-event interning (dedup), pointee pinning, payload
// lifetime beyond the producing frame and across flush barriers, and
// the multi-lane refcount path (ArenaPipeline.* runs under TSan in CI at
// 4 lanes).
//
//===----------------------------------------------------------------------===//

#include "pasta/EventArena.h"
#include "pasta/EventProcessor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace pasta;

//===----------------------------------------------------------------------===//
// Payload handle semantics
//===----------------------------------------------------------------------===//

TEST(PayloadStringTest, EmptyHoldsNoAllocation) {
  PayloadString Empty;
  EXPECT_TRUE(Empty.empty());
  EXPECT_EQ(Empty.size(), 0u);
  EXPECT_EQ(Empty.str(), "");
  EXPECT_EQ(Empty.handle(), nullptr);
  PayloadString AssignedEmpty("");
  EXPECT_EQ(AssignedEmpty.handle(), nullptr);
}

TEST(PayloadStringTest, CopySharesStorage) {
  PayloadString A("aten::conv2d");
  PayloadString B = A;
  EXPECT_TRUE(A.sharesStorageWith(B));
  EXPECT_EQ(A, B);
  EXPECT_EQ(B, "aten::conv2d");
  EXPECT_EQ(B.str(), "aten::conv2d");
  // Equal content, distinct storage: equality still holds, sharing not.
  PayloadString C("aten::conv2d");
  EXPECT_EQ(A, C);
  EXPECT_FALSE(A.sharesStorageWith(C));
}

TEST(PayloadStringTest, ConvertsLikeAString) {
  PayloadString S("features.0");
  const std::string &Ref = S;
  EXPECT_EQ(Ref, "features.0");
  std::string Copy = S;
  EXPECT_EQ(Copy, "features.0");
  EXPECT_STREQ(S.c_str(), "features.0");
  EXPECT_LT(PayloadString("a"), PayloadString("b"));
}

TEST(PayloadStackTest, CopySharesFrames) {
  PayloadStack A({"inner", "outer"});
  PayloadStack B = A;
  EXPECT_TRUE(A.sharesStorageWith(B));
  ASSERT_EQ(B.size(), 2u);
  EXPECT_EQ(B[0], "inner");
  EXPECT_EQ(B[1], "outer");
  std::size_t Seen = 0;
  for (const std::string &Frame : B) {
    (void)Frame;
    ++Seen;
  }
  EXPECT_EQ(Seen, 2u);
  PayloadStack Empty;
  EXPECT_TRUE(Empty.empty());
  EXPECT_EQ(Empty.handle(), nullptr);
}

//===----------------------------------------------------------------------===//
// Arena interning
//===----------------------------------------------------------------------===//

TEST(EventArenaTest, StringsInternToOneAllocation) {
  EventArena Arena;
  PayloadString First = Arena.internString(PayloadString("aten::mm"));
  PayloadString Second = Arena.internString(PayloadString("aten::mm"));
  EXPECT_TRUE(First.sharesStorageWith(Second));

  EventArenaStats Stats = Arena.stats();
  EXPECT_EQ(Stats.Strings, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Bytes, std::string("aten::mm").size());
}

TEST(EventArenaTest, StacksInternByContent) {
  EventArena Arena;
  PayloadStack A = Arena.internStack(PayloadStack({"f0", "f1"}));
  PayloadStack B = Arena.internStack(PayloadStack({"f0", "f1"}));
  PayloadStack C = Arena.internStack(PayloadStack({"f0", "f2"}));
  EXPECT_TRUE(A.sharesStorageWith(B));
  EXPECT_FALSE(A.sharesStorageWith(C));
  EXPECT_EQ(Arena.stats().Stacks, 2u);
}

TEST(EventArenaTest, KernelDescsDedupByContent) {
  EventArena Arena;
  sim::KernelDesc K;
  K.Name = "volta_sgemm_128x64";
  K.Grid = {64, 1, 1};
  K.Block = {256, 1, 1};
  auto First = Arena.internKernel(K);
  auto Second = Arena.internKernel(K);
  EXPECT_EQ(First.get(), Second.get());

  K.Grid.X = 128; // different geometry => different descriptor
  auto Third = Arena.internKernel(K);
  EXPECT_NE(First.get(), Third.get());
  EXPECT_EQ(Arena.stats().Kernels, 2u);
  EXPECT_EQ(Arena.stats().Hits, 1u);

  // Bitwise equality: a NaN-Flops descriptor must still dedup to one
  // entry (floating != would make every lookup a miss and grow the
  // table with event volume).
  K.Flops = std::numeric_limits<double>::quiet_NaN();
  auto NanFirst = Arena.internKernel(K);
  auto NanSecond = Arena.internKernel(K);
  EXPECT_EQ(NanFirst.get(), NanSecond.get());
  EXPECT_EQ(Arena.stats().Kernels, 3u);
}

TEST(EventArenaTest, InternEventCanonicalizesEveryPayload) {
  EventArena Arena;
  sim::KernelDesc K;
  K.Name = "kernel_a";

  Event First;
  First.Kind = EventKind::OperatorStart;
  First.OpName = "aten::relu";
  First.LayerName = "features.3";
  First.PythonStack = {"model.py:10 forward"};
  First.Kernel = &K;
  Arena.intern(First);

  Event Second;
  Second.Kind = EventKind::OperatorStart;
  Second.OpName = "aten::relu";
  Second.LayerName = "features.3";
  Second.PythonStack = {"model.py:10 forward"};
  Second.Kernel = &K;
  Arena.intern(Second);

  EXPECT_TRUE(First.OpName.sharesStorageWith(Second.OpName));
  EXPECT_TRUE(First.LayerName.sharesStorageWith(Second.LayerName));
  EXPECT_TRUE(First.PythonStack.sharesStorageWith(Second.PythonStack));
  ASSERT_NE(First.ownedKernel(), nullptr);
  EXPECT_EQ(First.ownedKernel().get(), Second.ownedKernel().get());
  // The borrowed pointer was redirected to the pinned copy.
  EXPECT_EQ(First.Kernel, First.ownedKernel().get());
  EXPECT_NE(First.Kernel, &K);
}

//===----------------------------------------------------------------------===//
// Sharded tables + memo (ArenaShardTest.* runs under TSan)
//===----------------------------------------------------------------------===//

TEST(ArenaShardTest, ShardCountResolution) {
  EXPECT_EQ(EventArena().shardCount(), EventArena::defaultShardCount());
  EventArenaOptions Three;
  Three.Shards = 3;
  EXPECT_EQ(EventArena(Three).shardCount(), 3u);
  EventArenaOptions Huge;
  Huge.Shards = 200;
  EXPECT_EQ(EventArena(Huge).shardCount(), 64u);
}

TEST(ArenaShardTest, SingleShardMemoDisabledStillCanonicalizes) {
  // The PR 4 shape (one table mutex, no memo) must keep full dedup
  // semantics — it is the bench baseline and a supported config.
  EventArenaOptions Opts;
  Opts.Shards = 1;
  Opts.InternMemo = false;
  EventArena Arena(Opts);

  constexpr int ThreadCount = 4;
  std::vector<PayloadString> Results(ThreadCount);
  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&Arena, &Results, T] {
      for (int I = 0; I < 200; ++I)
        Results[static_cast<std::size_t>(T)] =
            Arena.internString(PayloadString("aten::softmax"));
    });
  for (std::thread &T : Threads)
    T.join();

  for (int T = 1; T < ThreadCount; ++T)
    EXPECT_TRUE(Results[0].sharesStorageWith(
        Results[static_cast<std::size_t>(T)]));
  EventArenaStats Stats = Arena.stats();
  EXPECT_EQ(Stats.Strings, 1u);
  EXPECT_EQ(Stats.MemoHits, 0u) << "memo disabled";
  EXPECT_EQ(Stats.Shards, 1u);
}

TEST(ArenaShardTest, MemoHitsRepeatedPayloadsWithoutTouchingShards) {
  EventArena Arena;
  PayloadString First = Arena.internString(PayloadString("aten::gelu"));
  for (int I = 0; I < 50; ++I) {
    PayloadString Again = Arena.internString(PayloadString("aten::gelu"));
    EXPECT_TRUE(Again.sharesStorageWith(First));
  }
  EventArenaStats Stats = Arena.stats();
  EXPECT_EQ(Stats.Strings, 1u);
  EXPECT_EQ(Stats.Hits, 50u);
  EXPECT_EQ(Stats.MemoHits, 50u)
      << "same-thread repeats must resolve in the thread-local memo";
}

TEST(ArenaShardTest, ConcurrentProducersOverDistinctPayloadSets) {
  // Distinct payloads from concurrent producers spread over the shards;
  // the resident count must be exact (no duplicates, no losses).
  EventArenaOptions Opts;
  Opts.Shards = 8;
  EventArena Arena(Opts);

  constexpr int ThreadCount = 4;
  constexpr int PerThread = 64;
  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&Arena, T] {
      for (int I = 0; I < PerThread; ++I) {
        // Half private to this thread, half shared across threads.
        std::string Name =
            I % 2 == 0 ? "shared::op_" + std::to_string(I)
                       : "private::t" + std::to_string(T) + "_op_" +
                             std::to_string(I);
        Event E;
        E.Kind = EventKind::OperatorStart;
        E.OpName = Name;
        Arena.intern(E);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EventArenaStats Stats = Arena.stats();
  EXPECT_EQ(Stats.Strings,
            PerThread / 2 + ThreadCount * (PerThread / 2));
  EXPECT_EQ(Stats.Shards, 8u);
}

TEST(ArenaShardTest, MemoReleasesHandlesAfterArenaDeath) {
  // The thread-local memo must not pin a dead arena's payloads for the
  // thread's remaining lifetime: the next intern after any arena death
  // purges stale entries.
  std::weak_ptr<const std::string> Weak;
  {
    EventArena Arena;
    PayloadString S =
        Arena.internString(PayloadString("aten::ephemeral_payload"));
    Weak = S.handle();
  } // arena and the local handle are gone; only the memo could remain
  EventArena Next;
  Next.internString(PayloadString("aten::unrelated"));
  EXPECT_TRUE(Weak.expired());
}

TEST(ArenaShardTest, ContentHashIsCachedAndCopied) {
  PayloadString S("aten::conv2d");
  std::uint64_t Hash = S.contentHash();
  EXPECT_NE(Hash, 0u);
  PayloadString Copy = S;
  EXPECT_EQ(Copy.contentHash(), Hash);
  S = "aten::linear"; // reassignment must invalidate the cache
  EXPECT_NE(S.contentHash(), Hash);

  PayloadStack Stack({"f0", "f1"});
  std::uint64_t StackHash = Stack.contentHash();
  PayloadStack StackCopy = Stack;
  EXPECT_EQ(StackCopy.contentHash(), StackHash);
  EXPECT_NE(StackHash, PayloadStack({"f0", "f2"}).contentHash());
}

//===----------------------------------------------------------------------===//
// Pipeline integration (ArenaPipeline.* is in the CI TSan filter)
//===----------------------------------------------------------------------===//

namespace {

/// Serial tool recording the identity of every payload allocation it
/// sees — the probe proving fan-out shares storage across lanes.
class HandleProbeTool : public Tool {
public:
  explicit HandleProbeTool(std::string ToolName)
      : ToolName(std::move(ToolName)) {}

  std::string name() const override { return ToolName; }

  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::OperatorStart, EventKind::KernelLaunch};
    Sub.Model = ExecutionModel::Serial;
    return Sub;
  }

  void onEvent(const Event &E) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (E.OpName.handle())
      OpNameAllocs.insert(E.OpName.handle().get());
    if (E.Kernel)
      KernelPtrs.insert(E.Kernel);
    if (E.Kind == EventKind::KernelLaunch && !E.ownedKernel())
      ++UnownedQueuedKernels;
    LastOpName = E.OpName; // refcount bump, retained past the run
  }

  std::set<const void *> opNameAllocs() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return OpNameAllocs;
  }
  std::set<const void *> kernelPtrs() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return KernelPtrs;
  }
  std::uint64_t unownedQueuedKernels() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return UnownedQueuedKernels;
  }
  PayloadString lastOpName() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return LastOpName;
  }

private:
  std::string ToolName;
  /// The probe's state is read from the main thread after flush() while
  /// its own lane may still exist; a mutex keeps TSan happy.
  mutable std::mutex Mutex;
  std::set<const void *> OpNameAllocs;
  std::set<const void *> KernelPtrs;
  std::uint64_t UnownedQueuedKernels = 0;
  PayloadString LastOpName;
};

ProcessorOptions arenaOptions(std::size_t Lanes) {
  ProcessorOptions Opts;
  Opts.AsyncEvents = true;
  Opts.QueueDepth = 256;
  Opts.DispatchThreads = Lanes;
  return Opts;
}

Event operatorStart(const char *Op) {
  Event E;
  E.Kind = EventKind::OperatorStart;
  E.OpName = Op;
  return E;
}

} // namespace

TEST(ArenaPipeline, FanOutSharesOneAllocationAcrossLanes) {
  // Four Serial tools pin to four different lanes: each admitted event
  // fans out to all of them, and every lane must observe the *same*
  // payload allocation — per-lane owning copies are gone.
  constexpr std::size_t LaneCount = 4;
  EventProcessor Processor(arenaOptions(LaneCount));
  std::vector<std::unique_ptr<HandleProbeTool>> Tools;
  for (std::size_t I = 0; I < LaneCount; ++I)
    Tools.push_back(
        std::make_unique<HandleProbeTool>("probe" + std::to_string(I)));
  for (auto &T : Tools)
    ASSERT_TRUE(Processor.addTool(T.get()));

  constexpr int Repeats = 200;
  for (int I = 0; I < Repeats; ++I) {
    // Fresh string bytes per call — only interning can make them shared.
    Processor.process(operatorStart("aten::conv2d"));
    sim::KernelDesc Transient;
    Transient.Name = "kernel_shared";
    Event Launch;
    Launch.Kind = EventKind::KernelLaunch;
    Launch.Kernel = &Transient;
    Launch.GridId = 1;
    Processor.process(std::move(Launch));
  }
  Processor.flush();

  std::set<const void *> AllOpAllocs;
  std::set<const void *> AllKernelPtrs;
  for (auto &T : Tools) {
    EXPECT_EQ(T->opNameAllocs().size(), 1u) << T->name();
    EXPECT_EQ(T->kernelPtrs().size(), 1u) << T->name();
    EXPECT_EQ(T->unownedQueuedKernels(), 0u)
        << T->name() << ": queued events must own their pointees";
    for (const void *P : T->opNameAllocs())
      AllOpAllocs.insert(P);
    for (const void *P : T->kernelPtrs())
      AllKernelPtrs.insert(P);
  }
  // The decisive check: across *all* lanes there is exactly one OpName
  // allocation and one pinned kernel descriptor — storage does not
  // scale with the subscriber count.
  EXPECT_EQ(AllOpAllocs.size(), 1u);
  EXPECT_EQ(AllKernelPtrs.size(), 1u);

  ProcessorStats Stats = Processor.stats();
  // 2 distinct payloads (string + kernel desc); everything else hit.
  EXPECT_EQ(Stats.ArenaPayloads, 2u);
  EXPECT_EQ(Stats.ArenaHits, 2u * Repeats - 2u);
  EXPECT_GT(Stats.ArenaBytes, 0u);
}

TEST(ArenaPipeline, PayloadsOutliveProducerAcrossFlushBarriers) {
  EventProcessor Processor(arenaOptions(2));
  HandleProbeTool Probe("probe");
  ASSERT_TRUE(Processor.addTool(&Probe));

  // The producing "backend" lives in a scope that ends before the
  // assertions: transient descriptors and string buffers die with it.
  {
    std::thread Producer([&Processor] {
      for (int I = 0; I < 50; ++I) {
        std::string Name = "aten::op_" + std::to_string(I % 5);
        Event E;
        E.Kind = EventKind::OperatorStart;
        E.OpName = Name;
        Processor.process(std::move(E));
      }
      Event Sync;
      Sync.Kind = EventKind::Synchronization;
      Processor.process(std::move(Sync)); // hard flush barrier
    });
    Producer.join();
  }
  Processor.flush();

  // 5 distinct names survived the producer; the retained handle still
  // dereferences safely.
  EXPECT_EQ(Probe.opNameAllocs().size(), 5u);
  EXPECT_FALSE(Probe.lastOpName().empty());
  EXPECT_EQ(Probe.lastOpName().str().rfind("aten::op_", 0), 0u);
}

TEST(ArenaPipeline, ConcurrentProducersShareInternTable) {
  // The TSan-covered refcount path: 4 producers intern overlapping
  // payload sets into a 4-lane pipeline concurrently.
  constexpr std::size_t LaneCount = 4;
  EventProcessor Processor(arenaOptions(LaneCount));
  std::vector<std::unique_ptr<HandleProbeTool>> Tools;
  for (std::size_t I = 0; I < LaneCount; ++I)
    Tools.push_back(
        std::make_unique<HandleProbeTool>("probe" + std::to_string(I)));
  for (auto &T : Tools)
    ASSERT_TRUE(Processor.addTool(T.get()));

  std::vector<std::thread> Producers;
  for (int P = 0; P < 4; ++P)
    Producers.emplace_back([&Processor] {
      for (int I = 0; I < 250; ++I) {
        std::string Name = "aten::op_" + std::to_string(I % 8);
        Event E;
        E.Kind = EventKind::OperatorStart;
        E.OpName = Name;
        Processor.process(std::move(E));
      }
    });
  for (std::thread &T : Producers)
    T.join();
  Processor.flush();

  // 8 distinct names; every lane saw at most 8 allocations and the
  // union across lanes is still 8 — no per-lane or per-producer copies.
  std::set<const void *> Union;
  for (auto &T : Tools)
    for (const void *P : T->opNameAllocs())
      Union.insert(P);
  EXPECT_EQ(Union.size(), 8u);
  EXPECT_EQ(Processor.stats().ArenaPayloads, 8u);
}

TEST(ArenaPipeline, SyncModeLeavesPayloadsAlone) {
  // Synchronous dispatch borrows from the producing frame; nothing is
  // interned and the arena stays empty (stats comparable across modes
  // only where the arena actually runs).
  EventProcessor Processor;
  HandleProbeTool Probe("probe");
  ASSERT_TRUE(Processor.addTool(&Probe));
  Processor.process(operatorStart("aten::inline"));
  EXPECT_EQ(Processor.stats().ArenaPayloads, 0u);
  EXPECT_EQ(Probe.opNameAllocs().size(), 1u);
}
