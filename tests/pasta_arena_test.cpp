//===- tests/pasta_arena_test.cpp - shared immutable event arena ----------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The payload arena: PayloadString/PayloadStack handle semantics,
// cross-event interning (dedup) from concurrent threads, and live
// admission leaving payloads alone.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventArena.h"
#include "pasta/EventProcessor.h"

#include <gtest/gtest.h>

#include <limits>
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

//===----------------------------------------------------------------------===//
// Concurrent interning and content hashes
//===----------------------------------------------------------------------===//

TEST(ArenaShardTest, SingleShardMemoDisabledStillCanonicalizes) {
  // The arena is one table behind one mutex, with no thread-local memo:
  // threads interning the same payload still share one allocation.
  EventArena Arena;

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
  EXPECT_EQ(Stats.Hits, ThreadCount * 200u - 1u);
}

TEST(ArenaShardTest, ConcurrentProducersOverDistinctPayloadSets) {
  // Distinct payloads from concurrent threads (several connections
  // decoding into one tenant's arena): the resident count must be exact
  // (no duplicates, no losses).
  EventArena Arena;

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
        Arena.internString(PayloadString(Name));
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EventArenaStats Stats = Arena.stats();
  EXPECT_EQ(Stats.Strings,
            PerThread / 2 + ThreadCount * (PerThread / 2));
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
// Pipeline integration
//===----------------------------------------------------------------------===//

namespace {

/// Serial tool recording the identity of every payload allocation it
/// sees.
class HandleProbeTool : public Tool {
public:
  std::string name() const override { return "probe"; }

  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::OperatorStart};
    Sub.Model = ExecutionModel::Serial;
    return Sub;
  }

  void onEvent(const Event &E) override {
    if (E.OpName.handle())
      OpNameAllocs.insert(E.OpName.handle().get());
  }

  std::set<const void *> OpNameAllocs;
};

Event operatorStart(const char *Op) {
  Event E;
  E.Kind = EventKind::OperatorStart;
  E.OpName = Op;
  return E;
}

} // namespace

TEST(ArenaPipeline, SyncModeLeavesPayloadsAlone) {
  // Dispatch borrows from the producing frame; nothing is interned and
  // the arena stays empty (only the trace decoders intern).
  EventProcessor Processor;
  HandleProbeTool Probe;
  ASSERT_TRUE(Processor.addTool(&Probe));
  Processor.process(operatorStart("aten::inline"));
  EXPECT_EQ(Processor.stats().ArenaPayloads, 0u);
  EXPECT_EQ(Probe.OpNameAllocs.size(), 1u);
}
