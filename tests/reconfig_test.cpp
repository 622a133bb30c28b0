//===- tests/reconfig_test.cpp - live pipeline reconfiguration ------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Epoch-swapped routing tables: tools attach and detach on a *running*
// pipeline by publishing a new immutable routing table behind a flush
// barrier. The tests pin down the contract:
//
//  * a Serial tool present across any number of reconfigurations sees
//    exactly the events a never-reconfigured pipeline would deliver, in
//    the same order, at any lane count;
//  * a late-attached tool sees only events admitted under its epoch, a
//    detached tool's view freezes at its last epoch;
//  * detaching an earlier-pinned Serial tool re-pins the later ones at
//    the epoch boundary without reordering them;
//  * random reconfiguration schedules never drop or duplicate events;
//  * attach/detach serialized with concurrent producers by one caller
//    lock, as the daemon's tenant lock does, is safe while an unlocked
//    flusher races both (this suite runs under TSan in CI);
//  * the daemon's control verbs (attach-tool / detach-tool /
//    list-tenants) reconfigure tenant sessions end to end, including
//    over the control socket.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "pasta/Session.h"
#include "pasta/Validate.h"
#include "serve/Aggregator.h"
#include "serve/Control.h"
#include "tools/RegisterTools.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace pasta;

namespace {

/// Serial recorder: delivery order *is* the assertion.
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
  void onEvent(const Event &E) override { Addresses.push_back(E.Address); }
  std::vector<sim::DeviceAddr> Addresses;
};

/// Concurrent counter (atomic: may run on any lane).
class CountTool : public Tool {
public:
  std::string name() const override { return "count"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.Model = ExecutionModel::Concurrent;
    return Sub;
  }
  void onEvent(const Event &) override {
    Seen.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> Seen{0};
};

/// Calls back into its own processor from its dispatch and record
/// hooks; every reconfiguration attempt must be rejected there (the hook
/// is an admission in flight — on a lane, a swap would drain the lane
/// executing it).
class ReentrantReconfigTool : public Tool {
public:
  explicit ReentrantReconfigTool(EventProcessor &P) : Processor(P) {}
  std::string name() const override { return "reentrant"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.KernelTrace = true;
    Sub.CapturesStacks = true;
    return Sub;
  }
  void onEvent(const Event &) override { tryReconfigure(); }
  void onKernelTraceEnd(const sim::LaunchInfo &,
                        const sim::TraceTimeBreakdown &) override {
    tryReconfigure();
  }
  void tryReconfigure() {
    AddRejected = !Processor.addTool(&Victim);
    RemoveRejected = !Processor.removeTool(this);
    Ran = true;
  }
  EventProcessor &Processor;
  CollectTool Victim;
  bool Ran = false;
  bool AddRejected = false;
  bool RemoveRejected = false;
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

ProcessorOptions asyncOptions(std::size_t Depth, std::size_t Threads = 1) {
  ProcessorOptions Opts;
  Opts.AnalysisThreads = 1;
  Opts.AsyncEvents = true;
  Opts.QueueDepth = Depth;
  Opts.DispatchThreads = Threads;
  return Opts;
}

std::string tempPath(const std::string &Stem, const std::string &Ext) {
  static int Counter = 0;
  return ::testing::TempDir() + "pasta_reconfig_" + Stem + "_" +
         std::to_string(++Counter) + Ext;
}

} // namespace

//===----------------------------------------------------------------------===//
// Epoch semantics: attach / detach on a running pipeline
//===----------------------------------------------------------------------===//

TEST(Reconfig, SerialViewIdenticalAcrossReconfigurationCount) {
  // The always-present Serial tool's delivery must not depend on how
  // many times *other* tools came and went: compare runs with 0, 1 and
  // 8 reconfiguration cycles against each other, at 1 and 4 lanes.
  for (std::size_t Lanes : {1u, 4u}) {
    std::vector<sim::DeviceAddr> Baseline;
    for (int Cycles : {0, 1, 8}) {
      EventProcessor Processor(asyncOptions(64, Lanes));
      CollectTool Stable;
      ASSERT_TRUE(Processor.addTool(&Stable));

      std::vector<CollectTool> Guests(8);
      sim::DeviceAddr Next = 0;
      constexpr std::uint64_t Chunk = 300;
      for (int C = 0; C < Cycles; ++C) {
        for (std::uint64_t I = 0; I < Chunk; ++I)
          Processor.process(copyEvent(Next++, static_cast<int>(I % 4)));
        ASSERT_TRUE(Processor.addTool(&Guests[static_cast<std::size_t>(C)]));
        for (std::uint64_t I = 0; I < Chunk; ++I)
          Processor.process(copyEvent(Next++, static_cast<int>(I % 4)));
        ASSERT_TRUE(
            Processor.removeTool(&Guests[static_cast<std::size_t>(C)]));
      }
      while (Next < 8 * 2 * Chunk) {
        Processor.process(copyEvent(Next, static_cast<int>(Next % 4)));
        ++Next;
      }
      Processor.flush();

      ASSERT_EQ(Stable.Addresses.size(), 8 * 2 * Chunk)
          << Lanes << " lanes, " << Cycles << " cycles";
      if (Baseline.empty())
        Baseline = Stable.Addresses;
      else
        EXPECT_EQ(Stable.Addresses, Baseline)
            << Lanes << " lanes, " << Cycles << " cycles";
      EXPECT_EQ(Processor.stats().Reconfigurations,
                // addTool at construction time counts too: one setup
                // swap plus attach+detach per cycle.
                static_cast<std::uint64_t>(1 + 2 * Cycles));
    }
  }
}

TEST(Reconfig, GuestSeesExactlyItsEpochsAndFreezesOnDetach) {
  EventProcessor Processor(asyncOptions(64, 2));
  CollectTool Stable;
  ASSERT_TRUE(Processor.addTool(&Stable));

  for (sim::DeviceAddr A = 0; A < 100; ++A)
    Processor.process(copyEvent(A));

  CollectTool Guest;
  ASSERT_TRUE(Processor.addTool(&Guest));
  for (sim::DeviceAddr A = 100; A < 200; ++A)
    Processor.process(copyEvent(A));
  ASSERT_TRUE(Processor.removeTool(&Guest));

  for (sim::DeviceAddr A = 200; A < 300; ++A)
    Processor.process(copyEvent(A));
  Processor.flush();

  // The attach barrier drained epoch N before publishing N+1, so the
  // guest's window is exactly [100, 200) — no pre-attach stragglers, no
  // post-detach deliveries.
  ASSERT_EQ(Guest.Addresses.size(), 100u);
  for (sim::DeviceAddr A = 0; A < 100; ++A)
    ASSERT_EQ(Guest.Addresses[A], A + 100);
  EXPECT_EQ(Stable.Addresses.size(), 300u);
}

TEST(Reconfig, ReconfigurationFromDispatchHookIsRejected) {
  // Three places a hook runs: a dispatch lane (async), the producer's
  // own thread (synchronous dispatch), and a record delivery, which runs
  // on the delivering thread in either mode.
  struct Case {
    const char *Name;
    bool Async;
    bool Record;
  };
  for (const Case &C : {Case{"lane", true, false}, Case{"sync", false, false},
                        Case{"record", true, true}}) {
    ProcessorOptions Opts = asyncOptions(64, 1);
    Opts.AsyncEvents = C.Async;
    EventProcessor Processor(Opts);
    ReentrantReconfigTool Hook(Processor);
    ASSERT_TRUE(Processor.addTool(&Hook)) << C.Name;

    if (C.Record)
      Processor.onKernelEnd(sim::LaunchInfo{}, sim::TraceTimeBreakdown{});
    else
      Processor.process(copyEvent(1));
    Processor.flush();

    ASSERT_TRUE(Hook.Ran) << C.Name;
    EXPECT_TRUE(Hook.AddRejected) << C.Name;
    EXPECT_TRUE(Hook.RemoveRejected) << C.Name;
    // The pipeline survived the rejection: still one tool, still running.
    ASSERT_EQ(Processor.tools().size(), 1u) << C.Name;
    Processor.process(copyEvent(2));
    Processor.flush();
  }
}

//===----------------------------------------------------------------------===//
// Serial re-pinning
//===----------------------------------------------------------------------===//

TEST(Reconfig, SerialRepinOnDetachKeepsOrder) {
  // The lane count is fixed, so the only way a Serial tool changes lane
  // is a re-pin at an epoch boundary: with A on lane 0 and B on lane 1,
  // detaching A moves B to lane 0. B must still see every event once,
  // in admission order, and the validator must count the move as a
  // sanctioned migration rather than a lane-affinity violation.
  ProcessorOptions Opts = asyncOptions(/*Depth=*/32, /*Threads=*/2);
  Opts.Validate = true;
  EventProcessor Processor(Opts);
  // Count violations in stats() instead of aborting on the first.
  Processor.validator()->setHandler([](const ValidationViolation &) {});
  CollectTool A;
  CollectTool B;
  ASSERT_TRUE(Processor.addTool(&A));
  ASSERT_TRUE(Processor.addTool(&B));

  constexpr sim::DeviceAddr Total = 2000;
  constexpr sim::DeviceAddr DetachAt = 700;
  for (sim::DeviceAddr Address = 0; Address < Total; ++Address) {
    if (Address == DetachAt) {
      ASSERT_TRUE(Processor.removeTool(&A));
    }
    Processor.process(copyEvent(Address, static_cast<int>(Address % 4)));
  }
  Processor.flush();

  ASSERT_EQ(B.Addresses.size(), Total);
  for (sim::DeviceAddr Address = 0; Address < Total; ++Address)
    ASSERT_EQ(B.Addresses[Address], Address);
  ASSERT_EQ(A.Addresses.size(), DetachAt);
  EXPECT_EQ(Processor.laneCount(), 2u);
  ValidatorStats Stats = Processor.validator()->stats();
  EXPECT_GE(Stats.SanctionedMigrations, 1u);
  EXPECT_EQ(Stats.Violations, 0u);
}

//===----------------------------------------------------------------------===//
// Adversarial schedules
//===----------------------------------------------------------------------===//

TEST(Reconfig, RandomScheduleNeverDropsOrDuplicates) {
  // Property: under Block admission, whatever interleaving of attach /
  // detach / flush happens between events, the always-present
  // Serial tool sees every admitted event exactly once, in order.
  for (std::uint32_t Seed : {1u, 7u, 1234u}) {
    std::mt19937 Rng(Seed);
    EventProcessor Processor(asyncOptions(32, 4));
    CollectTool Stable;
    ASSERT_TRUE(Processor.addTool(&Stable));

    std::vector<std::unique_ptr<CollectTool>> Guests;
    std::vector<CollectTool *> Attached;
    sim::DeviceAddr Next = 0;
    for (int Op = 0; Op < 2000; ++Op) {
      switch (Rng() % 16) {
      case 0: { // attach a fresh guest
        Guests.push_back(std::make_unique<CollectTool>());
        ASSERT_TRUE(Processor.addTool(Guests.back().get()));
        Attached.push_back(Guests.back().get());
        break;
      }
      case 1: { // detach a random guest
        if (!Attached.empty()) {
          std::size_t I = Rng() % Attached.size();
          ASSERT_TRUE(Processor.removeTool(Attached[I]));
          Attached.erase(Attached.begin() +
                         static_cast<std::ptrdiff_t>(I));
        }
        break;
      }
      case 2:
        Processor.flush();
        break;
      default:
        Processor.process(copyEvent(Next++, static_cast<int>(Rng() % 4)));
        break;
      }
    }
    Processor.flush();

    ASSERT_EQ(Stable.Addresses.size(), Next) << "seed " << Seed;
    for (sim::DeviceAddr A = 0; A < Next; ++A)
      ASSERT_EQ(Stable.Addresses[A], A) << "seed " << Seed;
    // Guests never skip inside their window either: each saw a
    // contiguous run of addresses.
    for (const std::unique_ptr<CollectTool> &G : Guests)
      for (std::size_t I = 1; I < G->Addresses.size(); ++I)
        ASSERT_EQ(G->Addresses[I], G->Addresses[I - 1] + 1)
            << "seed " << Seed;
  }
}

TEST(Reconfig, DetachUnderCallerLockRacingFlushIsSafe) {
  // The daemon's pattern, TSan-covered in CI: two producers admit in
  // frames and a reconfigurer cycles attach/detach, all under one
  // caller lock (the tenant lock), while an unlocked flusher hammers the
  // barrier. The stable Serial tool must still see every event exactly
  // once, in per-producer order.
  EventProcessor Processor(asyncOptions(64, 4));
  CollectTool Stable;
  CountTool Counter;
  ASSERT_TRUE(Processor.addTool(&Stable));
  ASSERT_TRUE(Processor.addTool(&Counter));

  constexpr std::uint64_t PerProducer = 4000;
  constexpr std::uint64_t ProducerCount = 2;
  constexpr std::uint64_t Frame = 50;
  std::mutex CallerLock;
  std::vector<std::thread> Threads;
  for (std::uint64_t P = 0; P < ProducerCount; ++P)
    Threads.emplace_back([&Processor, &CallerLock, P] {
      for (std::uint64_t Seq = 0; Seq < PerProducer;) {
        std::lock_guard<std::mutex> Lock(CallerLock);
        for (std::uint64_t End = Seq + Frame; Seq < End; ++Seq)
          Processor.process(allocEvent((P << 32) | Seq));
      }
    });

  std::atomic<bool> Stop{false};
  std::thread Flusher([&Processor, &Stop] {
    while (!Stop.load())
      Processor.flush();
  });
  std::thread Reconfigurer([&Processor, &CallerLock, &Stop] {
    CollectTool Guest;
    while (!Stop.load()) {
      {
        std::lock_guard<std::mutex> Lock(CallerLock);
        EXPECT_TRUE(Processor.addTool(&Guest));
        EXPECT_TRUE(Processor.removeTool(&Guest));
      }
      std::this_thread::yield(); // let the producers take the lock
    }
  });

  for (std::uint64_t P = 0; P < ProducerCount; ++P)
    Threads[static_cast<std::size_t>(P)].join();
  Stop.store(true);
  Flusher.join();
  Reconfigurer.join();
  Processor.flush();

  ASSERT_EQ(Stable.Addresses.size(), ProducerCount * PerProducer);
  EXPECT_EQ(Counter.Seen.load(), ProducerCount * PerProducer);
  std::uint64_t NextSeq[ProducerCount] = {0, 0};
  for (sim::DeviceAddr Address : Stable.Addresses) {
    std::uint64_t P = Address >> 32;
    std::uint64_t Seq = Address & 0xffffffffu;
    ASSERT_LT(P, ProducerCount);
    ASSERT_EQ(Seq, NextSeq[P]) << "producer " << P;
    ++NextSeq[P];
  }
  EXPECT_EQ(Processor.stats().EventsDropped, 0u);
}

//===----------------------------------------------------------------------===//
// Daemon control plane
//===----------------------------------------------------------------------===//

TEST(Reconfig, ControlVerbsReconfigureTenantSessions) {
  tools::registerBuiltinTools();
  serve::ServeOptions Opts;
  Opts.ToolNames = {"kernel_frequency"};
  serve::Aggregator Agg(Opts);

  bool Ok = false;
  EXPECT_EQ(Agg.executeControl("list-tenants", Ok), "no tenants\n");
  EXPECT_TRUE(Ok);

  SessionError Err;
  serve::Tenant *T = Agg.registry().getOrCreate("team-a", Err);
  ASSERT_NE(T, nullptr) << Err.message();
  ASSERT_EQ(T->session().tools().size(), 1u);

  // Live attach onto the running tenant session.
  std::string Response =
      Agg.executeControl("attach-tool team-a working_set", Ok);
  EXPECT_TRUE(Ok) << Response;
  EXPECT_NE(T->session().tool("working_set"), nullptr);
  ASSERT_EQ(T->session().tools().size(), 2u);

  // Duplicate attach, unknown tenant, unknown tool, bad arity, unknown
  // verb: all rejected with a message, none crash the daemon.
  EXPECT_FALSE(
      Agg.executeControl("attach-tool team-a working_set", Ok).empty());
  EXPECT_FALSE(Ok);
  Agg.executeControl("attach-tool team-z working_set", Ok);
  EXPECT_FALSE(Ok);
  Agg.executeControl("attach-tool team-a no_such_tool", Ok);
  EXPECT_FALSE(Ok);
  Agg.executeControl("attach-tool team-a", Ok);
  EXPECT_FALSE(Ok);
  Agg.executeControl("self-destruct", Ok);
  EXPECT_FALSE(Ok);
  Agg.executeControl("", Ok);
  EXPECT_FALSE(Ok);

  // Detach freezes the tool's report but keeps it in the rollup.
  Response = Agg.executeControl("detach-tool team-a working_set", Ok);
  EXPECT_TRUE(Ok) << Response;
  EXPECT_EQ(T->session().tool("working_set"), nullptr);
  Agg.executeControl("detach-tool team-a working_set", Ok);
  EXPECT_FALSE(Ok);

  Response = Agg.executeControl("list-tenants", Ok);
  EXPECT_TRUE(Ok);
  EXPECT_NE(Response.find("team-a"), std::string::npos);
}

TEST(Reconfig, ControlSocketRoundTrip) {
  tools::registerBuiltinTools();
  serve::ServeOptions Opts;
  Opts.SocketPath = tempPath("ctl", ".sock");
  serve::Aggregator Agg(Opts);
  SessionError StartErr;
  ASSERT_TRUE(Agg.start(StartErr)) << StartErr.message();

  // The daemon sniffs the 8-byte magic to tell control requests from
  // trace streams on the same socket.
  std::string Response;
  SessionError Err;
  ASSERT_TRUE(serve::sendControlCommand(Opts.SocketPath, "list-tenants",
                                        Response, Err))
      << Err.message();
  EXPECT_EQ(Response, "no tenants\n");

  // Daemon-side errors come back as the client's Err message.
  Response.clear();
  EXPECT_FALSE(serve::sendControlCommand(
      Opts.SocketPath, "attach-tool ghost working_set", Response, Err));
  EXPECT_NE(Err.message().find("unknown tenant"), std::string::npos);

  Agg.requestStop();
  Agg.wait();

  // Transport errors are client-side failures, not hangs.
  EXPECT_FALSE(serve::sendControlCommand(tempPath("gone", ".sock"),
                                         "list-tenants", Response, Err));
}
