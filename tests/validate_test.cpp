//===- tests/validate_test.cpp - PASTA_VALIDATE contract validator --------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Seeded-violation tests for the runtime contract validator: each
// pipeline contract is deliberately broken (drifting subscription,
// Serial overlap/migration, released payload handles, flush from a
// dispatch lane, reconfiguration during an admission) and the
// collecting handler must see exactly the expected violation. Plus the
// other direction: validation off is the default and a validating
// pipeline produces byte-identical reports.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "pasta/Session.h"
#include "pasta/Validate.h"
#include "support/ReportSink.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace pasta;

namespace {

/// Collects violations instead of aborting; thread-safe (lane threads
/// report concurrently with the main thread).
class Collector {
public:
  void install(Validator &V) {
    V.setHandler([this](const ValidationViolation &X) {
      std::lock_guard<std::mutex> Lock(M);
      Seen.push_back(X);
    });
  }
  std::size_t count(ValidationViolation::Kind K) {
    std::lock_guard<std::mutex> Lock(M);
    std::size_t N = 0;
    for (const ValidationViolation &V : Seen)
      N += V.What == K;
    return N;
  }
  std::size_t total() {
    std::lock_guard<std::mutex> Lock(M);
    return Seen.size();
  }
  std::string firstMessage(ValidationViolation::Kind K) {
    std::lock_guard<std::mutex> Lock(M);
    for (const ValidationViolation &V : Seen)
      if (V.What == K)
        return V.Message;
    return std::string();
  }

private:
  std::mutex M;
  std::vector<ValidationViolation> Seen;
};

Subscription serialOn(std::initializer_list<EventKind> Kinds) {
  Subscription Sub;
  Sub.Kinds = EventKindMask(Kinds);
  Sub.Model = ExecutionModel::Serial;
  return Sub;
}

/// Well-behaved fixture tool with an exact, stable subscription.
class OpTool : public Tool {
public:
  std::string name() const override { return "op_tool"; }
  Subscription subscription() override {
    return serialOn({EventKind::OperatorStart});
  }
  void onOperatorStart(const Event &) override {
    Count.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<int> Count{0};
};

/// Misdeclared tool: subscription() answers differently on each call,
/// so the compiled routing tables and the tool disagree.
class DriftTool : public Tool {
public:
  std::string name() const override { return "drift_tool"; }
  Subscription subscription() override {
    return serialOn({Calls++ == 0 ? EventKind::KernelLaunch
                                  : EventKind::MemoryAlloc});
  }
  int Calls = 0;
};

/// Calls flush() from inside a hook — on a dispatch lane, the deadlock
/// contract break the validator must catch.
class FlushFromHookTool : public Tool {
public:
  std::string name() const override { return "flush_from_hook"; }
  Subscription subscription() override {
    return serialOn({EventKind::OperatorStart});
  }
  void onAttach(EventProcessor &P) override { Proc = &P; }
  void onOperatorStart(const Event &) override {
    if (Proc)
      Proc->flush();
  }
  EventProcessor *Proc = nullptr;
};

/// Parks inside its hook until released, so a test can hold one
/// synchronous process() call in flight on another thread.
class ParkedHookTool : public Tool {
public:
  std::string name() const override { return "parked_hook"; }
  Subscription subscription() override {
    return serialOn({EventKind::OperatorStart});
  }
  void onOperatorStart(const Event &) override {
    Entered.set_value();
    Released.wait();
  }
  std::promise<void> Entered;
  std::future<void> Released;
};

Event operatorStart(const char *Op) {
  Event E;
  E.Kind = EventKind::OperatorStart;
  E.OpName = PayloadString(Op);
  return E;
}

ProcessorOptions validatingAsync() {
  ProcessorOptions Opts;
  Opts.AsyncEvents = true;
  Opts.DispatchThreads = 1;
  Opts.Validate = true;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Plumbing: off by default, on via options/env/builder
//===----------------------------------------------------------------------===//

TEST(Validate, DefaultTracksBuildKnob) {
  // Off in a stock build; a -DPASTA_VALIDATE=ON build flips the
  // default everywhere, and every knob layer must agree with it.
  EXPECT_EQ(ProcessorOptions().Validate, validateDefault());
  EXPECT_EQ(SessionOptions().Pipeline.Validate, validateDefault());
  EventProcessor P(static_cast<std::size_t>(2));
  EXPECT_EQ(P.validator() != nullptr, validateDefault());
}

TEST(Validate, EnabledByOptions) {
  ProcessorOptions Opts;
  Opts.Validate = true;
  EventProcessor P(Opts);
  EXPECT_NE(P.validator(), nullptr);
}

TEST(Validate, SessionBuilderKnobReachesProcessor) {
  SessionError Err;
  auto S = SessionBuilder()
               .tool("kernel_frequency")
               .backend("cs-gpu")
               .gpu("A100")
               .model("bert")
               .validate()
               .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();
  ASSERT_NE(S->processor().validator(), nullptr);
  S->run();
  ValidatorStats Stats = S->processor().validator()->stats();
  EXPECT_GT(Stats.DeliveriesChecked, 0u) << "checks actually ran";
  EXPECT_EQ(Stats.Violations, 0u) << "a clean run stays clean";
}

//===----------------------------------------------------------------------===//
// Seeded violation: subscription drift at attach
//===----------------------------------------------------------------------===//

TEST(Validate, SubscriptionDriftDetectedAtAttach) {
  ProcessorOptions Opts;
  Opts.Validate = true;
  EventProcessor P(Opts);
  Collector C;
  C.install(*P.validator());

  DriftTool T;
  P.addTool(&T);
  EXPECT_EQ(C.count(ValidationViolation::Kind::SubscriptionDrift), 1u);
  EXPECT_NE(
      C.firstMessage(ValidationViolation::Kind::SubscriptionDrift)
          .find("drift_tool"),
      std::string::npos);
}

//===----------------------------------------------------------------------===//
// Seeded violations: delivery-time watchdogs (direct validator API —
// the compiled routes can't produce these, which is the point: the
// watchdog guards against routing bugs)
//===----------------------------------------------------------------------===//

TEST(Validate, SubscriptionMaskWatchdog) {
  Validator V;
  Collector C;
  C.install(V);
  OpTool T;
  V.registerTool(T, T.subscription(), 0);

  Event Ok = operatorStart("conv");
  V.beforeDelivery(T, Ok, Validator::InlineDelivery);
  V.afterDelivery(T);
  EXPECT_EQ(C.total(), 0u);

  Event Wrong;
  Wrong.Kind = EventKind::MemoryAlloc;
  V.beforeDelivery(T, Wrong, Validator::InlineDelivery);
  V.afterDelivery(T);
  EXPECT_EQ(C.count(ValidationViolation::Kind::SubscriptionMask), 1u);
}

TEST(Validate, SerialOverlapDetected) {
  Validator V;
  Collector C;
  C.install(V);
  OpTool T;
  V.registerTool(T, T.subscription(), 0);

  Event E = operatorStart("conv");
  V.beforeDelivery(T, E, Validator::InlineDelivery);
  // Second delivery while the first is still in flight: the Serial
  // contract is broken.
  V.beforeDelivery(T, E, Validator::InlineDelivery);
  EXPECT_EQ(C.count(ValidationViolation::Kind::SerialOverlap), 1u);
  V.afterDelivery(T);
  V.afterDelivery(T);

  // Sequential deliveries stay clean.
  V.beforeDelivery(T, E, Validator::InlineDelivery);
  V.afterDelivery(T);
  EXPECT_EQ(C.count(ValidationViolation::Kind::SerialOverlap), 1u);
}

TEST(Validate, SerialLaneMigrationDetected) {
  Validator V;
  Collector C;
  C.install(V);
  OpTool T;
  V.registerTool(T, T.subscription(), /*PinnedLane=*/1);

  Event E = operatorStart("conv");
  V.beforeDelivery(T, E, /*Lane=*/1);
  V.afterDelivery(T);
  V.beforeDelivery(T, E, Validator::InlineDelivery); // sync dispatch: exempt
  V.afterDelivery(T);
  EXPECT_EQ(C.total(), 0u);

  V.beforeDelivery(T, E, /*Lane=*/0);
  V.afterDelivery(T);
  EXPECT_EQ(C.count(ValidationViolation::Kind::SerialLaneMigration), 1u);
}

TEST(Validate, UnregisteredToolDetected) {
  Validator V;
  Collector C;
  C.install(V);
  OpTool T;
  Event E = operatorStart("conv");
  V.beforeDelivery(T, E, Validator::InlineDelivery);
  EXPECT_EQ(C.count(ValidationViolation::Kind::UnregisteredTool), 1u);
}

//===----------------------------------------------------------------------===//
// Seeded violations: payload ledger
//===----------------------------------------------------------------------===//

TEST(Validate, PayloadDoubleReleaseDetected) {
  Validator V;
  Collector C;
  C.install(V);

  int Dummy = 0;
  V.registerPayload(&Dummy, "string");
  EXPECT_TRUE(V.payloadLive(&Dummy));

  V.releasePayload(&Dummy);
  EXPECT_FALSE(V.payloadLive(&Dummy));
  EXPECT_EQ(C.total(), 0u) << "first release is legitimate";

  V.releasePayload(&Dummy);
  EXPECT_EQ(C.count(ValidationViolation::Kind::PayloadDoubleRelease), 1u);
}

TEST(Validate, UnknownReleaseDetected) {
  Validator V;
  Collector C;
  C.install(V);
  int Stray = 0;
  V.releasePayload(&Stray);
  EXPECT_EQ(C.count(ValidationViolation::Kind::PayloadUnknownRelease), 1u);
}

TEST(Validate, ArenaRegistersPayloadsWithLedger) {
  ProcessorOptions Opts = validatingAsync();
  EventProcessor P(Opts);
  Collector C;
  C.install(*P.validator());

  PayloadString Canonical = P.arena().internString(PayloadString("conv"));
  ASSERT_NE(Canonical.handle(), nullptr);
  EXPECT_TRUE(P.validator()->payloadLive(Canonical.handle().get()));
  EXPECT_GT(P.validator()->stats().PayloadsTracked, 0u);
}

TEST(Validate, PayloadUseAfterReleaseDetectedEndToEnd) {
  ProcessorOptions Opts = validatingAsync();
  EventProcessor P(Opts);
  Collector C;
  C.install(*P.validator());
  OpTool T;
  P.addTool(&T);

  // First event makes "conv" resident (registered with the ledger).
  P.process(operatorStart("conv"));
  P.flush();
  EXPECT_EQ(C.total(), 0u);
  EXPECT_EQ(T.Count.load(std::memory_order_relaxed), 1);

  // Release the canonical payload behind the pipeline's back, then send
  // an event whose admission interns to that same (released) handle.
  PayloadString Canonical = P.arena().internString(PayloadString("conv"));
  P.validator()->releasePayload(Canonical.handle().get());
  P.process(operatorStart("conv"));
  P.flush();
  EXPECT_GE(C.count(ValidationViolation::Kind::PayloadUseAfterRelease),
            1u);
  EXPECT_NE(
      C.firstMessage(ValidationViolation::Kind::PayloadUseAfterRelease)
          .find("op_tool"),
      std::string::npos);
}

//===----------------------------------------------------------------------===//
// Seeded violation: flush from a dispatch-lane thread
//===----------------------------------------------------------------------===//

TEST(Validate, FlushFromLaneDetectedWithoutDeadlock) {
  ProcessorOptions Opts = validatingAsync();
  EventProcessor P(Opts);
  Collector C;
  C.install(*P.validator());
  FlushFromHookTool T;
  P.addTool(&T);

  P.process(operatorStart("conv"));
  P.flush(); // would deadlock if the lane-side flush actually waited
  EXPECT_EQ(C.count(ValidationViolation::Kind::FlushFromLane), 1u);
}

//===----------------------------------------------------------------------===//
// Seeded violation: reconfiguration overlapping an admission
//===----------------------------------------------------------------------===//

TEST(Validate, ReconfigureDuringAdmissionDetected) {
  // The caller breaks the reconfiguration contract: addTool runs while a
  // synchronous hook is parked inside process() on another thread. The
  // swap must not wait for it, and the validator must report it once.
  ProcessorOptions Opts;
  Opts.Validate = true;
  EventProcessor P(Opts);
  Collector C;
  C.install(*P.validator());
  ParkedHookTool Parked;
  std::promise<void> Release;
  Parked.Released = Release.get_future();
  std::future<void> Entered = Parked.Entered.get_future();
  ASSERT_TRUE(P.addTool(&Parked));

  std::thread Producer([&P] { P.process(operatorStart("conv")); });
  Entered.wait();
  OpTool Late;
  EXPECT_TRUE(P.addTool(&Late));
  Release.set_value();
  Producer.join();

  EXPECT_EQ(C.count(ValidationViolation::Kind::ReconfigureDuringAdmission),
            1u);
  EXPECT_EQ(C.total(), 1u);
}

//===----------------------------------------------------------------------===//
// Non-interference: a validating pipeline produces identical results
//===----------------------------------------------------------------------===//

/// Runs the same deterministic workload through a processor and renders
/// the event_pipeline report (synchronous mode: no queue-timing
/// nondeterminism, so the whole report must match byte for byte).
std::string runSyncPipeline(bool Validate, int &ToolCount) {
  ProcessorOptions Opts;
  Opts.Validate = Validate;
  EventProcessor P(Opts);
  OpTool T;
  P.addTool(&T);
  for (int I = 0; I < 64; ++I) {
    P.process(operatorStart(I % 2 ? "conv" : "gemm"));
    Event Alloc;
    Alloc.Kind = EventKind::MemoryAlloc;
    Alloc.Bytes = 4096;
    P.process(Alloc);
  }
  ToolCount = T.Count.load(std::memory_order_relaxed);
  JsonReportSink Sink;
  P.reportPipeline(Sink);
  Sink.close();
  return Sink.str();
}

TEST(Validate, ValidationDoesNotPerturbReports) {
  int CountOff = 0, CountOn = 0;
  std::string Off = runSyncPipeline(false, CountOff);
  std::string On = runSyncPipeline(true, CountOn);
  EXPECT_EQ(CountOff, 64);
  EXPECT_EQ(CountOn, CountOff);
  EXPECT_EQ(Off, On) << "validation must observe, never alter";
}

TEST(Validate, AsyncResultsIdenticalWithValidation) {
  int Counts[2] = {0, 0};
  for (int Pass = 0; Pass < 2; ++Pass) {
    ProcessorOptions Opts = validatingAsync();
    Opts.Validate = Pass == 1;
    EventProcessor P(Opts);
    OpTool T;
    P.addTool(&T);
    for (int I = 0; I < 256; ++I)
      P.process(operatorStart("conv"));
    P.flush();
    Counts[Pass] = T.Count.load(std::memory_order_relaxed);
    if (Validator *V = P.validator()) {
      EXPECT_EQ(V->stats().Violations, 0u);
    }
  }
  EXPECT_EQ(Counts[0], 256);
  EXPECT_EQ(Counts[1], Counts[0]);
}

//===----------------------------------------------------------------------===//
// Violation kind names (stable diagnostics surface)
//===----------------------------------------------------------------------===//

TEST(Validate, ViolationKindNames) {
  EXPECT_STREQ(
      validationViolationName(ValidationViolation::Kind::SerialOverlap),
      "serial-overlap");
  EXPECT_STREQ(
      validationViolationName(ValidationViolation::Kind::FlushNotDrained),
      "flush-not-drained");
  EXPECT_STREQ(validationViolationName(
                   ValidationViolation::Kind::PayloadUseAfterRelease),
               "payload-use-after-release");
  EXPECT_STREQ(validationViolationName(
                   ValidationViolation::Kind::ReconfigureDuringAdmission),
               "reconfigure-during-admission");
}

} // namespace
