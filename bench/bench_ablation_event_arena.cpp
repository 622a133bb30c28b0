//===- bench/bench_ablation_event_arena.cpp -------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation (real wall-clock): dispatch lanes x payload size vs the cost
// of fanning one event out to several subscriber lanes.
//
// Before the shared immutable event arena, every per-lane copy of an
// Event deep-copied its payload strings (operator names, layer paths,
// Python stacks), so fan-out cost scaled with the subscriber count. Now
// admission interns every payload once and the per-lane copies are
// refcount bumps. Two measurements make that visible:
//
//  * "shared" rows dispatch events whose payloads are arena handles —
//    the steady state of the pipeline;
//  * "copy-emulated" rows make each subscribing tool deep-copy the
//    payload on delivery, reproducing the pre-arena per-lane cost for
//    comparison on the same machine.
//
// Structural gates (exit code):
//  * across all subscriber lanes, the number of distinct payload
//    allocations observed equals the number of distinct payloads fed in
//    — per-lane payload copies are eliminated (storage does not scale
//    with the subscriber count);
//  * a Serial digest tool folding payload bytes must produce
//    byte-identical digests under sync, 1-lane and 4-lane dispatch
//    (single producer).
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "support/Units.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

using namespace pasta;

namespace {

constexpr std::size_t SubscriberCount = 4;
constexpr std::uint64_t EventsPerRun = 20000;
constexpr std::size_t DistinctPayloads = 16;

/// One payload size class of the sweep.
struct PayloadSpec {
  const char *Name;
  std::size_t OpNameBytes;   ///< operator-name length
  std::size_t StackFrames;   ///< Python frames per event (0 = none)
  std::size_t FrameBytes;    ///< bytes per frame
};

/// The distinct payload values one run cycles through.
struct PayloadSet {
  std::vector<std::string> OpNames;
  std::vector<std::vector<std::string>> Stacks;
};

PayloadSet makePayloads(const PayloadSpec &Spec) {
  PayloadSet Set;
  for (std::size_t I = 0; I < DistinctPayloads; ++I) {
    std::string Op = "aten::op" + std::to_string(I) + "_";
    while (Op.size() < Spec.OpNameBytes)
      Op += 'x';
    Set.OpNames.push_back(Op);
    std::vector<std::string> Stack;
    for (std::size_t F = 0; F < Spec.StackFrames; ++F) {
      std::string Frame =
          "model.py:" + std::to_string(100 + F) + " layer" +
          std::to_string(I) + " ";
      while (Frame.size() < Spec.FrameBytes)
        Frame += 'y';
      Stack.push_back(Frame);
    }
    Set.Stacks.push_back(std::move(Stack));
  }
  return Set;
}

/// Serial subscriber: checksums the payload (forcing a read), records
/// every distinct payload allocation it sees, and — in copy-emulation
/// mode — deep-copies the payload the way pre-arena per-lane fan-out
/// did.
class SubscriberTool : public Tool {
public:
  SubscriberTool(std::string ToolName, bool EmulateCopies)
      : ToolName(std::move(ToolName)), EmulateCopies(EmulateCopies) {}

  std::string name() const override { return ToolName; }

  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::OperatorStart};
    Sub.Model = ExecutionModel::Serial;
    return Sub;
  }

  void onOperatorStart(const Event &E) override {
    if (EmulateCopies) {
      // Pre-arena behavior: every lane owned private payload bytes.
      std::string Op(E.OpName.str());
      std::vector<std::string> Stack(E.PythonStack.frames());
      Checksum += Op.size();
      for (const std::string &Frame : Stack)
        Checksum += Frame.size();
    } else {
      Checksum += E.OpName.size();
      for (const std::string &Frame : E.PythonStack)
        Checksum += Frame.size();
    }
    if (E.OpName.handle())
      Allocations.insert(E.OpName.handle().get());
    if (E.PythonStack.handle())
      Allocations.insert(E.PythonStack.handle().get());
  }

  /// Only valid after flush() (the drain barrier orders the lane's hook
  /// writes before the reader; Serial tools need no hook-side locking).
  const std::set<const void *> &allocations() const { return Allocations; }

  /// Folded into the run result (keeps the payload reads observable).
  std::uint64_t Checksum = 0;

private:
  std::string ToolName;
  bool EmulateCopies;
  std::set<const void *> Allocations;
};

/// Serial digest over payload *content* — the determinism probe.
class PayloadDigestTool : public Tool {
public:
  std::string name() const override { return "payload_digest"; }

  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::OperatorStart};
    Sub.Model = ExecutionModel::Serial;
    return Sub;
  }

  void onOperatorStart(const Event &E) override {
    for (char C : E.OpName.str())
      Digest = (Digest ^ static_cast<unsigned char>(C)) * 1099511628211ull;
    for (const std::string &Frame : E.PythonStack)
      for (char C : Frame)
        Digest =
            (Digest ^ static_cast<unsigned char>(C)) * 1099511628211ull;
  }

  std::uint64_t Digest = 14695981039346656037ull;
};

ProcessorOptions laneOptions(std::size_t LaneCount) {
  ProcessorOptions Opts;
  Opts.AsyncEvents = LaneCount > 0;
  Opts.QueueDepth = 2048;
  Opts.DispatchThreads = LaneCount;
  return Opts;
}

Event payloadEvent(const PayloadSet &Set, std::uint64_t Seq) {
  const std::size_t I = Seq % DistinctPayloads;
  Event E;
  E.Kind = EventKind::OperatorStart;
  E.OpName = Set.OpNames[I];
  if (!Set.Stacks[I].empty())
    E.PythonStack = Set.Stacks[I];
  return E;
}

struct RunResult {
  double Millis = 0.0;
  std::size_t DistinctAllocations = 0; ///< union across all subscribers
  std::uint64_t Checksum = 0;
  ProcessorStats Stats;
};

RunResult runSweep(const PayloadSet &Set, std::size_t LaneCount,
                   bool EmulateCopies) {
  EventProcessor Processor(laneOptions(LaneCount));
  std::vector<std::unique_ptr<SubscriberTool>> Tools;
  for (std::size_t I = 0; I < SubscriberCount; ++I)
    Tools.push_back(std::make_unique<SubscriberTool>(
        "subscriber" + std::to_string(I), EmulateCopies));
  for (auto &T : Tools)
    Processor.addTool(T.get());

  auto Start = std::chrono::steady_clock::now();
  for (std::uint64_t Seq = 0; Seq < EventsPerRun; ++Seq)
    Processor.process(payloadEvent(Set, Seq));
  Processor.flush();
  auto End = std::chrono::steady_clock::now();

  RunResult Result;
  Result.Millis =
      std::chrono::duration<double, std::milli>(End - Start).count();
  std::set<const void *> Union;
  for (auto &T : Tools) {
    for (const void *P : T->allocations())
      Union.insert(P);
    Result.Checksum ^= T->Checksum;
  }
  Result.DistinctAllocations = Union.size();
  Result.Stats = Processor.stats();
  return Result;
}

std::uint64_t digestRun(const PayloadSet &Set, std::size_t LaneCount) {
  EventProcessor Processor(laneOptions(LaneCount));
  PayloadDigestTool Digest;
  SubscriberTool Noise("noise", /*EmulateCopies=*/false);
  Processor.addTool(&Digest);
  Processor.addTool(&Noise);
  for (std::uint64_t Seq = 0; Seq < 2000; ++Seq)
    Processor.process(payloadEvent(Set, Seq));
  Processor.flush();
  return Digest.Digest;
}

} // namespace

int main() {
  std::printf("==============================================================="
              "=================\n");
  std::printf("Ablation: dispatch lanes x payload size (shared immutable "
              "event arena)\n"
              "  (zero-copy fan-out: per-lane payload copies replaced by "
              "refcounted handles)\n");
  std::printf("==============================================================="
              "=================\n");
  std::printf("%llu OperatorStart events, %zu distinct payloads, %zu Serial "
              "subscriber lanes\n\n",
              static_cast<unsigned long long>(EventsPerRun),
              DistinctPayloads, SubscriberCount);

  const PayloadSpec Specs[] = {
      {"small (24 B op name)", 24, 0, 0},
      {"medium (64 B op + 4x96 B stack)", 64, 4, 96},
      {"large (64 B op + 32x128 B stack)", 64, 32, 128},
  };

  bool SharedOk = true;
  for (const PayloadSpec &Spec : Specs) {
    PayloadSet Set = makePayloads(Spec);
    std::printf("payload class: %s\n", Spec.Name);
    TablePrinter Table({"Dispatch Lanes", "Shared", "Copy-Emulated",
                        "Distinct Allocs", "Arena Hits", "Arena Bytes"});
    for (std::size_t LaneCount : {std::size_t(0), std::size_t(1),
                                  std::size_t(2), std::size_t(4)}) {
      RunResult Shared = runSweep(Set, LaneCount, false);
      RunResult Copied = runSweep(Set, LaneCount, true);
      if (Shared.Checksum != Copied.Checksum)
        SharedOk = false; // both modes must have read identical payloads
      // Expected distinct allocations: one per distinct op name, plus
      // one per distinct stack payload (async only; sync borrows).
      if (LaneCount > 0) {
        std::size_t Expected =
            DistinctPayloads * (Spec.StackFrames > 0 ? 2 : 1);
        if (Shared.DistinctAllocations != Expected)
          SharedOk = false;
      }
      Table.addRow(
          {LaneCount == 0 ? "sync (inline)" : std::to_string(LaneCount),
           format("%.1f ms", Shared.Millis),
           format("%.1f ms", Copied.Millis),
           std::to_string(Shared.DistinctAllocations),
           std::to_string(Shared.Stats.ArenaHits),
           formatBytes(Shared.Stats.ArenaBytes)});
    }
    Table.print(stdout);
    std::printf("\n");
  }

  PayloadSet DigestSet = makePayloads(Specs[2]);
  std::uint64_t SyncDigest = digestRun(DigestSet, 0);
  std::uint64_t OneLane = digestRun(DigestSet, 1);
  std::uint64_t FourLane = digestRun(DigestSet, 4);
  bool Deterministic = SyncDigest == OneLane && SyncDigest == FourLane;
  std::printf("serial payload digest: sync=%016llx "
              "1-lane=%016llx 4-lane=%016llx -> %s\n",
              static_cast<unsigned long long>(SyncDigest),
              static_cast<unsigned long long>(OneLane),
              static_cast<unsigned long long>(FourLane),
              Deterministic ? "byte-identical" : "MISMATCH");
  std::printf("zero-copy gate (distinct allocations == distinct payloads, "
              "independent of %zu subscriber lanes): %s\n",
              SubscriberCount, SharedOk ? "PASS" : "FAIL");

  std::printf("\nfan-out cost no longer scales with the subscriber count: "
              "every lane shares the one interned payload the producer "
              "admitted.\n");
  return (Deterministic && SharedOk) ? 0 : 1;
}
