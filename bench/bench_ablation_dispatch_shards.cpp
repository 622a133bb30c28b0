//===- bench/bench_ablation_dispatch_shards.cpp ---------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation (real wall-clock): dispatch-lane count x tool mix vs dispatch
// throughput of the asynchronous dispatch unit (paper §III-B, made
// concurrent). Tools declare concurrency contracts — Serial tools are
// pinned to one lane each, ShardByDevice/Concurrent tools run on each
// event's home lane — so lanes buy two kinds of parallelism:
//
//  * tool-level: several Serial tools land on different lanes and
//    analyze the same event stream concurrently;
//  * event-level: sharded/concurrent tools analyze different devices'
//    events concurrently.
//
// Each synthetic tool charges a fixed per-event analysis latency
// (sleep-dominated, standing in for lock waits / allocator stalls /
// cache-miss-bound analysis), so the sweep measures dispatch-unit
// concurrency rather than this machine's core count.
//
// A determinism check closes the table: a Serial digest tool must see
// the byte-identical event sequence under sync, 1-lane async and 4-lane
// async dispatch (single producer).
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "support/TablePrinter.h"
#include "support/Format.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

using namespace pasta;

namespace {

constexpr int Devices = 8;
constexpr std::uint64_t EventsPerRun = 1200;
constexpr unsigned AnalysisLatencyUs = 25;

/// One synthetic analysis tool: fixed per-event latency plus a checksum
/// so the work cannot be optimized away. Atomic state, so every contract
/// it declares is honest.
class PayloadTool : public Tool {
public:
  PayloadTool(std::string ToolName, ExecutionModel Model)
      : ToolName(std::move(ToolName)), Model(Model) {}

  std::string name() const override { return ToolName; }

  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::MemoryCopy};
    Sub.Model = Model;
    return Sub;
  }

  void onMemoryCopy(const Event &E) override {
    std::this_thread::sleep_for(
        std::chrono::microseconds(AnalysisLatencyUs));
    Checksum.fetch_add(E.Address ^ static_cast<std::uint64_t>(
                                       E.DeviceIndex),
                       std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> Checksum{0};

private:
  std::string ToolName;
  ExecutionModel Model;
};

/// Serial tool folding the event stream into an order-sensitive digest
/// (FNV-1a over kind/address/device) — the determinism probe.
class DigestTool : public Tool {
public:
  std::string name() const override { return "digest"; }

  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::MemoryCopy, EventKind::MemoryAlloc,
                 EventKind::KernelLaunch};
    Sub.Model = ExecutionModel::Serial;
    return Sub;
  }

  void onEvent(const Event &E) override {
    auto Mix = [this](std::uint64_t Value) {
      Digest = (Digest ^ Value) * 1099511628211ull;
    };
    Mix(static_cast<std::uint64_t>(E.Kind));
    Mix(E.Address);
    Mix(static_cast<std::uint64_t>(E.DeviceIndex));
    Mix(E.GridId);
  }

  std::uint64_t Digest = 14695981039346656037ull;
};

struct MixSpec {
  const char *Name;
  std::vector<ExecutionModel> Tools;
};

Event copyEvent(std::uint64_t Seq) {
  Event E;
  E.Kind = EventKind::MemoryCopy;
  E.Address = Seq;
  E.Bytes = 4096;
  E.DeviceIndex = static_cast<int>(Seq % Devices);
  return E;
}

ProcessorOptions laneOptions(std::size_t LaneCount) {
  ProcessorOptions Opts;
  Opts.AsyncEvents = LaneCount > 0;
  Opts.QueueDepth = 1024;
  Opts.DispatchThreads = LaneCount;
  return Opts;
}

/// Feeds the fixed stream through \p LaneCount lanes (0 = synchronous
/// inline dispatch) and returns the wall milliseconds to drain it.
double runMix(const MixSpec &Mix, std::size_t LaneCount) {
  EventProcessor Processor(laneOptions(LaneCount));
  std::vector<std::unique_ptr<PayloadTool>> Tools;
  for (std::size_t I = 0; I < Mix.Tools.size(); ++I)
    Tools.push_back(std::make_unique<PayloadTool>(
        "payload" + std::to_string(I), Mix.Tools[I]));
  for (auto &T : Tools)
    Processor.addTool(T.get());

  auto Start = std::chrono::steady_clock::now();
  for (std::uint64_t Seq = 0; Seq < EventsPerRun; ++Seq)
    Processor.process(copyEvent(Seq));
  Processor.flush();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

/// Runs a fixed mixed stream through a Serial digest tool; every
/// dispatch configuration must produce the same digest.
std::uint64_t digestRun(std::size_t LaneCount) {
  EventProcessor Processor(laneOptions(LaneCount));
  DigestTool Digest;
  // A concurrent payload tool rides along so multi-lane runs actually
  // exercise cross-lane fan-out (zero-latency would hide nothing).
  PayloadTool Noise("noise", ExecutionModel::Concurrent);
  Processor.addTool(&Digest);
  Processor.addTool(&Noise);

  for (std::uint64_t Seq = 0; Seq < 300; ++Seq) {
    Event E = copyEvent(Seq);
    if (Seq % 7 == 0) {
      E.Kind = EventKind::MemoryAlloc;
      E.Bytes = 64;
    } else if (Seq % 5 == 0) {
      E.Kind = EventKind::KernelLaunch;
      E.GridId = Seq;
    }
    Processor.process(std::move(E));
  }
  Processor.flush();
  return Digest.Digest;
}

std::string millis(double Value) { return format("%.1f ms", Value); }

std::string throughput(double Millis) {
  return format("%.0f ev/s",
                static_cast<double>(EventsPerRun) / (Millis / 1000.0));
}

} // namespace

int main() {
  std::printf("==============================================================="
              "=================\n");
  std::printf("Ablation: dispatch lanes x tool mix (sharded dispatch unit)\n"
              "  (extends the paper's SIII-B dispatch unit with "
              "subscription-routed lanes)\n");
  std::printf("==============================================================="
              "=================\n");
  std::printf("%llu MemoryCopy events over %d devices; each tool charges "
              "%u us/event analysis latency\n\n",
              static_cast<unsigned long long>(EventsPerRun), Devices,
              AnalysisLatencyUs);

  const MixSpec Mixes[] = {
      {"4x serial", {ExecutionModel::Serial, ExecutionModel::Serial,
                     ExecutionModel::Serial, ExecutionModel::Serial}},
      {"4x concurrent",
       {ExecutionModel::Concurrent, ExecutionModel::Concurrent,
        ExecutionModel::Concurrent, ExecutionModel::Concurrent}},
      {"2x shard + 2x concurrent",
       {ExecutionModel::ShardByDevice, ExecutionModel::ShardByDevice,
        ExecutionModel::Concurrent, ExecutionModel::Concurrent}},
  };

  bool SpeedupOk = true;
  for (const MixSpec &Mix : Mixes) {
    std::printf("tool mix: %s\n", Mix.Name);
    TablePrinter Table(
        {"Dispatch Lanes", "Wall Time", "Throughput", "vs 1 lane"});
    double Sync = runMix(Mix, 0);
    Table.addRow({"sync (inline)", millis(Sync), throughput(Sync), "-"});
    double OneLane = 0.0;
    for (std::size_t LaneCount : {1u, 2u, 4u, 8u}) {
      double Millis = runMix(Mix, LaneCount);
      if (LaneCount == 1)
        OneLane = Millis;
      double Speedup = OneLane / Millis;
      Table.addRow({std::to_string(LaneCount), millis(Millis),
                    throughput(Millis), format("%.2fx", Speedup)});
      // Acceptance gate: >= 1.5x at 4 lanes on the mixes with >= 3
      // sharded/concurrent tools.
      if (LaneCount == 4 && Mix.Tools.size() >= 3 &&
          Mix.Tools.front() != ExecutionModel::Serial && Speedup < 1.5)
        SpeedupOk = false;
    }
    Table.print(stdout);
    std::printf("\n");
  }

  std::uint64_t SyncDigest = digestRun(0);
  std::uint64_t OneLaneDigest = digestRun(1);
  std::uint64_t FourLaneDigest = digestRun(4);
  bool Deterministic =
      SyncDigest == OneLaneDigest && SyncDigest == FourLaneDigest;
  std::printf("serial-tool determinism: sync=%016llx "
              "1-lane=%016llx 4-lane=%016llx -> %s\n",
              static_cast<unsigned long long>(SyncDigest),
              static_cast<unsigned long long>(OneLaneDigest),
              static_cast<unsigned long long>(FourLaneDigest),
              Deterministic ? "byte-identical" : "MISMATCH");
  std::printf("4-lane speedup gate (>=1.5x on >=3 concurrent/sharded "
              "tools): %s\n",
              SpeedupOk ? "PASS" : "FAIL");

  std::printf("\nserial mixes scale by spreading tools across lanes; "
              "concurrent/sharded mixes scale by spreading devices — "
              "both without losing Serial tools' deterministic, "
              "single-lane contract.\n");
  return (Deterministic && SpeedupOk) ? 0 : 1;
}
