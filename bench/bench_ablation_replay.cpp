//===- bench/bench_ablation_replay.cpp ------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation (real wall-clock): the binary trace capture + replay path —
// capture once, analyze anywhere.
//
// Two timed phases over one synthetic payload-rich event stream:
//
//  * "live"   — the stream is admitted through a sync EventProcessor
//               feeding a Serial digest tool plus the trace_capture
//               sink, i.e. a profiled run that also pays for
//               serializing the trace to disk;
//  * "replay" — the captured file is re-admitted (TraceReader decodes
//               each record, payload tables re-interned into the
//               processor's arena up front) through an identical
//               processor + digest tool.
//
// Structural gates (exit code):
//  * the Serial digests of the live and the replayed stream must be
//    byte-identical — replay is the same stream, not a similar one;
//  * the reader must see exactly the events the writer captured;
//  * replay admission throughput must stay within 2x of live (>= 0.5x
//    live Mev/s) — decoding + refcount bumps must not be an order of
//    magnitude slower than the live intern path (enforced for
//    full-size runs; --events below 5000 — the CI smoke — still
//    prints the ratio).
//
// --json <path> writes the figures as JSON (consumed by
// scripts/run_benches.py into BENCH_pr6.json); --events <N> overrides
// the stream length; --trace <path> overrides the capture file.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "pasta/TraceReader.h"
#include "support/Format.h"
#include "tools/TraceCaptureTool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace pasta;

namespace {

constexpr std::size_t DefaultEvents = 200000;

/// Serial FNV-1a digest over every event's payload content and key
/// scalar fields — byte-identical digests mean byte-identical streams.
class StreamDigestTool : public Tool {
public:
  std::string name() const override { return "stream_digest"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.KernelTrace = true;
    return Sub;
  }
  void onEvent(const Event &E) override {
    fold(static_cast<std::uint64_t>(E.Kind));
    fold(E.Timestamp);
    fold(E.Address);
    fold(E.Bytes);
    fold(E.GridId);
    foldBytes(E.OpName.str());
    foldBytes(E.LayerName.str());
    for (const std::string &Frame : E.PythonStack)
      foldBytes(Frame);
    if (E.Kernel) {
      foldBytes(E.Kernel->Name);
      fold(E.Kernel->StaticInstrs);
      fold(E.Kernel->Segments.size());
    }
    if (E.Tensor) {
      foldBytes(E.Tensor->Name);
      fold(E.Tensor->Id);
    }
  }

  std::uint64_t Digest = 14695981039346656037ull;

private:
  void fold(std::uint64_t Value) {
    for (int Shift = 0; Shift < 64; Shift += 8)
      Digest = (Digest ^ ((Value >> Shift) & 0xff)) * 1099511628211ull;
  }
  void foldBytes(const std::string &S) {
    for (char C : S)
      Digest = (Digest ^ static_cast<unsigned char>(C)) * 1099511628211ull;
  }
};

/// Payload-rich synthetic stream: kernel launches (two descriptors),
/// operator events (hot op names + stacks), memory copies — the same
/// shape the arena and admission benches use, so dedup has real work.
std::vector<Event> makeStream(std::size_t Count) {
  auto Gemm = std::make_shared<const sim::KernelDesc>([] {
    sim::KernelDesc K;
    K.Name = "volta_sgemm_128x64";
    K.Grid = {64, 2, 1};
    K.Block = {256, 1, 1};
    K.StaticInstrs = 8192;
    sim::AccessSegment Seg;
    Seg.Base = 0x10000;
    Seg.Extent = 1 << 20;
    Seg.AccessBytes = 1 << 22;
    K.Segments = {Seg};
    return K;
  }());
  auto Conv = std::make_shared<const sim::KernelDesc>([] {
    sim::KernelDesc K;
    K.Name = "implicit_convolve_sgemm";
    K.Grid = {32, 4, 2};
    K.Block = {128, 1, 1};
    K.StaticInstrs = 16384;
    return K;
  }());

  std::vector<Event> Events;
  Events.reserve(Count);
  for (std::size_t I = 0; I < Count; ++I) {
    Event E;
    switch (I % 3) {
    case 0:
      E.Kind = EventKind::KernelLaunch;
      E.GridId = I + 1;
      E.adoptKernel(I % 6 == 0 ? Conv : Gemm);
      break;
    case 1:
      E.Kind = EventKind::OperatorStart;
      E.OpName = I % 16 == 1 ? "aten::conv2d" : "aten::mm";
      E.LayerName = "layer" + std::to_string(I % 8);
      E.PythonStack = {"train.py:42 step", "model.py:7 forward"};
      break;
    default:
      E.Kind = EventKind::MemoryCopy;
      E.Address = 0x1000 * I;
      E.Bytes = 4096;
      break;
    }
    E.Timestamp = 500 * I;
    Events.push_back(std::move(E));
  }
  return Events;
}

} // namespace

int main(int Argc, char **Argv) {
  std::size_t EventCount = DefaultEvents;
  const char *JsonPath = nullptr;
  std::string TracePath = "/tmp/bench_ablation_replay.trace";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--events") == 0 && I + 1 < Argc) {
      EventCount = static_cast<std::size_t>(std::atoll(Argv[++I]));
      if (EventCount == 0)
        EventCount = 1;
    } else if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--trace") == 0 && I + 1 < Argc) {
      TracePath = Argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--events N] [--json PATH] [--trace PATH]\n",
                   Argv[0]);
      return 2;
    }
  }

  std::printf("==============================================================="
              "=================\n");
  std::printf("Ablation: binary trace capture + replay (capture once, "
              "analyze anywhere)\n");
  std::printf("==============================================================="
              "=================\n");
  std::printf("%zu events, trace file %s\n\n", EventCount, TracePath.c_str());

  std::vector<Event> Stream = makeStream(EventCount);

  // Live phase: digest + capture through the sync admission path.
  double LiveSeconds = 0.0;
  std::uint64_t LiveDigest = 0;
  std::uint64_t TraceBytes = 0;
  {
    EventProcessor Processor;
    StreamDigestTool Digest;
    tools::TraceCaptureTool Capture(TracePath);
    SessionError Err;
    if (!Capture.openNow(Err)) {
      std::fprintf(stderr, "error: %s\n", Err.message().c_str());
      return 1;
    }
    Processor.addTool(&Digest);
    Processor.addTool(&Capture);

    auto Start = std::chrono::steady_clock::now();
    for (const Event &Premade : Stream)
      Processor.process(Premade);
    Processor.flush();
    auto End = std::chrono::steady_clock::now();
    Capture.onFinish(); // finalize + close the trace
    LiveSeconds = std::chrono::duration<double>(End - Start).count();
    LiveDigest = Digest.Digest;
    TraceBytes = Capture.stats().BytesWritten;
  }

  // Replay phase: decode + re-admit through an identical processor.
  TraceReader Reader;
  SessionError Err;
  if (!Reader.open(TracePath, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 1;
  }
  double ReplaySeconds = 0.0;
  std::uint64_t ReplayDigest = 0;
  std::uint64_t Replayed = 0;
  {
    EventProcessor Processor;
    StreamDigestTool Digest;
    Processor.addTool(&Digest);
    auto Start = std::chrono::steady_clock::now();
    Reader.forEachEvent(&Processor.arena(), [&](Event &E) {
      ++Replayed;
      Processor.process(std::move(E));
    });
    Processor.flush();
    auto End = std::chrono::steady_clock::now();
    ReplaySeconds = std::chrono::duration<double>(End - Start).count();
    ReplayDigest = Digest.Digest;
  }

  const double LiveMeps =
      static_cast<double>(EventCount) / LiveSeconds / 1e6;
  const double ReplayMeps =
      static_cast<double>(Replayed) / ReplaySeconds / 1e6;
  const double Ratio = ReplayMeps / LiveMeps;
  const bool DigestsIdentical = LiveDigest == ReplayDigest;
  const bool CountsMatch =
      Replayed == EventCount && Reader.info().Events == EventCount;

  std::printf("live   (digest + capture): %8.2f Mev/s\n", LiveMeps);
  std::printf("replay (decode + digest):  %8.2f Mev/s  (%.2fx live)\n",
              ReplayMeps, Ratio);
  std::printf("trace: %llu bytes for %zu events (%.1f bytes/event, "
              "%llu strings / %llu stacks / %llu kernels in the tables)\n",
              static_cast<unsigned long long>(TraceBytes), EventCount,
              static_cast<double>(TraceBytes) /
                  static_cast<double>(EventCount),
              static_cast<unsigned long long>(Reader.info().Strings),
              static_cast<unsigned long long>(Reader.info().Stacks),
              static_cast<unsigned long long>(Reader.info().Kernels));
  std::printf("serial stream digest: %s\n",
              DigestsIdentical ? "byte-identical" : "MISMATCH");
  if (!CountsMatch)
    std::printf("FATAL: event counts diverge (sent %zu, trace %llu, "
                "replayed %llu)\n",
                EventCount,
                static_cast<unsigned long long>(Reader.info().Events),
                static_cast<unsigned long long>(Replayed));

  // Throughput gate: replay admission (decode + refcount bumps) must
  // stay within 2x of the live path. Only meaningful at full size —
  // the CI smoke run measures nothing, it checks the harness.
  const bool GateEnforced = EventCount >= 5000;
  const bool GatePassed = Ratio >= 0.5;
  std::printf("replay throughput gate (>= 0.5x live): %.2fx -> %s%s\n",
              Ratio, GatePassed ? "PASS" : "below 0.5x",
              GateEnforced ? "" : " [not enforced at this --events]");

  if (JsonPath) {
    std::FILE *Out = std::fopen(JsonPath, "w");
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(Out, "{\n  \"bench\": \"ablation_replay\",\n");
    std::fprintf(Out, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(Out, "  \"events\": %zu,\n", EventCount);
    std::fprintf(Out, "  \"live_meps\": %.3f,\n", LiveMeps);
    std::fprintf(Out, "  \"replay_meps\": %.3f,\n", ReplayMeps);
    std::fprintf(Out, "  \"replay_vs_live\": %.3f,\n", Ratio);
    std::fprintf(Out, "  \"trace_bytes\": %llu,\n",
                 static_cast<unsigned long long>(TraceBytes));
    std::fprintf(Out, "  \"digests_identical\": %s,\n",
                 DigestsIdentical ? "true" : "false");
    std::fprintf(Out, "  \"counts_match\": %s,\n",
                 CountsMatch ? "true" : "false");
    std::fprintf(Out,
                 "  \"gate_replay_throughput\": {\"enforced\": %s, "
                 "\"passed\": %s}\n}\n",
                 GateEnforced ? "true" : "false",
                 GatePassed ? "true" : "false");
    std::fclose(Out);
  }

  return (DigestsIdentical && CountsMatch && (!GateEnforced || GatePassed))
             ? 0
             : 1;
}
