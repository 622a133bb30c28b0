//===- bench/bench_ablation_serve.cpp -------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation (real wall-clock): producer-side cost of fleet aggregation
// (docs/SERVE.md) — what does a profiled process pay to stream its
// admitted events to an `accelprof --serve` aggregator instead of
// capturing them to a local file?
//
// Matrix: clients {1,4,8} x payload repetition {hot,cold}.
//
//  * "hot"  — two kernels, two op names, heavy repetition: after the
//             first few events the wire cost per event is u32 table
//             refs, the best case for the once-per-connection payload
//             tables;
//  * "cold" — every event carries a distinct kernel/op-name payload,
//             so each one adds a definition record: the worst case.
//
// For each cell, C producer threads admit the same synthetic stream
// through a sync EventProcessor twice:
//
//  * "capture" — trace_capture to a private file (the PR 6 baseline);
//  * "forward" — stream_forward into one embedded Aggregator over a
//                Unix-domain socket (the PR 8 path).
//
// The figure is the slowest producer's admission wall-clock in each
// mode; the gate is forward <= 1.10x capture (producer overhead
// <= 10%). The gate is machine-aware: enforced only at full size and
// when hardware_concurrency >= clients + 2 — on fewer cores the
// aggregator's decode threads time-share with the producers and the
// ratio measures the scheduler, not the transport. Unenforced cells
// still print and record their ratios.
//
// Integrity (always enforced): the aggregator must admit exactly
// clients x events events for the cell's tenant, and every stream must
// be judged clean.
//
// --json <path> writes the figures (consumed by scripts/run_benches.py
// into BENCH_pr8.json); --events <N> sets the per-client stream
// length; --socket-dir <dir> overrides where sockets/files go.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "serve/Aggregator.h"
#include "tools/StreamForwardTool.h"
#include "tools/TraceCaptureTool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pasta;

namespace {

constexpr std::size_t DefaultEvents = 50000;

/// Synthetic admitted stream. Hot repeats two kernels and two op
/// names; cold makes every payload distinct (per client, so two
/// clients' tables do not alias either).
std::vector<Event> makeStream(std::size_t Count, bool Hot,
                              std::size_t Client) {
  auto Gemm = std::make_shared<const sim::KernelDesc>([] {
    sim::KernelDesc K;
    K.Name = "volta_sgemm_128x64";
    K.Grid = {64, 2, 1};
    K.Block = {256, 1, 1};
    K.StaticInstrs = 8192;
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
      if (Hot) {
        E.adoptKernel(I % 6 == 0 ? Conv : Gemm);
      } else {
        sim::KernelDesc K = *Gemm;
        K.Name = "kernel_c" + std::to_string(Client) + "_" +
                 std::to_string(I);
        E.adoptKernel(std::make_shared<const sim::KernelDesc>(K));
      }
      break;
    case 1:
      E.Kind = EventKind::OperatorStart;
      if (Hot) {
        E.OpName = I % 16 == 1 ? "aten::conv2d" : "aten::mm";
        E.LayerName = "layer" + std::to_string(I % 8);
      } else {
        E.OpName = "op_c" + std::to_string(Client) + "_" +
                   std::to_string(I);
        E.LayerName = "layer_c" + std::to_string(Client) + "_" +
                      std::to_string(I);
      }
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

/// Seconds the slowest of \p Clients producer threads spends admitting
/// its stream through a processor that carries the tool \p MakeTool
/// builds (capture or forwarder), including the tool's finalize.
template <typename MakeToolFn>
double producerSweep(std::size_t Clients, std::size_t EventCount, bool Hot,
                     MakeToolFn MakeTool, bool &Ok) {
  std::vector<double> Seconds(Clients, 0.0);
  std::vector<char> ThreadOk(Clients, 1);
  std::vector<std::thread> Threads;
  Threads.reserve(Clients);
  for (std::size_t C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      std::vector<Event> Stream = makeStream(EventCount, Hot, C);
      EventProcessor Processor;
      std::unique_ptr<Tool> T = MakeTool(C);
      if (!T) {
        ThreadOk[C] = 0;
        return;
      }
      Processor.addTool(T.get());
      auto Start = std::chrono::steady_clock::now();
      for (const Event &Premade : Stream)
        Processor.process(Premade);
      Processor.flush();
      T->onFinish();
      auto End = std::chrono::steady_clock::now();
      Seconds[C] = std::chrono::duration<double>(End - Start).count();
    });
  }
  for (std::thread &T : Threads)
    T.join();
  double Max = 0.0;
  for (std::size_t C = 0; C < Clients; ++C) {
    if (!ThreadOk[C])
      Ok = false;
    if (Seconds[C] > Max)
      Max = Seconds[C];
  }
  return Max;
}

struct CellResult {
  std::size_t Clients = 0;
  bool Hot = false;
  double CaptureSeconds = 0.0;
  double ForwardSeconds = 0.0;
  double Overhead = 0.0; // forward/capture - 1
  bool Enforced = false;
  bool Passed = true;
  bool IntegrityOk = false;
};

} // namespace

int main(int Argc, char **Argv) {
  std::size_t EventCount = DefaultEvents;
  const char *JsonPath = nullptr;
  std::string Dir = "/tmp";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--events") == 0 && I + 1 < Argc) {
      EventCount = static_cast<std::size_t>(std::atoll(Argv[++I]));
      if (EventCount == 0)
        EventCount = 1;
    } else if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--socket-dir") == 0 && I + 1 < Argc) {
      Dir = Argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--events N] [--json PATH] [--socket-dir D]\n",
                   Argv[0]);
      return 2;
    }
  }

  const unsigned Cores = std::thread::hardware_concurrency();
  const std::string Tag = std::to_string(::getpid());

  std::printf("==============================================================="
              "=================\n");
  std::printf("Ablation: fleet aggregation producer overhead "
              "(stream_forward vs trace_capture)\n");
  std::printf("==============================================================="
              "=================\n");
  std::printf("%zu events/client, %u hardware threads\n\n", EventCount,
              Cores);
  std::printf("%8s %8s | %12s %12s | %9s %s\n", "clients", "payload",
              "capture s", "forward s", "overhead", "gate (<=10%)");

  std::vector<CellResult> Cells;
  bool AllOk = true;
  for (std::size_t Clients : {std::size_t(1), std::size_t(4),
                              std::size_t(8)}) {
    for (bool Hot : {true, false}) {
      CellResult Cell;
      Cell.Clients = Clients;
      Cell.Hot = Hot;

      // Baseline: each producer captures to a private file.
      bool CapOk = true;
      Cell.CaptureSeconds = producerSweep(
          Clients, EventCount, Hot,
          [&](std::size_t C) -> std::unique_ptr<Tool> {
            std::string Path = Dir + "/bench_serve_" + Tag + "_c" +
                               std::to_string(C) + ".trace";
            auto Capture = std::make_unique<tools::TraceCaptureTool>(Path);
            SessionError Err;
            if (!Capture->openNow(Err)) {
              std::fprintf(stderr, "error: %s\n", Err.message().c_str());
              return nullptr;
            }
            return Capture;
          },
          CapOk);

      // Measured path: every producer forwards into one aggregator.
      serve::ServeOptions Opts;
      Opts.SocketPath = Dir + "/bench_serve_" + Tag + ".sock";
      Opts.ToolNames = {"kernel_frequency"};
      Opts.ReportDir = Dir + "/bench_serve_" + Tag + "_reports";
      Opts.Format = "json";
      serve::Aggregator Daemon(Opts);
      SessionError Err;
      if (!Daemon.start(Err)) {
        std::fprintf(stderr, "error: %s\n", Err.message().c_str());
        return 1;
      }
      bool FwdOk = true;
      Cell.ForwardSeconds = producerSweep(
          Clients, EventCount, Hot,
          [&](std::size_t) -> std::unique_ptr<Tool> {
            auto Fwd = std::make_unique<tools::StreamForwardTool>(
                Opts.SocketPath, "bench");
            SessionError OpenErr;
            if (!Fwd->openNow(OpenErr)) {
              std::fprintf(stderr, "error: %s\n",
                           OpenErr.message().c_str());
              return nullptr;
            }
            return Fwd;
          },
          FwdOk);
      Daemon.requestStop();
      Daemon.wait();

      // Integrity: the aggregator saw every event, every stream clean.
      serve::AggregatorStats Stats = Daemon.stats();
      SessionError LookupErr;
      serve::Tenant *T = Daemon.registry().getOrCreate("bench", LookupErr);
      Cell.IntegrityOk = CapOk && FwdOk && T &&
                         T->stats().EventsAdmitted ==
                             static_cast<std::uint64_t>(Clients) *
                                 EventCount &&
                         T->stats().CleanStreams == Clients &&
                         Stats.CorruptStreams == 0;

      Cell.Overhead = Cell.ForwardSeconds / Cell.CaptureSeconds - 1.0;
      // Machine-aware: with fewer cores the aggregator's decoding
      // time-shares with the producers and the ratio measures the
      // scheduler, not the transport.
      Cell.Enforced = EventCount >= 20000 && Cores >= Clients + 2;
      Cell.Passed = Cell.Overhead <= 0.10;
      if (!Cell.IntegrityOk || (Cell.Enforced && !Cell.Passed))
        AllOk = false;

      std::printf("%8zu %8s | %12.4f %12.4f | %8.1f%% %s%s%s\n", Clients,
                  Hot ? "hot" : "cold", Cell.CaptureSeconds,
                  Cell.ForwardSeconds, Cell.Overhead * 100.0,
                  Cell.Passed ? "PASS" : "over",
                  Cell.Enforced ? "" : " [not enforced]",
                  Cell.IntegrityOk ? "" : " INTEGRITY-FAIL");
      Cells.push_back(Cell);

      for (std::size_t C = 0; C < Clients; ++C)
        std::remove((Dir + "/bench_serve_" + Tag + "_c" +
                     std::to_string(C) + ".trace")
                        .c_str());
    }
  }

  if (JsonPath) {
    std::FILE *Out = std::fopen(JsonPath, "w");
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(Out, "{\n  \"bench\": \"ablation_serve\",\n");
    std::fprintf(Out, "  \"hardware_concurrency\": %u,\n", Cores);
    std::fprintf(Out, "  \"events_per_client\": %zu,\n", EventCount);
    std::fprintf(Out, "  \"cells\": [\n");
    for (std::size_t I = 0; I < Cells.size(); ++I) {
      const CellResult &Cell = Cells[I];
      std::fprintf(
          Out,
          "    {\"clients\": %zu, \"payload\": \"%s\", "
          "\"capture_seconds\": %.6f, \"forward_seconds\": %.6f, "
          "\"producer_overhead\": %.4f, \"gate\": {\"enforced\": %s, "
          "\"passed\": %s}, \"integrity_ok\": %s}%s\n",
          Cell.Clients, Cell.Hot ? "hot" : "cold", Cell.CaptureSeconds,
          Cell.ForwardSeconds, Cell.Overhead,
          Cell.Enforced ? "true" : "false", Cell.Passed ? "true" : "false",
          Cell.IntegrityOk ? "true" : "false",
          I + 1 < Cells.size() ? "," : "");
    }
    std::fprintf(Out, "  ]\n}\n");
    std::fclose(Out);
  }

  return AllOk ? 0 : 1;
}
