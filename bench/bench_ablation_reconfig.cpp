//===- bench/bench_ablation_reconfig.cpp ----------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation (real wall-clock): what the epoch-swapped routing machinery
// costs an event stream that never reconfigures. Every admission now
// pays a striped-gate entry/exit (one uncontended seq_cst RMW each
// way) plus one acquire load of the epoch table pointer; the sealed
// baseline — the pre-reconfiguration design, where the route set froze
// at the first event — paid neither.
//
// The bench replays the same MemoryCopy stream through:
//
//  * "sealed baseline" — an in-bench replica of the sealed synchronous
//    dispatch path, faithful down to the admission filter branches,
//    the index-vector route walk with per-entry lane checks, the
//    invoke() kind switch and the events_processed counter — but
//    reading a plain (non-atomic, never-republished) table pointer
//    with no admission gate;
//  * "epoch-swapped" — the production EventProcessor in synchronous
//    mode, which routes every event through the admission gate and
//    the epoch-published table.
//
// Both sides run the identical tool pair (one Serial + one Concurrent)
// so the delta isolates the reconfiguration machinery. Runs are
// interleaved and best-of-N to shed scheduler noise. Two cost cells:
//
//  * "empty tools" — the tools do a couple of ALU ops per event. Pure
//    machinery microbenchmark: nothing dilutes the gate, so the
//    percentage is the absolute worst case. Reported, never gated (no
//    real tool is free).
//  * "representative tools" — each tool charges ~1 us of analysis
//    work per event (the dispatch_shards convention: synthetic
//    latency standing in for hash-map updates / interval bookkeeping
//    real tools do). This is the cell the steady-state overhead gate
//    judges.
//
// Structural gates (exit code):
//  * representative-cell overhead <= 2% (enforced for full-size runs
//    on >= 2 hardware threads — at CI-smoke event counts or on one
//    core the ratio is printed but not enforced, the established
//    bench precedent);
//  * both sides must produce identical checksums in every cell (proof
//    they executed the same tool work).
//
// A second, ungated table times the reconfiguration itself: attach /
// detach swaps against a loaded 4-lane async pipeline (each swap
// quiesces admission, drains every lane, republishes). Reported as
// min/median/max so BENCH_pr9.json tracks swap latency per PR.
//
// --json <path> writes the figures for scripts/run_benches.py;
// --events <N> overrides the per-run event count.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "support/Format.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using namespace pasta;

namespace {

constexpr std::size_t DefaultEvents = 2000000;
constexpr std::size_t Repetitions = 5;
constexpr std::size_t SwapCycles = 24;
/// xorshift rounds per event for the representative cell — calibrated
/// to ~1 us on current hardware, the order of a real tool's per-event
/// hash-map/interval work.
constexpr std::uint64_t RepresentativeSpin = 600;

/// Checksum tool with a tunable per-event analysis charge. Spin = 0 is
/// the empty-tool cell; the xorshift chain feeds the checksum so the
/// work cannot be optimized away.
class ChecksumTool : public Tool {
public:
  ChecksumTool(ExecutionModel Model, std::uint64_t Spin)
      : Model(Model), Spin(Spin) {}

  std::string name() const override { return "checksum"; }

  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::MemoryCopy};
    Sub.Model = Model;
    return Sub;
  }

  void onMemoryCopy(const Event &E) override {
    std::uint64_t X = E.Address * 2654435761ull + E.Bytes;
    for (std::uint64_t I = 0; I < Spin; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
    }
    Checksum.fetch_add(X, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> Checksum{0};

private:
  ExecutionModel Model;
  std::uint64_t Spin;
};

Event copyEvent(std::uint64_t Seq) {
  Event E;
  E.Kind = EventKind::MemoryCopy;
  E.Address = Seq;
  E.Bytes = 4096;
  E.DeviceIndex = static_cast<int>(Seq & 7);
  return E;
}

//===----------------------------------------------------------------------===//
// Sealed baseline: the pre-epoch synchronous dispatch path, faithfully
//===----------------------------------------------------------------------===//

/// The sealed design's routing state and dispatch loop, replicated
/// structure-for-structure from the production synchronous path
/// (admission filters, entry-table indirection, lane checks, the
/// invoke() kind switch, the events_processed counter) — minus the
/// admission gate and with the table behind a plain pointer instead of
/// an epoch-published atomic.
class SealedDispatcher {
public:
  SealedDispatcher() : Table(&Sealed) {}

  void addTool(Tool *T) {
    Subscription Sub = T->subscription();
    std::uint32_t Index = static_cast<std::uint32_t>(Sealed.Entries.size());
    Sealed.Entries.push_back({T, 0});
    for (std::size_t K = 0; K < NumEventKinds; ++K) {
      if (!Sub.Kinds.has(static_cast<EventKind>(K)))
        continue;
      if (Sub.Model == ExecutionModel::Serial)
        Sealed.Routes[K].Pinned.push_back(Index);
      else
        Sealed.Routes[K].Floating.push_back(Index);
    }
  }

  void process(const Event &E) {
    // EventProcessor::admit(), sealed edition.
    bool KernelScoped = E.Kind == EventKind::KernelLaunch ||
                        E.Kind == EventKind::KernelComplete;
    if (KernelScoped)
      return; // (range filter; never taken for this stream)
    if (eventLevel(E.Kind) == EventLevel::DlFramework &&
        E.Kind != EventKind::TensorAlloc &&
        E.Kind != EventKind::TensorReclaim)
      return;

    // The one-line difference under measurement: a plain load instead
    // of gate entry + acquire epoch load + gate exit.
    const SealedTable &T = *Table;

    const KindRoute &Route = T.Routes[static_cast<std::size_t>(E.Kind)];
    bool Delivered = false;
    for (std::uint32_t I : Route.Pinned) {
      if (T.Entries[I].Lane != 0)
        continue;
      invoke(*T.Entries[I].T, E);
      Delivered = true;
    }
    for (std::uint32_t I : Route.Floating) {
      invoke(*T.Entries[I].T, E);
      Delivered = true;
    }
    if (Delivered)
      EventsProcessed.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> EventsProcessed{0};

private:
  struct ToolEntry {
    Tool *T;
    std::size_t Lane;
  };
  struct KindRoute {
    std::vector<std::uint32_t> Pinned;
    std::vector<std::uint32_t> Floating;
  };
  struct SealedTable {
    std::vector<ToolEntry> Entries;
    KindRoute Routes[NumEventKinds];
  };

  static void invoke(Tool &T, const Event &E) {
    // Production invoke(): a switch over the kind, not a virtual
    // onEvent fan-out.
    switch (E.Kind) {
    case EventKind::MemoryCopy:
      T.onMemoryCopy(E);
      break;
    default:
      T.onEvent(E);
      break;
    }
  }

  SealedTable Sealed;
  const SealedTable *Table; // plain pointer: no epoch, no acquire
};

//===----------------------------------------------------------------------===//
// Measured runs
//===----------------------------------------------------------------------===//

struct SteadyResult {
  double Seconds = 0.0;
  std::uint64_t Checksum = 0;
};

SteadyResult runSealed(std::size_t Events, std::uint64_t Spin) {
  SealedDispatcher Dispatcher;
  ChecksumTool Serial(ExecutionModel::Serial, Spin);
  ChecksumTool Concurrent(ExecutionModel::Concurrent, Spin);
  Dispatcher.addTool(&Serial);
  Dispatcher.addTool(&Concurrent);
  auto Start = std::chrono::steady_clock::now();
  for (std::uint64_t Seq = 0; Seq < Events; ++Seq)
    Dispatcher.process(copyEvent(Seq));
  auto End = std::chrono::steady_clock::now();
  SteadyResult Result;
  Result.Seconds = std::chrono::duration<double>(End - Start).count();
  Result.Checksum = Serial.Checksum.load() + Concurrent.Checksum.load();
  return Result;
}

SteadyResult runEpoch(std::size_t Events, std::uint64_t Spin) {
  ProcessorOptions Opts;
  Opts.AnalysisThreads = 1;
  Opts.AsyncEvents = false; // synchronous: same inline dispatch shape
  EventProcessor Processor(Opts);
  ChecksumTool Serial(ExecutionModel::Serial, Spin);
  ChecksumTool Concurrent(ExecutionModel::Concurrent, Spin);
  Processor.addTool(&Serial);
  Processor.addTool(&Concurrent);
  auto Start = std::chrono::steady_clock::now();
  for (std::uint64_t Seq = 0; Seq < Events; ++Seq)
    Processor.process(copyEvent(Seq));
  auto End = std::chrono::steady_clock::now();
  SteadyResult Result;
  Result.Seconds = std::chrono::duration<double>(End - Start).count();
  Result.Checksum = Serial.Checksum.load() + Concurrent.Checksum.load();
  return Result;
}

struct CellResult {
  double SealedMeps = 0.0;
  double EpochMeps = 0.0;
  double OverheadPct = 0.0;
  bool ChecksumsMatch = false;
};

/// Interleaves the two sides so frequency scaling and scheduler drift
/// hit both equally; keeps the best run of each (the least-disturbed
/// measurement of the same fixed work).
CellResult runCell(std::size_t Events, std::uint64_t Spin) {
  CellResult Cell;
  std::uint64_t SealedSum = 0;
  std::uint64_t EpochSum = 0;
  for (std::size_t Rep = 0; Rep < Repetitions; ++Rep) {
    SteadyResult Sealed = runSealed(Events, Spin);
    SteadyResult Epoch = runEpoch(Events, Spin);
    SealedSum = Sealed.Checksum;
    EpochSum = Epoch.Checksum;
    Cell.SealedMeps =
        std::max(Cell.SealedMeps,
                 static_cast<double>(Events) / Sealed.Seconds / 1e6);
    Cell.EpochMeps =
        std::max(Cell.EpochMeps,
                 static_cast<double>(Events) / Epoch.Seconds / 1e6);
  }
  Cell.ChecksumsMatch = SealedSum == EpochSum;
  Cell.OverheadPct =
      (Cell.SealedMeps - Cell.EpochMeps) / Cell.SealedMeps * 100.0;
  return Cell;
}

/// Times attach/detach swaps against a loaded async pipeline: one
/// producer pumps events through 4 lanes while the main thread cycles
/// a guest tool in and out. Each swap quiesces the admission gate,
/// drains every lane to the barrier, rebuilds and republishes the
/// table — the measured latency is what a live `--control attach-tool`
/// costs a serving daemon.
struct SwapLatencies {
  double MinUs = 0.0;
  double MedianUs = 0.0;
  double MaxUs = 0.0;
};

SwapLatencies runSwaps() {
  ProcessorOptions Opts;
  Opts.AnalysisThreads = 1;
  Opts.AsyncEvents = true;
  Opts.QueueDepth = 1024;
  Opts.DispatchThreads = 4;
  EventProcessor Processor(Opts);
  ChecksumTool Stable(ExecutionModel::Serial, 0);
  ChecksumTool Guest(ExecutionModel::Serial, 0);
  Processor.addTool(&Stable);

  std::atomic<bool> Done{false};
  std::thread Producer([&] {
    std::uint64_t Seq = 0;
    while (!Done.load(std::memory_order_relaxed))
      Processor.process(copyEvent(Seq++));
  });

  std::vector<double> Micros;
  for (std::size_t Cycle = 0; Cycle < SwapCycles; ++Cycle) {
    auto Start = std::chrono::steady_clock::now();
    Processor.addTool(&Guest);
    auto Mid = std::chrono::steady_clock::now();
    Processor.removeTool(&Guest);
    auto End = std::chrono::steady_clock::now();
    Micros.push_back(
        std::chrono::duration<double, std::micro>(Mid - Start).count());
    Micros.push_back(
        std::chrono::duration<double, std::micro>(End - Mid).count());
  }
  Done.store(true);
  Producer.join();
  Processor.flush();

  std::sort(Micros.begin(), Micros.end());
  SwapLatencies Result;
  Result.MinUs = Micros.front();
  Result.MedianUs = Micros[Micros.size() / 2];
  Result.MaxUs = Micros.back();
  return Result;
}

//===----------------------------------------------------------------------===//
// JSON output (consumed by scripts/run_benches.py)
//===----------------------------------------------------------------------===//

void writeCellJson(std::FILE *Out, const char *Name, std::size_t Events,
                   const CellResult &Cell, bool Last) {
  std::fprintf(Out,
               "    {\"name\": \"%s\", \"events\": %zu, "
               "\"sealed_meps\": %.3f, \"epoch_meps\": %.3f, "
               "\"overhead_pct\": %.2f, \"checksums_match\": %s}%s\n",
               Name, Events, Cell.SealedMeps, Cell.EpochMeps,
               Cell.OverheadPct, Cell.ChecksumsMatch ? "true" : "false",
               Last ? "" : ",");
}

void writeJson(std::FILE *Out, std::size_t EmptyEvents,
               std::size_t RepEvents, const CellResult &Empty,
               const CellResult &Representative,
               const SwapLatencies &Swaps, bool GateEnforced,
               bool GatePassed) {
  std::fprintf(Out, "{\n  \"bench\": \"ablation_reconfig\",\n");
  std::fprintf(Out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(Out, "  \"cells\": [\n");
  writeCellJson(Out, "empty_tools", EmptyEvents, Empty, false);
  writeCellJson(Out, "representative_tools", RepEvents, Representative,
                true);
  std::fprintf(Out, "  ],\n");
  std::fprintf(Out,
               "  \"swap_latency_us\": {\"min\": %.1f, \"median\": %.1f, "
               "\"max\": %.1f},\n",
               Swaps.MinUs, Swaps.MedianUs, Swaps.MaxUs);
  std::fprintf(Out,
               "  \"gate_overhead_2pct\": {\"enforced\": %s, "
               "\"passed\": %s}\n}\n",
               GateEnforced ? "true" : "false",
               GatePassed ? "true" : "false");
}

} // namespace

int main(int Argc, char **Argv) {
  std::size_t Events = DefaultEvents;
  const char *JsonPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--events") == 0 && I + 1 < Argc) {
      Events = static_cast<std::size_t>(std::atoll(Argv[++I]));
      if (Events == 0)
        Events = 1;
    } else if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else {
      std::fprintf(stderr, "usage: %s [--events N] [--json PATH]\n",
                   Argv[0]);
      return 2;
    }
  }
  // The representative cell burns ~2 us/event on tool work; scale its
  // event count down so full-size runs stay in seconds.
  std::size_t RepEvents = std::max<std::size_t>(Events / 16, 1000);

  std::printf("==============================================================="
              "=================\n");
  std::printf("Ablation: epoch-swapped routing vs the sealed baseline "
              "(steady state)\n"
              "  (live reconfiguration must be ~free when nobody "
              "reconfigures)\n");
  std::printf("==============================================================="
              "=================\n");
  std::printf("best of %zu interleaved repetitions, Serial + Concurrent "
              "checksum tools, sync dispatch\n\n",
              Repetitions);

  CellResult Empty = runCell(Events, 0);
  CellResult Representative = runCell(RepEvents, RepresentativeSpin);

  TablePrinter Table({"Tool Cost", "Events", "Sealed Baseline",
                      "Epoch-Swapped", "Overhead"});
  Table.addRow({"empty (worst case)", std::to_string(Events),
                format("%.2f Mev/s", Empty.SealedMeps),
                format("%.2f Mev/s", Empty.EpochMeps),
                format("%.2f%%", Empty.OverheadPct)});
  Table.addRow({"representative (~1 us)", std::to_string(RepEvents),
                format("%.2f Mev/s", Representative.SealedMeps),
                format("%.2f Mev/s", Representative.EpochMeps),
                format("%.2f%%", Representative.OverheadPct)});
  Table.print(stdout);
  bool ChecksumsMatch =
      Empty.ChecksumsMatch && Representative.ChecksumsMatch;
  std::printf("checksums: %s\n\n",
              ChecksumsMatch ? "identical" : "MISMATCH");

  SwapLatencies Swaps = runSwaps();
  std::printf("reconfiguration swap latency under load (4 lanes, "
              "%zu attach+detach cycles):\n"
              "  min %.1f us   median %.1f us   max %.1f us\n\n",
              SwapCycles, Swaps.MinUs, Swaps.MedianUs, Swaps.MaxUs);

  // The 2% figure needs full-size runs (CI smoke passes tiny --events
  // to keep the harness honest, not to measure) and a second hardware
  // thread (on one core the timing noise floor swamps the delta).
  unsigned Hw = std::thread::hardware_concurrency();
  bool GateEnforced = Events >= 500000 && Hw >= 2;
  bool GatePassed = Representative.OverheadPct <= 2.0;
  std::printf("steady-state overhead gate (<= 2%% on representative "
              "tools): %.2f%% -> %s%s\n",
              Representative.OverheadPct,
              GatePassed ? "PASS" : "above 2%",
              GateEnforced
                  ? ""
                  : (Hw < 2 ? " [not enforced: single hardware thread]"
                            : " [not enforced at this --events]"));
  std::printf("(empty-tool cell is the ungated machinery worst case: "
              "nothing dilutes the gate's two RMWs + epoch load)\n");

  if (JsonPath) {
    std::FILE *Out = std::fopen(JsonPath, "w");
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    writeJson(Out, Events, RepEvents, Empty, Representative, Swaps,
              GateEnforced, GatePassed);
    std::fclose(Out);
  }

  return (ChecksumsMatch && (!GateEnforced || GatePassed)) ? 0 : 1;
}
