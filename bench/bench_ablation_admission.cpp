//===- bench/bench_ablation_admission.cpp ---------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation (real wall-clock): the low-contention admission path —
// ticketed MPSC ring + content-hash-sharded arena + thread-local intern
// memo — against the PR 4 baseline, which serialized every producer
// twice (one global queue mutex with three condvars, one global arena
// mutex per string-bearing event).
//
// The sweep runs P producers x payload-repetition classes through the
// full admission pipeline (build event -> intern payloads -> enqueue;
// one consumer drains batches), twice per cell:
//
//  * "mutex baseline" — an in-bench replica of the PR 4 EventQueue
//    (mutex + condvars, notify_all per batch) feeding an EventArena
//    configured to the PR 4 shape (1 shard, memo off);
//  * "ring+shards" — the production EventQueue and an EventArena with
//    the default shard count and the memo on.
//
// Repetition classes model real workloads: "hot" repeats a small
// payload set every event (a training step re-issuing the same op
// names/stacks — the memo's home turf), "mixed" adds a fresh payload
// every 8th event, "cold" makes every payload unique (all misses — the
// sharded tables' worst case).
//
// Structural gates (exit code):
//  * at 8 producers, the hot-class ring+shards throughput must be
//    >= 2x the mutex baseline (enforced for full-size runs; --events
//    below 5000 — the CI smoke — still prints the ratio);
//  * a Serial digest tool folding payload bytes must produce
//    byte-identical digests under sync, 1-lane and 4-lane dispatch,
//    for arena shard counts 1 and default, memo on and off (single
//    producer).
//
// --json <path> additionally writes the table + counters as JSON
// (consumed by scripts/run_benches.py into BENCH_pr5.json);
// --events <N> overrides the per-producer event count.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "support/Format.h"
#include "support/TablePrinter.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace pasta;

namespace {

constexpr std::size_t DefaultEventsPerProducer = 20000;
constexpr std::size_t QueueDepth = 4096;
constexpr std::size_t HotDistinctPayloads = 16;

//===----------------------------------------------------------------------===//
// Mutex baseline: the PR 4 EventQueue, verbatim semantics
//===----------------------------------------------------------------------===//

/// The pre-ring bounded MPSC queue (lossless): one mutex, condvars
/// for producers/consumer, notify_all on every batch drain.
class MutexQueue {
public:
  explicit MutexQueue(std::size_t Capacity) : Capacity(Capacity) {}

  void enqueue(Event E) {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Closed)
      return;
    if (Buffer.size() >= Capacity) {
      NotFull.wait(Lock,
                   [this] { return Buffer.size() < Capacity || Closed; });
      if (Closed)
        return;
    }
    Buffer.push_back(std::move(E));
    NotEmpty.notify_one();
  }

  bool dequeueBatch(std::vector<Event> &Batch) {
    Batch.clear();
    std::unique_lock<std::mutex> Lock(Mutex);
    NotEmpty.wait(Lock, [this] { return !Buffer.empty() || Closed; });
    if (Buffer.empty())
      return false;
    std::swap(Batch, Buffer);
    NotFull.notify_all(); // the PR 4 wakeup churn, reproduced
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Closed = true;
    }
    NotEmpty.notify_all();
    NotFull.notify_all();
  }

private:
  const std::size_t Capacity;
  std::mutex Mutex;
  std::condition_variable NotEmpty;
  std::condition_variable NotFull;
  std::vector<Event> Buffer;
  bool Closed = false;
};

//===----------------------------------------------------------------------===//
// Workload
//===----------------------------------------------------------------------===//

/// How often a producer repeats payloads it has sent before.
struct RepetitionClass {
  const char *Name;
  const char *Json;
  /// A fresh, never-seen payload every FreshEveryN events (0 = never:
  /// the payload pool repeats forever).
  std::size_t FreshEveryN;
};

const RepetitionClass Classes[] = {
    {"hot (16 payloads repeated)", "hot", 0},
    {"mixed (fresh payload every 8th)", "mixed", 8},
    {"cold (every payload unique)", "cold", 1},
};

struct PayloadPool {
  std::vector<std::string> OpNames;
  std::vector<std::vector<std::string>> Stacks;
};

PayloadPool makePool() {
  PayloadPool Pool;
  for (std::size_t I = 0; I < HotDistinctPayloads; ++I) {
    std::string Op = "aten::op" + std::to_string(I) + "_";
    while (Op.size() < 40)
      Op += 'x';
    Pool.OpNames.push_back(Op);
    std::vector<std::string> Stack;
    for (std::size_t F = 0; F < 4; ++F) {
      std::string Frame = "model.py:" + std::to_string(100 + F) +
                          " block" + std::to_string(I) + " ";
      while (Frame.size() < 64)
        Frame += 'y';
      Stack.push_back(Frame);
    }
    Pool.Stacks.push_back(std::move(Stack));
  }
  return Pool;
}

/// Builds event Seq of producer P — fresh string bytes every call, so
/// only interning can make payloads shared. Unique payloads get a
/// (producer, seq) tag baked into the bytes.
Event makeEvent(const PayloadPool &Pool, const RepetitionClass &Class,
                std::size_t Producer, std::size_t Seq) {
  Event E;
  E.Kind = EventKind::OperatorStart;
  bool Fresh = Class.FreshEveryN != 0 && Seq % Class.FreshEveryN == 0;
  if (Fresh) {
    std::string Tag =
        "_p" + std::to_string(Producer) + "s" + std::to_string(Seq);
    E.OpName = Pool.OpNames[Seq % HotDistinctPayloads] + Tag;
    std::vector<std::string> Stack = Pool.Stacks[Seq % HotDistinctPayloads];
    Stack.front() += Tag;
    E.PythonStack = std::move(Stack);
  } else {
    E.OpName = Pool.OpNames[Seq % HotDistinctPayloads];
    E.PythonStack = Pool.Stacks[Seq % HotDistinctPayloads];
  }
  return E;
}

/// Pre-generates producer P's event stream. Generation (string
/// allocation, formatting, the once-per-payload content hash) happens
/// before the clock starts, so the timed region measures admission —
/// intern + enqueue — not workload synthesis, which is identical in
/// both modes. (In the real pipeline the handler normalizes payloads
/// into handles at event construction; the hash is computed there,
/// once, and inherited by every copy.)
std::vector<Event> makeEvents(const PayloadPool &Pool,
                              const RepetitionClass &Class,
                              std::size_t Producer, std::size_t Count) {
  std::vector<Event> Events;
  Events.reserve(Count);
  for (std::size_t Seq = 0; Seq < Count; ++Seq) {
    Events.push_back(makeEvent(Pool, Class, Producer, Seq));
    Events.back().OpName.contentHash();
    Events.back().PythonStack.contentHash();
  }
  return Events;
}

//===----------------------------------------------------------------------===//
// Measured admission runs
//===----------------------------------------------------------------------===//

struct AdmissionResult {
  double Seconds = 0.0;
  std::uint64_t Consumed = 0;
  EventArenaStats Arena;
  EventQueueCounters Queue; ///< ring runs only (zeroed for baseline)
};

/// P producers intern + enqueue; one consumer drains. \p UseRing picks
/// the production path (ring + default shards + memo) or the mutex
/// baseline (mutex queue + 1-shard memo-less arena).
AdmissionResult runAdmission(const PayloadPool &Pool,
                             const RepetitionClass &Class,
                             std::size_t Producers,
                             std::size_t EventsPerProducer, bool UseRing) {
  AdmissionResult Result;
  EventArenaOptions ArenaOpts;
  if (!UseRing) {
    ArenaOpts.Shards = 1;
    ArenaOpts.InternMemo = false;
  }
  EventArena Arena(ArenaOpts);

  std::unique_ptr<EventQueue> Ring;
  std::unique_ptr<MutexQueue> Legacy;
  if (UseRing)
    Ring = std::make_unique<EventQueue>(QueueDepth);
  else
    Legacy = std::make_unique<MutexQueue>(QueueDepth);

  // Workload synthesis happens off the clock; each producer replays a
  // pre-generated stream (copying a premade event is refcount bumps).
  std::vector<std::vector<Event>> Streams;
  for (std::size_t P = 0; P < Producers; ++P)
    Streams.push_back(makeEvents(Pool, Class, P, EventsPerProducer));

  std::atomic<std::uint64_t> Consumed{0};
  std::thread Consumer([&] {
    std::vector<Event> Batch;
    std::uint64_t Local = 0;
    if (UseRing)
      while (Ring->dequeueBatch(Batch))
        Local += Batch.size();
    else
      while (Legacy->dequeueBatch(Batch))
        Local += Batch.size();
    Consumed.store(Local);
  });

  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Workers;
  for (std::size_t P = 0; P < Producers; ++P)
    Workers.emplace_back([&, P] {
      for (const Event &Premade : Streams[P]) {
        Event E = Premade;
        // The admission path under test: intern on the producer's
        // thread, then enqueue.
        Arena.intern(E);
        if (UseRing)
          Ring->enqueue(std::move(E));
        else
          Legacy->enqueue(std::move(E));
      }
    });
  for (std::thread &W : Workers)
    W.join();
  if (UseRing)
    Ring->close();
  else
    Legacy->close();
  Consumer.join();
  auto End = std::chrono::steady_clock::now();

  Result.Seconds = std::chrono::duration<double>(End - Start).count();
  Result.Consumed = Consumed.load();
  Result.Arena = Arena.stats();
  if (UseRing)
    Result.Queue = Ring->counters();
  return Result;
}

//===----------------------------------------------------------------------===//
// Determinism gate
//===----------------------------------------------------------------------===//

/// Serial digest over payload *content*, as in the arena ablation.
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

std::uint64_t digestRun(const PayloadPool &Pool, std::size_t Lanes,
                        std::size_t ArenaShards, bool Memo) {
  ProcessorOptions Opts;
  Opts.AsyncEvents = Lanes > 0;
  Opts.QueueDepth = 1024;
  Opts.DispatchThreads = Lanes;
  Opts.ArenaShards = ArenaShards;
  Opts.ArenaMemo = Memo;
  EventProcessor Processor(Opts);
  PayloadDigestTool Digest;
  Processor.addTool(&Digest);
  const RepetitionClass &Mixed = Classes[1];
  for (std::size_t Seq = 0; Seq < 4000; ++Seq)
    Processor.process(makeEvent(Pool, Mixed, /*Producer=*/0, Seq));
  Processor.flush();
  return Digest.Digest;
}

//===----------------------------------------------------------------------===//
// JSON output (consumed by scripts/run_benches.py)
//===----------------------------------------------------------------------===//

struct CellResult {
  std::size_t Producers;
  double BaselineMeps;
  double RingMeps;
  double Speedup;
  AdmissionResult Ring;
};

void writeJson(std::FILE *Out, std::size_t EventsPerProducer,
               const std::vector<std::pair<const RepetitionClass *,
                                           std::vector<CellResult>>> &All,
               bool DigestsIdentical, bool GateEnforced, bool GatePassed) {
  std::fprintf(Out, "{\n  \"bench\": \"ablation_admission\",\n");
  std::fprintf(Out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(Out, "  \"events_per_producer\": %zu,\n", EventsPerProducer);
  std::fprintf(Out, "  \"classes\": [\n");
  for (std::size_t C = 0; C < All.size(); ++C) {
    std::fprintf(Out, "    {\"name\": \"%s\", \"rows\": [\n",
                 All[C].first->Json);
    const std::vector<CellResult> &Rows = All[C].second;
    for (std::size_t R = 0; R < Rows.size(); ++R) {
      const CellResult &Row = Rows[R];
      std::fprintf(
          Out,
          "      {\"producers\": %zu, \"baseline_meps\": %.3f, "
          "\"ring_meps\": %.3f, \"speedup\": %.2f, "
          "\"memo_hits\": %llu, \"shard_contention\": %llu, "
          "\"queue_spins\": %llu, \"queue_parks\": %llu}%s\n",
          Row.Producers, Row.BaselineMeps, Row.RingMeps, Row.Speedup,
          static_cast<unsigned long long>(Row.Ring.Arena.MemoHits),
          static_cast<unsigned long long>(Row.Ring.Arena.ShardContention),
          static_cast<unsigned long long>(Row.Ring.Queue.Spins),
          static_cast<unsigned long long>(Row.Ring.Queue.Parks),
          R + 1 < Rows.size() ? "," : "");
    }
    std::fprintf(Out, "    ]}%s\n", C + 1 < All.size() ? "," : "");
  }
  std::fprintf(Out, "  ],\n");
  std::fprintf(Out, "  \"digests_identical\": %s,\n",
               DigestsIdentical ? "true" : "false");
  std::fprintf(Out, "  \"gate_2x_at_8_producers\": {\"enforced\": %s, "
                    "\"passed\": %s}\n}\n",
               GateEnforced ? "true" : "false",
               GatePassed ? "true" : "false");
}

} // namespace

int main(int Argc, char **Argv) {
  std::size_t EventsPerProducer = DefaultEventsPerProducer;
  const char *JsonPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--events") == 0 && I + 1 < Argc) {
      EventsPerProducer =
          static_cast<std::size_t>(std::atoll(Argv[++I]));
      if (EventsPerProducer == 0)
        EventsPerProducer = 1;
    } else if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--events N] [--json PATH]\n", Argv[0]);
      return 2;
    }
  }

  std::printf("==============================================================="
              "=================\n");
  std::printf("Ablation: admission path (ticketed ring + sharded arena + "
              "intern memo)\n"
              "  vs the PR 4 mutex baseline (global queue mutex + 1-shard "
              "arena mutex)\n");
  std::printf("==============================================================="
              "=================\n");
  std::printf("%zu events/producer, queue depth %zu, arena default shards "
              "%zu\n\n",
              EventsPerProducer, QueueDepth,
              EventArena::defaultShardCount());

  PayloadPool Pool = makePool();
  const std::size_t ProducerCounts[] = {1, 2, 4, 8};
  std::vector<std::pair<const RepetitionClass *, std::vector<CellResult>>>
      All;
  double HotSpeedupAt8 = 0.0;

  for (const RepetitionClass &Class : Classes) {
    std::printf("repetition class: %s\n", Class.Name);
    TablePrinter Table({"Producers", "Mutex Baseline", "Ring+Shards",
                        "Speedup", "Memo Hits", "Shard Cont.", "Parks"});
    std::vector<CellResult> Rows;
    for (std::size_t P : ProducerCounts) {
      AdmissionResult Baseline =
          runAdmission(Pool, Class, P, EventsPerProducer, false);
      AdmissionResult Ring =
          runAdmission(Pool, Class, P, EventsPerProducer, true);
      const double Total =
          static_cast<double>(P) * static_cast<double>(EventsPerProducer);
      CellResult Cell;
      Cell.Producers = P;
      Cell.BaselineMeps = Total / Baseline.Seconds / 1e6;
      Cell.RingMeps = Total / Ring.Seconds / 1e6;
      Cell.Speedup = Cell.RingMeps / Cell.BaselineMeps;
      Cell.Ring = Ring;
      if (&Class == &Classes[0] && P == 8)
        HotSpeedupAt8 = Cell.Speedup;
      Table.addRow({std::to_string(P),
                    format("%.2f Mev/s", Cell.BaselineMeps),
                    format("%.2f Mev/s", Cell.RingMeps),
                    format("%.2fx", Cell.Speedup),
                    std::to_string(Ring.Arena.MemoHits),
                    std::to_string(Ring.Arena.ShardContention),
                    std::to_string(Ring.Queue.Parks)});
      if (Baseline.Consumed != Total || Ring.Consumed != Total) {
        std::printf("FATAL: lost events (baseline %llu, ring %llu, sent "
                    "%.0f)\n",
                    static_cast<unsigned long long>(Baseline.Consumed),
                    static_cast<unsigned long long>(Ring.Consumed), Total);
        return 1;
      }
      Rows.push_back(Cell);
    }
    All.emplace_back(&Class, std::move(Rows));
    Table.print(stdout);
    std::printf("\n");
  }

  // Determinism gate: Serial digests must not depend on lanes, shard
  // count, or the memo.
  bool DigestsIdentical = true;
  std::uint64_t Reference =
      digestRun(Pool, /*Lanes=*/0, /*Shards=*/0, /*Memo=*/true);
  for (std::size_t Lanes : {std::size_t(0), std::size_t(1), std::size_t(4)})
    for (std::size_t Shards : {std::size_t(1), std::size_t(0)})
      for (bool Memo : {true, false}) {
        std::uint64_t Digest = digestRun(Pool, Lanes, Shards, Memo);
        if (Digest != Reference)
          DigestsIdentical = false;
      }
  std::printf("serial payload digest (sync/1-lane/4-lane x shards "
              "{1, default} x memo {on, off}): %s\n",
              DigestsIdentical ? "byte-identical" : "MISMATCH");

  // Throughput gate. Two preconditions for the 2x figure to be
  // meaningful: full-size event counts (the CI smoke run uses
  // --events 500 to keep the harness honest, not to measure), and at
  // least two hardware threads — on a single core producers never
  // overlap, an uncontended mutex costs a few nanoseconds, and the
  // admission contention this path eliminates does not physically
  // exist, so both paths measure the same serial copy bandwidth.
  unsigned Hw = std::thread::hardware_concurrency();
  bool GateEnforced = EventsPerProducer >= 5000 && Hw >= 2;
  bool GatePassed = HotSpeedupAt8 >= 2.0;
  std::printf("admission throughput at 8 producers (hot class): %.2fx the "
              "mutex baseline -> %s%s\n",
              HotSpeedupAt8, GatePassed ? "PASS (>= 2x)" : "below 2x",
              GateEnforced
                  ? ""
                  : (Hw < 2 ? " [not enforced: single hardware thread — "
                              "no producer overlap to contend]"
                            : " [not enforced at this --events]"));

  if (JsonPath) {
    std::FILE *Out = std::fopen(JsonPath, "w");
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    writeJson(Out, EventsPerProducer, All, DigestsIdentical, GateEnforced,
              GatePassed);
    std::fclose(Out);
  }

  return (DigestsIdentical && (!GateEnforced || GatePassed)) ? 0 : 1;
}
