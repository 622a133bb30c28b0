//===- pastabench/src/Main.cpp - Benchmark runner -------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload for a fixed wall-clock budget and prints one JSON
/// line with its metrics, configuration and failures (run.py turns it
/// into the tables and the result line).
///
///   pastabench --workload zoo_live --seed 1 --seconds 20 --trace 0
///              [--smoke] [--workdir DIR]
///
/// The oracle's references are built first, untimed. --trace 0 then
/// alternates profiled and no-tool samples and reports the end-to-end
/// metrics. --trace 1 cycles through every arm (profiled, traced, no
/// tools, no-op tools, records-only no-op tool), reports the per-layer
/// metrics and writes the spans to DIR/trace-<workload>-<seed>.json.
/// Samples failing the oracle count as failed and the run goes on.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Workloads.h"

#include "pasta/EventProcessor.h"

#include <malloc.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <thread>

using namespace pastabench;

namespace {

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool Smoke = false;
  std::string WorkDir = ".";
};

[[noreturn]] void usage(const std::string &Problem) {
  std::fprintf(stderr,
               "pastabench: %s\n"
               "usage: pastabench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--workdir DIR]\n",
               Problem.c_str());
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(Flag + " needs a value");
      return Argv[++I];
    };
    if (Flag == "--workload")
      A.Workload = Value();
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(Value().c_str());
    else if (Flag == "--trace")
      A.Trace = Value() != "0";
    else if (Flag == "--smoke")
      A.Smoke = true;
    else if (Flag == "--workdir")
      A.WorkDir = Value();
    else
      usage("unknown flag " + Flag);
  }
  if (A.Workload.empty())
    usage("--workload is required");
  if (!(A.Seconds > 0.0))
    usage("--seconds must be positive");
  return A;
}

/// Per-arm samples of one run.
class Samples {
public:
  void add(Sample S) { All.push_back(std::move(S)); }

  std::vector<const Sample *> of(Arm Which) const {
    std::vector<const Sample *> Out;
    for (const Sample &S : All)
      if (S.Which == Which && S.Ok)
        Out.push_back(&S);
    return Out;
  }

  std::vector<double> values(Arm Which,
                             const std::function<double(const Sample &)> &Get)
      const {
    std::vector<double> Out;
    for (const Sample *S : of(Which))
      Out.push_back(Get(*S));
    return Out;
  }

  double p50(Arm Which, const std::function<double(const Sample &)> &Get)
      const {
    return median(values(Which, Get));
  }

  /// Median over cycles of Get(sample of A, sample of B), pairing the
  /// two arms' samples of the same cycle.
  double pairedP50(
      Arm A, Arm B,
      const std::function<double(const Sample &, const Sample &)> &Get)
      const {
    std::map<std::size_t, const Sample *> Bs;
    for (const Sample *S : of(B))
      Bs[S->Cycle] = S;
    std::vector<double> Out;
    for (const Sample *S : of(A)) {
      auto It = Bs.find(S->Cycle);
      if (It != Bs.end())
        Out.push_back(Get(*S, *It->second));
    }
    return median(Out);
  }

  std::size_t attempted() const { return All.size(); }
  std::size_t failed() const {
    std::size_t N = 0;
    for (const Sample &S : All)
      N += S.Ok ? 0 : 1;
    return N;
  }
  std::vector<std::string> errors() const {
    std::vector<std::string> Out;
    for (const Sample &S : All)
      if (!S.Ok && Out.size() < 5)
        Out.push_back(std::string(armName(S.Which)) + ": " + S.Error);
    return Out;
  }

private:
  std::vector<Sample> All;
};

/// Returns the heap's free memory to the kernel, so every sample starts
/// from the allocator state of a fresh process. Otherwise glibc keeps or
/// releases freed blocks depending on the allocation history, and
/// whether a session's queues and buffers fault in fresh pages (about
/// twice the set-up time) changes from sample to sample and run to run.
void startFresh() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

Sample runGuarded(Workload &W, Arm Which, SpanLog *Trace) {
  try {
    return W.run(Which, Trace);
  } catch (const std::exception &E) {
    Sample Failed;
    Failed.Which = Which;
    Failed.Ok = false;
    Failed.Error = E.what();
    return Failed;
  }
}

JsonObject metric(double Value, const char *Unit) {
  JsonObject M;
  M.add("value", Value).add("unit", Unit);
  return M;
}

double runS(const Sample &S) { return S.RunS; }

double cpuS(const Sample &S) { return S.CpuS; }

/// Percent by which \p A's run time exceeds \p B's.
double overPct(const Sample &A, const Sample &B) {
  return (A.RunS / B.RunS - 1.0) * 100.0;
}

double minusRunS(const Sample &A, const Sample &B) { return A.RunS - B.RunS; }

JsonObject configJson(const WorkloadConfig &C) {
  JsonObject J;
  const char *ValidateEnv = std::getenv("PASTA_VALIDATE");
  J.add("program", C.Program)
      .add("backend", C.Backend)
      .add("tools", C.Tools)
      .add("pipeline", C.Async ? "async" : "sync")
      .add("lanes", static_cast<std::uint64_t>(C.Lanes))
      .add("queue_depth", static_cast<std::uint64_t>(C.QueueDepth))
      .add("analysis_threads", static_cast<std::uint64_t>(C.AnalysisThreads))
      .add("app_threads", static_cast<std::uint64_t>(C.AppThreads))
      .add("sample_unit", C.SampleUnit)
      .add("hardware_threads",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .add("build_type", PASTABENCH_BUILD_TYPE)
      .add("compiler", PASTABENCH_COMPILER)
      .add("cxx_flags", PASTABENCH_CXX_FLAGS)
      .add("validate_default", pasta::validateDefault())
      .add("validate_env", ValidateEnv ? ValidateEnv : "");
  return J;
}

/// The end-to-end metrics, from the profiled and no-tool arms. A
/// sample's cost is gated as its CPU time (cpu_s) and as its wall time
/// over the native sample's of the same cycle (overhead_pct). Absolute
/// wall time follows a shared host's load more than the program
/// (README.md), so run_s and the rates derived from it go to \p Extra.
JsonObject endToEnd(const Samples &Run, JsonObject &Extra) {
  std::vector<double> Cpu = Run.values(Arm::Profiled, cpuS);
  std::vector<double> Wall = Run.values(Arm::Profiled, runS);
  double CpuP90 = quantile(Cpu, 0.9);
  double P50 = quantile(Wall, 0.5);
  double Native = Run.p50(Arm::Native, runS);
  double Events = Run.p50(Arm::Profiled, [](const Sample &S) {
    return static_cast<double>(S.Events);
  });
  double Records = Run.p50(Arm::Profiled, [](const Sample &S) {
    return static_cast<double>(S.Pipeline.RecordsDelivered);
  });
  std::size_t Beyond = 0;
  for (double V : Cpu)
    Beyond += V > CpuP90 ? 1 : 0;

  JsonObject M;
  M.add("setup_s",
        metric(Run.p50(Arm::Profiled, [](const Sample &S) { return S.SetupS; }),
               "s"))
      .add("cpu_s.p50", metric(quantile(Cpu, 0.5), "s"))
      .add("cpu_s.p90", metric(CpuP90, "s"))
      .add("peak_rss_mb", metric(peakRssMb(), "MB"));

  Extra.add("overhead_pct",
            metric(Run.pairedP50(Arm::Profiled, Arm::Native, overPct), "%"))
      .add("cpu_s.samples", static_cast<std::uint64_t>(Cpu.size()))
      .add("cpu_s.beyond_p90", static_cast<std::uint64_t>(Beyond))
      .add("run_s.p50", metric(P50, "s"))
      .add("run_s.p90", metric(quantile(Wall, 0.9), "s"))
      .add("events_per_s", metric(Events / P50, "1/s"))
      .add("native_run_s.p50", metric(Native, "s"))
      .add("events_per_sample", metric(Events, "count"));
  if (Records > 0)
    Extra.add("records_per_s", metric(Records / P50, "1/s"));
  if (Run.p50(Arm::Profiled, [](const Sample &S) { return S.AdmitP50Ns; }) >
      0) {
    Extra.add("admit_ns.p50",
              metric(Run.p50(Arm::Profiled,
                             [](const Sample &S) { return S.AdmitP50Ns; }),
                     "ns"))
        .add("admit_ns.p99",
             metric(Run.p50(Arm::Profiled,
                            [](const Sample &S) { return S.AdmitP99Ns; }),
                    "ns"));
  }
  return M;
}

/// The per-layer metrics of a traced run. Layer times that exist only
/// on some workloads go to \p Extra, so every workload reports the same
/// per-layer set. \p Base is the tool-less arm the *_s differences
/// subtract.
JsonObject perLayer(const Samples &Run, const WorkloadConfig &C, Arm Base,
                    JsonObject &Extra, JsonObject &ToolsJson, bool &HookOk) {
  auto P = [&](Arm Which, auto Get) { return Run.p50(Which, Get); };
  auto Count = [&](auto Get) {
    return P(Arm::Profiled,
             [&](const Sample &S) { return static_cast<double>(Get(S)); });
  };
  double Native = P(Arm::Native, runS);
  double Lookups = Count([](const Sample &S) { return S.ArenaLookups; });
  double Hits = Count([](const Sample &S) { return S.Pipeline.ArenaHits; });
  double Memo =
      Count([](const Sample &S) { return S.Pipeline.ArenaMemoHits; });
  double Events = Count([](const Sample &S) { return S.Events; });
  double Bytes = Count([](const Sample &S) { return S.TraceBytes; });
  double Refs = Count([](const Sample &S) { return S.PayloadRefs; });
  double RefHits = Count([](const Sample &S) { return S.PayloadHits; });
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };

  // Per-tool medians over the traced samples, and their sums.
  std::vector<const Sample *> TracedSamples = Run.of(Arm::Traced);
  std::map<std::string, std::vector<HookTotals>> PerTool;
  std::vector<double> HookSum, CallSum, FinishSum, ReportSum, DeviceSum;
  HookOk = true;
  for (const Sample *S : TracedSamples) {
    HookTotals Sum;
    for (const auto &[Name, T] : S->Tools) {
      PerTool[Name].push_back(T);
      Sum += T;
    }
    HookSum.push_back(Sum.HookS);
    CallSum.push_back(static_cast<double>(Sum.Calls));
    FinishSum.push_back(Sum.FinishS);
    ReportSum.push_back(Sum.ReportS);
    DeviceSum.push_back(Sum.DeviceS);
    if (Sum.HookS > S->RunS * static_cast<double>(C.HookThreads))
      HookOk = false;
  }
  for (const auto &[Name, List] : PerTool) {
    auto Med = [&](auto Get) {
      std::vector<double> V;
      for (const HookTotals &T : List)
        V.push_back(static_cast<double>(Get(T)));
      return median(V);
    };
    JsonObject T;
    T.add("hook_s", metric(Med([](const HookTotals &T) { return T.HookS; }),
                           "s"))
        .add("calls", metric(Med([](const HookTotals &T) { return T.Calls; }),
                             "count"))
        .add("finish_s",
             metric(Med([](const HookTotals &T) { return T.FinishS; }), "s"))
        .add("report_s",
             metric(Med([](const HookTotals &T) { return T.ReportS; }), "s"))
        .add("device_s",
             metric(Med([](const HookTotals &T) { return T.DeviceS; }), "s"));
    ToolsJson.add(Name, T);
    if (Name == "stream_forward")
      Extra.add("serve.forward_s",
                metric(Med([](const HookTotals &T) { return T.HookS; }), "s"));
  }

  JsonObject M;
  M.add("app.native_s", metric(Native, "s"))
      .add("backend.null_records_s",
           metric(Run.pairedP50(Arm::NullRecords, Base, minusRunS),
                  "s"))
      .add("backend.records",
           metric(Count([](const Sample &S) {
                    return S.Pipeline.RecordsDelivered;
                  }),
                  "count"))
      .add("backend.record_batches",
           metric(Count([](const Sample &S) { return S.Pipeline.RecordBatches; }),
                  "count"))
      .add("session.build_s",
           metric(P(Arm::Profiled, [](const Sample &S) { return S.SetupS; }),
                  "s"))
      .add("session.report_s",
           metric(P(Arm::Profiled, [](const Sample &S) { return S.ReportS; }),
                  "s"))
      .add("pipeline.null_tools_s",
           metric(Run.pairedP50(Arm::NullTools, Base, minusRunS), "s"))
      .add("pipeline.events",
           metric(Count([](const Sample &S) {
                    return S.Pipeline.EventsProcessed;
                  }),
                  "count"))
      .add("pipeline.flushes",
           metric(Count([](const Sample &S) { return S.Pipeline.FlushCount; }),
                  "count"))
      .add("pipeline.queue_spins",
           metric(Count([](const Sample &S) { return S.Pipeline.QueueSpins; }),
                  "count"))
      .add("pipeline.queue_parks",
           metric(Count([](const Sample &S) { return S.Pipeline.QueueParks; }),
                  "count"))
      .add("pipeline.max_queue_depth",
           metric(Count([](const Sample &S) {
                    return S.Pipeline.MaxQueueDepth;
                  }),
                  "count"))
      .add("pipeline.dropped",
           metric(Count([](const Sample &S) {
                    return S.Pipeline.EventsDropped +
                           S.Pipeline.EventsSampledOut;
                  }),
                  "count"))
      .add("arena.payloads",
           metric(Count([](const Sample &S) { return S.Pipeline.ArenaPayloads; }),
                  "count"))
      .add("arena.lookups", metric(Lookups, "count"))
      .add("arena.hit_ratio", metric(Ratio(Hits, Lookups), "ratio"))
      .add("arena.memo_hit_ratio", metric(Ratio(Memo, Lookups), "ratio"))
      .add("arena.shard_contention",
           metric(Count([](const Sample &S) {
                    return S.Pipeline.ArenaShardContention;
                  }),
                  "count"))
      .add("tool.hook_s", metric(median(HookSum), "s"))
      .add("tool.calls", metric(median(CallSum), "count"))
      .add("tool.finish_s", metric(median(FinishSum), "s"))
      .add("tool.report_s", metric(median(ReportSum), "s"))
      .add("analysis.device_records",
           metric(Count([](const Sample &S) {
                    return S.Pipeline.DeviceAnalyzedRecords;
                  }),
                  "count"))
      .add("analysis.host_records",
           metric(Count([](const Sample &S) {
                    return S.Pipeline.HostAnalyzedRecords;
                  }),
                  "count"))
      .add("serve.bytes_per_event", metric(Ratio(Bytes, Events), "B"))
      .add("serve.send_blocked",
           metric(Count([](const Sample &S) { return S.SendBlocked; }),
                  "count"))
      .add("trace.payload_hit_ratio", metric(Ratio(RefHits, Refs), "ratio"))
      .add("serve.clean_streams",
           metric(Count([](const Sample &S) { return S.CleanStreams; }),
                  "count"))
      .add("serve.corrupt_streams",
           metric(Count([](const Sample &S) { return S.CorruptStreams; }),
                  "count"))
      .add("serve.duplicate_frames",
           metric(Count([](const Sample &S) { return S.DuplicateFrames; }),
                  "count"))
      .add("trace.overhead_pct",
           metric(Run.pairedP50(Arm::Traced, Arm::Profiled, overPct), "%"));

  double DeviceS = median(DeviceSum);
  if (DeviceS > 0)
    Extra.add("analysis.device_s", metric(DeviceS, "s"));
  if (P(Arm::Profiled, [](const Sample &S) { return S.StopS; }) > 0) {
    Extra.add("serve.drain_s",
              metric(P(Arm::Profiled, [](const Sample &S) { return S.DrainS; }),
                     "s"))
        .add("serve.stop_s",
             metric(P(Arm::Profiled, [](const Sample &S) { return S.StopS; }),
                    "s"));
  }
  Extra.add("traced.samples",
            static_cast<std::uint64_t>(TracedSamples.size()));
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  ::mkdir(A.WorkDir.c_str(), 0755);

  WorkloadParams Params;
  Params.Name = A.Workload;
  Params.Seed = A.Seed;
  Params.Smoke = A.Smoke;
  Params.WorkDir = A.WorkDir;
  std::string Err;
  std::unique_ptr<Workload> W = makeWorkload(Params, Err);
  if (!W)
    usage(Err);

  JsonObject Out;
  Out.add("workload", A.Workload)
      .add("seed", A.Seed)
      .add("trace", A.Trace)
      .add("smoke", A.Smoke)
      .add("seconds", A.Seconds)
      .add("config", configJson(W->config()));

  if (!W->prepare(Err)) {
    Out.add("attempted", std::uint64_t(1))
        .add("failed", std::uint64_t(1))
        .add("errors", std::vector<std::string>{"set-up: " + Err});
    std::printf("%s\n", Out.str().c_str());
    return 0;
  }

  std::vector<Arm> Arms = {Arm::Profiled, Arm::Native};
  if (A.Trace) {
    Arms = {Arm::Profiled, Arm::Traced, Arm::Native, Arm::NullTools,
            Arm::NullRecords};
    if (W->layerBaseline() != Arm::Native)
      Arms.push_back(W->layerBaseline());
  }
  std::unique_ptr<SpanLog> Trace;
  if (A.Trace)
    Trace = std::make_unique<SpanLog>();

  // Cycle through the arms, rotating which goes first, until the budget
  // is spent (and at least MinCycles cycles ran).
  const std::size_t MinCycles = A.Smoke ? 1 : 3;
  Samples Run;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(A.Seconds));
  const CpuTimes CpuBegin = cpuTimes();
  for (std::size_t Cycle = 0;; ++Cycle) {
    for (std::size_t I = 0; I < Arms.size(); ++I) {
      startFresh();
      Sample S = runGuarded(*W, Arms[(I + Cycle) % Arms.size()], Trace.get());
      S.Cycle = Cycle;
      Run.add(std::move(S));
    }
    if (Cycle + 1 >= MinCycles && Clock::now() >= Deadline)
      break;
  }

  // Time the hypervisor gave to other guests while this run measured:
  // when it is high, the run's times say more about the host than PASTA.
  JsonObject Extra;
  Extra.add("host.steal_pct", metric(stealPct(CpuBegin, cpuTimes()), "%"));
  Out.add("attempted", static_cast<std::uint64_t>(Run.attempted()))
      .add("failed", static_cast<std::uint64_t>(Run.failed()))
      .add("errors", Run.errors());
  JsonObject Samples;
  for (Arm Which : Arms)
    Samples.add(armName(Which),
                static_cast<std::uint64_t>(Run.of(Which).size()));
  Out.add("samples", Samples);
  Extra.add("error_rate",
            metric(static_cast<double>(Run.failed()) /
                       static_cast<double>(Run.attempted()),
                   "ratio"));
  Out.add("end_to_end", endToEnd(Run, Extra));
  if (A.Trace) {
    JsonObject Tools;
    bool HookOk = true;
    Out.add("per_layer", perLayer(Run, W->config(), W->layerBaseline(), Extra,
                                  Tools, HookOk));
    Out.add("tools", Tools);
    Out.add("hook_time_within_bound", HookOk);
    std::string Path = A.WorkDir + "/trace-" + A.Workload + "-" +
                       std::to_string(A.Seed) + ".json";
    std::ofstream File(Path);
    File << "{\"workload\": \"" << A.Workload << "\", \"seed\": " << A.Seed
         << ",\n\"spans\": " << Trace->json() << "}\n";
    Out.add("trace_file", Path);
  }
  Out.add("extra", Extra);
  std::printf("%s\n", Out.str().c_str());
  return 0;
}
