//===- pastabench/src/Workloads.cpp ---------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Stats.h"
#include "dl/Tensor.h"
#include "pasta/Session.h"
#include "pasta/SessionError.h"
#include "serve/Aggregator.h"
#include "support/ReportSink.h"
#include "support/Rng.h"
#include "tools/ExtensionTools.h"
#include "tools/KernelFrequencyTool.h"
#include "tools/OpKernelMapTool.h"
#include "tools/RegisterTools.h"
#include "tools/StreamForwardTool.h"

#include <sys/stat.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

using namespace pasta;

namespace pastabench {

Workload::~Workload() = default;

bool Workload::prepare(std::string &Err) {
  try {
    reference();
  } catch (const std::exception &E) {
    Err = E.what();
    return false;
  }
  return true;
}

const char *armName(Arm Which) {
  switch (Which) {
  case Arm::Profiled:
    return "profiled";
  case Arm::Traced:
    return "traced";
  case Arm::Native:
    return "native";
  case Arm::Bare:
    return "bare";
  case Arm::NullTools:
    return "null_tools";
  case Arm::NullRecords:
    return "null_records";
  }
  return "?";
}

namespace {

const std::vector<std::string> LiveTools = {
    "kernel_frequency", "op_kernel_map", "mem_usage_timeline",
    "barrier_stall"};
const std::vector<std::string> RecordTools = {"working_set_host", "hotness"};
const std::vector<std::string> FleetTools = {"kernel_frequency",
                                             "op_kernel_map"};

constexpr std::size_t Lanes = 2;
constexpr std::size_t AnalysisThreads = 2;
/// The sessions' queue depth (the library default, recorded as config).
const std::size_t QueueDepth = ProcessorOptions().QueueDepth;

/// A sample that cannot be completed or fails the oracle.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::unique_ptr<Tool> createTool(const std::string &Name) {
  SessionError Err;
  std::unique_ptr<Tool> T = ToolRegistry::instance().create(Name, Err);
  if (!T)
    throw BenchError(Err.message());
  return T;
}

/// The real tool behind a possibly decorated one.
Tool *unwrap(Tool *T) {
  if (auto *Timed = dynamic_cast<TimedTool *>(T))
    return &Timed->inner();
  return T;
}

std::string reportOf(Tool &T) {
  JsonReportSink Sink;
  T.report(Sink);
  Sink.close();
  return Sink.str();
}

/// Where two report documents first differ, for the diagnostic.
std::string firstDifference(const std::string &Got, const std::string &Want) {
  std::size_t I = 0;
  while (I < Got.size() && I < Want.size() && Got[I] == Want[I])
    ++I;
  std::size_t From = I > 40 ? I - 40 : 0;
  return "at byte " + std::to_string(I) + ": got '" + Got.substr(From, 80) +
         "' want '" + Want.substr(From, 80) + "'";
}

void requireSame(const std::string &What, const std::string &Got,
                 const std::string &Want) {
  if (Got != Want)
    throw BenchError(What + " differs from the reference " +
                     firstDifference(Got, Want));
}

void fillPipeline(Sample &Out, EventProcessor &P) {
  Out.Pipeline = P.stats();
  EventArenaStats Arena = P.arena().stats();
  Out.ArenaLookups = Arena.Hits + Arena.Misses;
}

/// Adds \p From's counters to \p Into (max for the high-water mark).
void addPipeline(ProcessorStats &Into, const ProcessorStats &From) {
  Into.EventsProcessed += From.EventsProcessed;
  Into.EventsFiltered += From.EventsFiltered;
  Into.RecordBatches += From.RecordBatches;
  Into.RecordsDelivered += From.RecordsDelivered;
  Into.DeviceAnalyzedRecords += From.DeviceAnalyzedRecords;
  Into.HostAnalyzedRecords += From.HostAnalyzedRecords;
  Into.EventsDropped += From.EventsDropped;
  Into.EventsSampledOut += From.EventsSampledOut;
  Into.MaxQueueDepth = std::max(Into.MaxQueueDepth, From.MaxQueueDepth);
  Into.FlushCount += From.FlushCount;
  Into.QueueSpins += From.QueueSpins;
  Into.QueueParks += From.QueueParks;
  Into.ArenaPayloads += From.ArenaPayloads;
  Into.ArenaHits += From.ArenaHits;
  Into.ArenaMemoHits += From.ArenaMemoHits;
  Into.ArenaShardContention += From.ArenaShardContention;
}

std::string programName(const std::string &Model, int Iterations) {
  return Model + " training x" + std::to_string(Iterations);
}

//===----------------------------------------------------------------------===//
// zoo_live / zoo_records: one model-zoo session per sample
//===----------------------------------------------------------------------===//

struct SessionSpec {
  std::string Model;
  int Iterations = 1;
  std::string Backend;
  std::vector<std::string> Tools;
};

class SessionWorkload final : public Workload {
public:
  explicit SessionWorkload(SessionSpec S) : Spec(std::move(S)) {
    Config.Program = programName(Spec.Model, Spec.Iterations);
    Config.Backend = Spec.Backend;
    Config.Tools = Spec.Tools;
    Config.Async = true;
    Config.Lanes = Lanes;
    Config.QueueDepth = QueueDepth;
    Config.AnalysisThreads = AnalysisThreads;
    Config.AppThreads = 1;
    // Lanes run the coarse hooks; host-side record hooks run on the
    // application thread.
    Config.HookThreads = Lanes + 1;
  }

  void reference() override {
    // The reference is the synchronous pipeline: every async sample must
    // reproduce its reports byte for byte.
    SessionBuilder Ref = base(Spec.Backend);
    Ref.asyncEvents(false);
    for (const std::string &Name : Spec.Tools)
      Ref.tool(Name);
    std::unique_ptr<Session> S = build(Ref);
    S->run();
    JsonReportSink Sink;
    S->writeReports(Sink);
    RefReport = Sink.str();

    SessionBuilder Count = base(Spec.Backend);
    Count.asyncEvents(false);
    auto Counter = std::make_unique<CountingTool>();
    CountingTool *Counts = Counter.get();
    Count.addTool(std::move(Counter));
    std::unique_ptr<Session> C = build(Count);
    C->run();
    if (Counts->Events == 0)
      throw BenchError("the application emitted no events");
    RefEvents = Counts->Events;
  }

  Arm layerBaseline() const override { return Arm::Bare; }

  Sample run(Arm Which, SpanLog *Trace) override {
    Sample Out;
    Out.Which = Which;
    ToolTimers Timers;
    ScopedSpan Root(Trace, std::string("session.") + armName(Which));
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<Session> S;
    {
      ScopedSpan Span(Trace, "build", Root.id());
      SessionBuilder B = builder(Which, Timers);
      S = build(B);
    }
    Clock::time_point T1 = Clock::now();
    const double Cpu1 = processCpuSeconds();
    {
      ScopedSpan Span(Trace, "run", Root.id());
      S->run();
    }
    Clock::time_point T2 = Clock::now();
    std::string Report;
    {
      ScopedSpan Span(Trace, "report", Root.id());
      JsonReportSink Sink;
      S->writeReports(Sink);
      Report = Sink.str();
    }
    Clock::time_point T3 = Clock::now();
    fillPipeline(Out, S->processor());
    {
      ScopedSpan Span(Trace, "teardown", Root.id());
      S.reset();
    }
    Clock::time_point T4 = Clock::now();
    Out.CpuS = processCpuSeconds() - Cpu1;
    Out.SetupS = secondsBetween(T0, T1);
    Out.RunS = secondsBetween(T1, T4);
    Out.ReportS = secondsBetween(T2, T3);
    Out.Events = RefEvents;
    if (Which == Arm::Profiled || Which == Arm::Traced)
      requireSame("tool reports", Report, RefReport);
    if (Which == Arm::Traced)
      Out.Tools = Timers.totals();
    return Out;
  }

private:
  SessionBuilder base(const std::string &Backend) const {
    SessionBuilder B;
    B.model(Spec.Model)
        .training()
        .iterations(Spec.Iterations)
        .backend(Backend)
        .asyncEvents()
        .dispatchThreads(Lanes)
        .queueDepth(QueueDepth)
        .analysisThreads(AnalysisThreads);
    return B;
  }

  SessionBuilder builder(Arm Which, ToolTimers &Timers) const {
    bool ToolLess = Which == Arm::Native || Which == Arm::Bare;
    SessionBuilder B = base(ToolLess ? "none" : Spec.Backend);
    // The baseline carries the least machinery a session can have: no
    // lanes and one analysis thread, whose start and join would otherwise
    // dominate a short tool-less run's variance.
    if (Which == Arm::Native)
      B.asyncEvents(false).analysisThreads(1);
    for (const std::string &Name : Spec.Tools) {
      if (Which == Arm::Profiled)
        B.tool(Name);
      else if (Which == Arm::Traced)
        B.addTool(std::make_unique<TimedTool>(createTool(Name),
                                              Timers.statsFor(Name)));
      else if (Which == Arm::NullTools)
        B.addTool(makeNullClone(*createTool(Name)));
    }
    if (Which == Arm::NullRecords)
      B.addTool(makeNullRecordsTool());
    return B;
  }

  static std::unique_ptr<Session> build(SessionBuilder &B) {
    SessionError Err;
    std::unique_ptr<Session> S = B.build(Err);
    if (!S)
      throw BenchError("session build failed: " + Err.message());
    return S;
  }

  SessionSpec Spec;
  std::string RefReport;
  std::uint64_t RefEvents = 0;
};

//===----------------------------------------------------------------------===//
// fleet: client sessions forwarding into one embedded aggregator tenant
//===----------------------------------------------------------------------===//

class FleetWorkload final : public Workload {
public:
  FleetWorkload(const WorkloadParams &Params, int Iterations)
      : Iterations(Iterations), Socket(Params.WorkDir + "/fleet.sock"),
        ReportDir(Params.WorkDir + "/fleet-reports") {
    Config.Program = std::to_string(Clients) + " clients x " +
                     programName("gpt2", Iterations);
    Config.Backend = "none";
    Config.Tools = FleetTools;
    Config.Async = false;
    Config.Lanes = 0;
    Config.QueueDepth = QueueDepth;
    Config.AnalysisThreads = 1;
    Config.AppThreads = Clients;
    // Each client forwards on its own thread; the tenant's tools run
    // under the tenant mutex, one connection at a time.
    Config.HookThreads = Clients + 1;
    Config.SampleUnit = "round";
    // The seed staggers the clients' starts by up to 2 ms.
    SplitMix64 Rng(Params.Seed ^ 0xf1ee7ull);
    for (std::size_t I = 0; I < Clients; ++I)
      Staggers.push_back(std::chrono::microseconds(Rng.nextBelow(2000)));
    // Decorated tenant tools for the traced rounds: the daemon builds its
    // tenant sessions from registry names.
    for (const std::string &Name : FleetTools)
      ToolRegistry::instance().registerTool(timedName(Name), [this, Name] {
        std::lock_guard<std::mutex> Lock(TimersMu);
        std::shared_ptr<HookStats> Stats =
            CurrentTimers ? CurrentTimers->statsFor(Name)
                          : std::make_shared<HookStats>();
        return std::make_unique<TimedTool>(createTool(Name), Stats);
      });
  }

  void reference() override {
    ::mkdir(ReportDir.c_str(), 0755);
    // One client's run, in process: its kernel counts and event count.
    SessionBuilder B = clientBase();
    B.tool("kernel_frequency");
    auto Counter = std::make_unique<CountingTool>();
    CountingTool *Counts = Counter.get();
    B.addTool(std::move(Counter));
    std::unique_ptr<Session> S = build(B);
    S->run();
    auto *Kf = S->toolAs<tools::KernelFrequencyTool>("kernel_frequency");
    if (!Kf)
      throw BenchError("no kernel_frequency tool in the reference");
    if (Counts->Events == 0)
      throw BenchError("the application emitted no events");
    RefFrequencies = Kf->frequencies();
    RefEvents = Counts->Events;
    // An untimed round, checked against 3x the single client, fixes the
    // merged report every timed round must reproduce.
    round(Arm::Profiled, nullptr);
  }

  Sample run(Arm Which, SpanLog *Trace) override {
    if (Which == Arm::Profiled || Which == Arm::Traced)
      return round(Which, Trace);
    return clientsOnly(Which, Trace);
  }

private:
  static constexpr std::size_t Clients = 3;
  static constexpr const char *TenantName = "fleet";

  static std::string timedName(const std::string &Name) {
    return "pastabench.timed." + Name;
  }

  SessionBuilder clientBase() const {
    SessionBuilder B;
    B.model("gpt2")
        .training()
        .iterations(Iterations)
        .backend("none")
        .analysisThreads(1);
    return B;
  }

  static std::unique_ptr<Session> build(SessionBuilder &B) {
    SessionError Err;
    std::unique_ptr<Session> S = B.build(Err);
    if (!S)
      throw BenchError("client build failed: " + Err.message());
    return S;
  }

  /// Builds one client; forwarders land in \p Forwards.
  std::unique_ptr<Session>
  client(Arm Which, ToolTimers &Timers,
         std::vector<tools::StreamForwardTool *> &Forwards) {
    SessionBuilder B = clientBase();
    tools::StreamForwardTool *Forward = nullptr;
    switch (Which) {
    case Arm::Profiled:
      B.connect(Socket).tenant(TenantName);
      break;
    case Arm::Traced: {
      auto Real = std::make_unique<tools::StreamForwardTool>(Socket,
                                                             TenantName);
      Real->setClientOptions(serve::StreamClientOptions::fromEnv());
      SessionError Err;
      if (!Real->openNow(Err))
        throw BenchError("forwarder connect failed: " + Err.message());
      Forward = Real.get();
      B.addTool(std::make_unique<TimedTool>(
          std::move(Real), Timers.statsFor("stream_forward")));
      break;
    }
    case Arm::Native:
    case Arm::Bare:
      break;
    case Arm::NullTools: {
      tools::StreamForwardTool Real;
      B.addTool(makeNullClone(Real));
      break;
    }
    case Arm::NullRecords:
      B.addTool(makeNullRecordsTool());
      break;
    }
    std::unique_ptr<Session> S = build(B);
    if (Which == Arm::Profiled)
      Forward = S->toolAs<tools::StreamForwardTool>("stream_forward");
    if (Which == Arm::Traced) {
      EventProcessor *P = &S->processor();
      Forward->setPipelineStatsProvider([P] { return P->stats(); });
    }
    if (Forward)
      Forwards.push_back(Forward);
    return S;
  }

  /// Runs every client on its own thread after its seeded stagger and
  /// returns the latest return time.
  Clock::time_point runClients(std::vector<std::unique_ptr<Session>> &Sessions,
                               SpanLog *Trace, std::uint64_t Parent) {
    std::vector<Clock::time_point> Returned(Sessions.size());
    std::vector<std::string> Errors(Sessions.size());
    std::vector<std::thread> Threads;
    for (std::size_t I = 0; I < Sessions.size(); ++I)
      Threads.emplace_back([&, I] {
        try {
          std::this_thread::sleep_for(Staggers[I]);
          ScopedSpan Span(Trace, "client.run", Parent);
          Sessions[I]->run();
        } catch (const std::exception &E) {
          Errors[I] = E.what();
        }
        Returned[I] = Clock::now();
      });
    for (std::thread &T : Threads)
      T.join();
    for (const std::string &E : Errors)
      if (!E.empty())
        throw BenchError("client failed: " + E);
    return *std::max_element(Returned.begin(), Returned.end());
  }

  Sample clientsOnly(Arm Which, SpanLog *Trace) {
    Sample Out;
    Out.Which = Which;
    ToolTimers Timers;
    std::vector<tools::StreamForwardTool *> Forwards;
    ScopedSpan Root(Trace, std::string("round.") + armName(Which));
    Clock::time_point T0 = Clock::now();
    std::vector<std::unique_ptr<Session>> Sessions;
    {
      ScopedSpan Span(Trace, "clients.build", Root.id());
      for (std::size_t I = 0; I < Clients; ++I)
        Sessions.push_back(client(Which, Timers, Forwards));
    }
    Clock::time_point T1 = Clock::now();
    const double Cpu1 = processCpuSeconds();
    runClients(Sessions, Trace, Root.id());
    for (const std::unique_ptr<Session> &S : Sessions)
      addPipeline(Out.Pipeline, S->processor().stats());
    {
      ScopedSpan Span(Trace, "teardown", Root.id());
      Sessions.clear();
    }
    Clock::time_point T2 = Clock::now();
    Out.CpuS = processCpuSeconds() - Cpu1;
    Out.SetupS = secondsBetween(T0, T1);
    Out.RunS = secondsBetween(T1, T2);
    Out.Events = RefEvents * Clients;
    return Out;
  }

  Sample round(Arm Which, SpanLog *Trace) {
    Sample Out;
    Out.Which = Which;
    ToolTimers Timers;
    {
      std::lock_guard<std::mutex> Lock(TimersMu);
      CurrentTimers = &Timers;
    }
    struct ResetTimers {
      FleetWorkload &W;
      ~ResetTimers() {
        std::lock_guard<std::mutex> Lock(W.TimersMu);
        W.CurrentTimers = nullptr;
      }
    } Reset{*this};

    ScopedSpan Root(Trace, std::string("round.") + armName(Which));
    Clock::time_point T0 = Clock::now();
    serve::ServeOptions Opts;
    Opts.SocketPath = Socket;
    Opts.ToolNames.clear();
    for (const std::string &Name : FleetTools)
      Opts.ToolNames.push_back(Which == Arm::Traced ? timedName(Name) : Name);
    Opts.ReportDir = ReportDir;
    Opts.Format = "json";
    auto Daemon = std::make_unique<serve::Aggregator>(Opts);
    {
      ScopedSpan Span(Trace, "daemon.start", Root.id());
      SessionError Err;
      if (!Daemon->start(Err))
        throw BenchError("aggregator start failed: " + Err.message());
    }
    std::vector<tools::StreamForwardTool *> Forwards;
    std::vector<std::unique_ptr<Session>> Sessions;
    {
      ScopedSpan Span(Trace, "clients.build", Root.id());
      for (std::size_t I = 0; I < Clients; ++I)
        Sessions.push_back(client(Which, Timers, Forwards));
    }
    if (Forwards.size() != Clients)
      throw BenchError("a client has no stream_forward tool");
    Clock::time_point T1 = Clock::now();
    const double Cpu1 = processCpuSeconds();
    Clock::time_point LastReturn = runClients(Sessions, Trace, Root.id());

    serve::Tenant *T = Daemon->registry().find(TenantName);
    if (!T)
      throw BenchError("the aggregator never saw tenant '" +
                       std::string(TenantName) + "'");
    const std::uint64_t Expected = RefEvents * Clients;
    {
      ScopedSpan Span(Trace, "drain", Root.id());
      Clock::time_point Limit = Clock::now() + std::chrono::seconds(60);
      for (;;) {
        std::uint64_t Admitted;
        {
          std::lock_guard<std::mutex> Lock(T->mutex());
          Admitted = T->stats().EventsAdmitted;
        }
        if (Admitted >= Expected)
          break;
        if (Clock::now() > Limit)
          throw BenchError("daemon admitted " + std::to_string(Admitted) +
                           " of " + std::to_string(Expected) +
                           " events within 60 s");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    Clock::time_point Drained = Clock::now();
    {
      ScopedSpan Span(Trace, "report", Root.id());
      JsonReportSink Sink;
      Daemon->registry().writeTenantReport(*T, Sink, /*Final=*/false);
      Sink.close();
    }
    Clock::time_point Reported = Clock::now();
    {
      ScopedSpan Span(Trace, "daemon.stop", Root.id());
      Daemon->requestStop();
      Daemon->wait();
    }
    Clock::time_point Stopped = Clock::now();

    // The clients' counters, before their sessions go.
    std::vector<std::uint64_t> Sent;
    for (std::size_t I = 0; I < Sessions.size(); ++I) {
      const TraceWriterStats &W = Forwards[I]->writerStats();
      Sent.push_back(W.Events);
      Out.TraceBytes += W.BytesWritten;
      Out.PayloadRefs += W.PayloadRefs;
      Out.PayloadHits += W.PayloadHits;
      Out.SendBlocked += Forwards[I]->sinkStats().SendBlocked;
      addPipeline(Out.Pipeline, Sessions[I]->processor().stats());
    }
    Forwards.clear();
    {
      ScopedSpan Span(Trace, "teardown", Root.id());
      Sessions.clear();
    }
    Clock::time_point T2 = Clock::now();
    Out.CpuS = processCpuSeconds() - Cpu1;

    // The oracle, outside the timed window (the stopped daemon is
    // destroyed after it). Every stream clean, admitted == sent, and the
    // merged kernel counts exactly Clients x one client's.
    serve::AggregatorStats DaemonStats = Daemon->stats();
    serve::TenantStats Counts;
    std::string MergedKf;
    {
      std::lock_guard<std::mutex> Lock(T->mutex());
      Counts = T->stats();
      auto *Kf = dynamic_cast<tools::KernelFrequencyTool *>(
          unwrap(T->session().tool("kernel_frequency")));
      if (!Kf)
        throw BenchError("tenant has no kernel_frequency tool");
      if (Kf->frequencies().size() != RefFrequencies.size())
        throw BenchError("merged kernel_frequency has " +
                         std::to_string(Kf->frequencies().size()) +
                         " kernels, one client had " +
                         std::to_string(RefFrequencies.size()));
      for (const auto &[Name, Count] : RefFrequencies) {
        auto It = Kf->frequencies().find(Name);
        std::uint64_t Got = It == Kf->frequencies().end() ? 0 : It->second;
        if (Got != Count * Clients)
          throw BenchError("merged count of " + Name + " is " +
                           std::to_string(Got) + ", expected " +
                           std::to_string(Count * Clients));
      }
      MergedKf = reportOf(*Kf);
    }
    Daemon.reset();
    if (DaemonStats.CleanStreams != Clients || DaemonStats.CorruptStreams)
      throw BenchError(std::to_string(DaemonStats.CleanStreams) +
                       " clean and " +
                       std::to_string(DaemonStats.CorruptStreams) +
                       " corrupt streams of " + std::to_string(Clients));
    if (Counts.EventsAdmitted != Expected || Counts.DuplicateFrames)
      throw BenchError("tenant admitted " +
                       std::to_string(Counts.EventsAdmitted) + " of " +
                       std::to_string(Expected) + " events (" +
                       std::to_string(Counts.DuplicateFrames) +
                       " duplicate frames)");
    if (RefMergedKf.empty())
      RefMergedKf = MergedKf;
    requireSame("merged kernel_frequency report", MergedKf, RefMergedKf);
    for (std::size_t I = 0; I < Sent.size(); ++I)
      if (Sent[I] != RefEvents)
        throw BenchError("client " + std::to_string(I) + " sent " +
                         std::to_string(Sent[I]) + " events, expected " +
                         std::to_string(RefEvents));

    Out.SetupS = secondsBetween(T0, T1);
    Out.RunS = secondsBetween(T1, T2);
    Out.ReportS = secondsBetween(Drained, Reported);
    Out.DrainS = secondsBetween(LastReturn, Drained);
    Out.StopS = secondsBetween(Reported, Stopped);
    Out.Events = Counts.EventsAdmitted;
    Out.CleanStreams = DaemonStats.CleanStreams;
    Out.CorruptStreams = DaemonStats.CorruptStreams;
    Out.DuplicateFrames = Counts.DuplicateFrames;
    if (Which == Arm::Traced)
      Out.Tools = Timers.totals();
    return Out;
  }

  int Iterations;
  std::string Socket;
  std::string ReportDir;
  std::vector<std::chrono::microseconds> Staggers;
  std::map<std::string, std::uint64_t> RefFrequencies;
  std::uint64_t RefEvents = 0;
  std::string RefMergedKf;
  std::mutex TimersMu;
  ToolTimers *CurrentTimers = nullptr;
};

//===----------------------------------------------------------------------===//
// admit_cold: producers calling EventProcessor::process directly
//===----------------------------------------------------------------------===//

/// Events per generated unit (op start, tensor alloc, launch, complete,
/// tensor free, op end).
constexpr std::size_t EventsPerUnit = 6;

/// Producer \p Producer's seeded stream: \p Units operators, each with
/// a tensor and a kernel, every name distinct. \p Emit receives each
/// event as the application would build it (fresh strings, descriptors
/// on the producer's stack).
template <typename EmitFn>
void generateStream(std::uint64_t Seed, int Producer, std::size_t Units,
                    EmitFn &&Emit) {
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(Producer));
  std::uint64_t Pool = 0;
  SimTime Now = 0;
  const std::string Rank = "r" + std::to_string(Producer);
  for (std::size_t U = 0; U < Units; ++U) {
    const std::string Tag = std::to_string(Seed) + "." + Rank + "." +
                            std::to_string(U);
    sim::KernelDesc Kernel;
    Kernel.Name = "sm80_xmma_gemm_f16f16_f32_tn_n_tilesize128x128_" + Tag;
    Kernel.Grid = {static_cast<unsigned>(1 + Rng.nextBelow(256)), 1, 1};
    Kernel.Block = {128, 1, 1};
    Kernel.BarriersPerBlock = static_cast<std::uint32_t>(Rng.nextBelow(4));
    dl::TensorInfo Tensor;
    Tensor.Id = (static_cast<std::uint64_t>(Producer) << 40) | U;
    Tensor.Name = "activation." + Tag;
    Tensor.DeviceIndex = Producer;
    std::uint64_t Bytes = 4096 * (1 + Rng.nextBelow(512));
    const std::string OpName = "aten::linear." + Tag;

    auto Base = [&](EventKind Kind) {
      Event E;
      E.Kind = Kind;
      E.DeviceIndex = Producer;
      E.Timestamp = Now += 1 + Rng.nextBelow(1000);
      return E;
    };
    Event Start = Base(EventKind::OperatorStart);
    Start.OpName = OpName;
    Start.LayerName = "model.decoder.layers." + Tag;
    Start.PythonStack = PayloadStack({"train.py(212): train_step",
                                      "model.py(88): forward " + Tag});
    Emit(Start);
    Event Alloc = Base(EventKind::TensorAlloc);
    Alloc.Tensor = &Tensor;
    Alloc.Bytes = Bytes;
    Pool += Bytes;
    Alloc.PoolAllocated = Pool;
    Emit(Alloc);
    Event Launch = Base(EventKind::KernelLaunch);
    Launch.Kernel = &Kernel;
    Launch.GridId = U;
    Emit(Launch);
    Event Complete = Base(EventKind::KernelComplete);
    Complete.Kernel = &Kernel;
    Complete.GridId = U;
    Emit(Complete);
    Event Free = Base(EventKind::TensorReclaim);
    Free.Tensor = &Tensor;
    Free.Bytes = Bytes;
    Pool -= Bytes;
    Free.PoolAllocated = Pool;
    Emit(Free);
    Event End = Base(EventKind::OperatorEnd);
    End.OpName = OpName;
    Emit(End);
  }
}

class AdmitColdWorkload final : public Workload {
public:
  AdmitColdWorkload(std::uint64_t Seed, std::size_t Units)
      : Seed(Seed), Units(Units) {
    Config.Program = std::to_string(Producers) + " producers x " +
                     std::to_string(Units * EventsPerUnit) +
                     " cold events";
    Config.Backend = "(direct EventProcessor::process)";
    Config.Tools = LiveTools;
    Config.Async = true;
    Config.Lanes = Lanes;
    Config.QueueDepth = QueueDepth;
    Config.AnalysisThreads = AnalysisThreads;
    Config.AppThreads = Producers;
    Config.HookThreads = Lanes;
    Config.SampleUnit = "round";
  }

  void reference() override {
    // Reference: a synchronous processor fed rank 0 then rank 1.
    ProcessorOptions Opts;
    Opts.AnalysisThreads = 1;
    EventProcessor P(Opts);
    std::vector<std::unique_ptr<Tool>> Tools;
    for (const std::string &Name : LiveTools) {
      Tools.push_back(createTool(Name));
      P.addTool(Tools.back().get());
      Tools.back()->onStart();
    }
    for (int Producer = 0; Producer < Producers; ++Producer)
      generateStream(Seed, Producer, Units,
                     [&](Event &E) { P.process(std::move(E)); });
    for (const std::unique_ptr<Tool> &T : Tools)
      T->onFinish();
    checkTools(Tools, /*Reference=*/true);
  }

  Sample run(Arm Which, SpanLog *Trace) override {
    Sample Out;
    Out.Which = Which;
    ToolTimers Timers;
    ScopedSpan Root(Trace, std::string("round.") + armName(Which));
    Clock::time_point T0 = Clock::now();
    // Tools before the processor: the processor's lanes must be gone
    // before the tools they dispatch to, on the error path too.
    std::vector<std::unique_ptr<Tool>> Tools;
    std::unique_ptr<EventProcessor> P;
    {
      ScopedSpan Span(Trace, "build", Root.id());
      ProcessorOptions Opts;
      Opts.AsyncEvents = true;
      Opts.DispatchThreads = Lanes;
      Opts.QueueDepth = QueueDepth;
      Opts.AnalysisThreads = AnalysisThreads;
      P = std::make_unique<EventProcessor>(Opts);
      for (const std::string &Name : LiveTools) {
        if (Which == Arm::Profiled)
          Tools.push_back(createTool(Name));
        else if (Which == Arm::Traced)
          Tools.push_back(std::make_unique<TimedTool>(createTool(Name),
                                                      Timers.statsFor(Name)));
        else if (Which == Arm::NullTools)
          Tools.push_back(makeNullClone(*createTool(Name)));
      }
      if (Which == Arm::NullRecords)
        Tools.push_back(makeNullRecordsTool());
      for (const std::unique_ptr<Tool> &T : Tools) {
        P->addTool(T.get());
        T->onStart();
      }
    }
    Clock::time_point T1 = Clock::now();
    const double Cpu1 = processCpuSeconds();

    // Every fourth process() call is timed from outside.
    std::vector<std::vector<std::uint32_t>> CallNs(Producers);
    std::vector<std::string> Errors(Producers);
    std::vector<std::thread> Threads;
    {
      ScopedSpan Span(Trace, "produce", Root.id());
      for (int Producer = 0; Producer < Producers; ++Producer)
        Threads.emplace_back([&, Producer] {
          std::vector<std::uint32_t> &Calls = CallNs[Producer];
          Calls.reserve(Units * EventsPerUnit / 4 + 1);
          std::size_t N = 0;
          try {
            generateStream(Seed, Producer, Units, [&](Event &E) {
              if ((N++ & 3) != 0) {
                P->process(std::move(E));
                return;
              }
              Clock::time_point Begin = Clock::now();
              P->process(std::move(E));
              Calls.push_back(static_cast<std::uint32_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - Begin)
                      .count()));
            });
          } catch (const std::exception &E) {
            Errors[Producer] = E.what();
          }
        });
      for (std::thread &T : Threads)
        T.join();
    }
    for (const std::string &E : Errors)
      if (!E.empty())
        throw BenchError("producer failed: " + E);
    {
      ScopedSpan Span(Trace, "finish", Root.id());
      P->flush();
      for (const std::unique_ptr<Tool> &T : Tools)
        T->onFinish();
    }
    Clock::time_point T2 = Clock::now();
    {
      ScopedSpan Span(Trace, "report", Root.id());
      JsonReportSink Sink;
      for (const std::unique_ptr<Tool> &T : Tools)
        T->report(Sink);
      Sink.close();
    }
    Clock::time_point T3 = Clock::now();
    fillPipeline(Out, *P);
    {
      ScopedSpan Span(Trace, "teardown", Root.id());
      P.reset();
    }
    Clock::time_point T4 = Clock::now();
    Out.CpuS = processCpuSeconds() - Cpu1;

    Out.SetupS = secondsBetween(T0, T1);
    Out.RunS = secondsBetween(T1, T4);
    Out.ReportS = secondsBetween(T2, T3);
    Out.Events = Producers * Units * EventsPerUnit;
    std::vector<double> All;
    for (const std::vector<std::uint32_t> &Calls : CallNs)
      All.insert(All.end(), Calls.begin(), Calls.end());
    if (!All.empty()) {
      std::sort(All.begin(), All.end());
      Out.AdmitP50Ns = All[All.size() / 2];
      Out.AdmitP99Ns = All[std::min(All.size() - 1, All.size() * 99 / 100)];
    }
    const ProcessorStats &S = Out.Pipeline;
    if (S.EventsDropped || S.EventsSampledOut || S.EventsFiltered)
      throw BenchError("admitted " +
                       std::to_string(Out.Events - S.EventsDropped -
                                      S.EventsSampledOut - S.EventsFiltered) +
                       " of " + std::to_string(Out.Events) + " events");
    if (Which == Arm::Profiled || Which == Arm::Traced)
      checkTools(Tools, /*Reference=*/false);
    if (Which == Arm::Traced)
      Out.Tools = Timers.totals();
    return Out;
  }

private:
  static constexpr int Producers = 2;

  /// The interleaving of the two producers is scheduling-dependent, so
  /// only order-independent results are compared: kernel_frequency and
  /// mem_usage_timeline (per-device series) byte for byte,
  /// op_kernel_map's invocation totals and barrier_stall's total stall.
  void checkTools(std::vector<std::unique_ptr<Tool>> &Tools, bool Reference) {
    std::uint64_t Ops = Units * static_cast<std::uint64_t>(Producers);
    for (const std::unique_ptr<Tool> &Owned : Tools) {
      Tool *T = unwrap(Owned.get());
      const std::string Name = T->name();
      if (Name == "kernel_frequency" || Name == "mem_usage_timeline") {
        std::string Report = reportOf(*T);
        if (Reference)
          RefReports[Name] = Report;
        else
          requireSame(Name + " report", Report, RefReports[Name]);
      } else if (auto *Map = dynamic_cast<tools::OpKernelMapTool *>(T)) {
        std::uint64_t Invocations = 0;
        for (const auto &[Op, Profile] : Map->profiles())
          Invocations += Profile.Invocations;
        if (Map->profiles().size() != Ops || Invocations != Ops)
          throw BenchError("op_kernel_map saw " +
                           std::to_string(Map->profiles().size()) +
                           " operators and " + std::to_string(Invocations) +
                           " invocations, expected " + std::to_string(Ops));
      } else if (auto *Stall = dynamic_cast<tools::BarrierStallTool *>(T)) {
        if (Reference)
          RefStallNs = Stall->totalStallNs();
        else if (Stall->totalStallNs() != RefStallNs)
          throw BenchError("barrier_stall total " +
                           std::to_string(Stall->totalStallNs()) +
                           " differs from the reference " +
                           std::to_string(RefStallNs));
      }
    }
  }

  std::uint64_t Seed;
  std::size_t Units;
  std::map<std::string, std::string> RefReports;
  std::uint64_t RefStallNs = 0;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const WorkloadParams &Params,
                                       std::string &Err) {
  tools::registerBuiltinTools();
  registerBuiltinBackends();
  bool Smoke = Params.Smoke;
  if (Params.Name == "zoo_live")
    return std::make_unique<SessionWorkload>(
        SessionSpec{"gpt2", Smoke ? 1 : 12, "none", LiveTools});
  if (Params.Name == "zoo_records")
    return std::make_unique<SessionWorkload>(
        SessionSpec{"resnet18", 1, "cs-cpu", RecordTools});
  if (Params.Name == "fleet")
    return std::make_unique<FleetWorkload>(Params, Smoke ? 1 : 12);
  if (Params.Name == "admit_cold")
    return std::make_unique<AdmitColdWorkload>(Params.Seed,
                                               Smoke ? 200 : 4000);
  Err = "unknown workload '" + Params.Name + "'";
  return nullptr;
}

} // namespace pastabench
