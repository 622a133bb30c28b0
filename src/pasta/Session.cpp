//===- pasta/Session.cpp --------------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/Session.h"

#include "dl/Backend.h"
#include "dl/Executor.h"
#include "dl/Models.h"
#include "pasta/ReplayBackend.h"
#include "pasta/StreamEnvelope.h"
#include "sim/System.h"
#include "support/Format.h"
#include "support/Logging.h"
#include "support/ReportSink.h"
#include "tools/RegisterTools.h"
#include "tools/StreamForwardTool.h"
#include "tools/TraceCaptureTool.h"

#include <algorithm>
#include <cassert>

using namespace pasta;

Session::Session(const SessionOptions &Opts)
    : Opts(Opts), Processor(Opts.Pipeline), Handler(Processor) {}

Session::~Session() { finish(); }

bool Session::initialize(std::vector<std::unique_ptr<Tool>> ExtraTools,
                         SessionError &Err) {
  // Simulated machine: DeviceCount identical GPUs of the chosen preset.
  sim::GpuSpec Spec = sim::gpuSpecByName(Opts.Gpu);
  std::vector<sim::GpuSpec> Specs(static_cast<std::size_t>(Opts.DeviceCount),
                                  Spec);
  System = std::make_unique<sim::System>(Specs);
  if (Opts.MemoryLimitBytes > 0)
    System->device(0).setMemoryLimit(Opts.MemoryLimitBytes);

  Backend = BackendRegistry::instance().create(Opts.Backend, Spec.Vendor, Err);
  if (!Backend)
    return false;

  // Replay sessions validate their trace now, so a truncated or corrupt
  // file fails at build() time — before any tool has run.
  if (auto *Replay = dynamic_cast<ReplayBackend *>(Backend.get())) {
    Replay->configure(Opts.TracePath, Opts.ReplaySpeed);
    if (!Replay->prepare(Err))
      return false;
  }

  // Tools join the pipeline before negotiation so requirements() sees the
  // final set.
  for (const std::string &Name : Opts.ToolNames) {
    std::unique_ptr<Tool> T = ToolRegistry::instance().create(Name, Err);
    if (!T)
      return false;
    addTool(std::move(T));
  }
  for (std::unique_ptr<Tool> &T : ExtraTools)
    addTool(std::move(T));
  if (!Opts.CapturePath.empty()) {
    auto Capture = std::make_unique<tools::TraceCaptureTool>(Opts.CapturePath);
    if (!Capture->openNow(Err))
      return false;
    addTool(std::move(Capture));
  }
  // Transport knobs: env-resolved defaults, overridden by any builder
  // knob the caller actually set (sentinels mean "inherit").
  serve::StreamClientOptions ClientOpts = serve::StreamClientOptions::fromEnv();
  if (Opts.ConnectTimeoutSeconds >= 0.0)
    ClientOpts.ConnectTimeoutSeconds = Opts.ConnectTimeoutSeconds;
  if (Opts.ConnectRetries >= 0)
    ClientOpts.ConnectRetries = Opts.ConnectRetries;
  if (Opts.ReconnectMode >= 0)
    ClientOpts.Reconnect = Opts.ReconnectMode != 0;
  if (Opts.ReconnectMax >= 0)
    ClientOpts.ReconnectMax = Opts.ReconnectMax;
  if (Opts.SpillMaxBytes >= 0)
    ClientOpts.SpillMaxBytes = static_cast<std::uint64_t>(Opts.SpillMaxBytes);
  // Like capture, the forwarder connects now so a dead aggregator or a
  // rejected tenant fails at build() time, not mid-workload.
  if (!Opts.ConnectPath.empty()) {
    auto Forward = std::make_unique<tools::StreamForwardTool>(
        Opts.ConnectPath,
        Opts.TenantName.empty() ? "default" : Opts.TenantName);
    Forward->setClientOptions(ClientOpts);
    if (!Forward->openNow(Err))
      return false;
    addTool(std::move(Forward));
  }
  // Every forwarder — --connect's and registry-created ("--tool
  // stream_forward") alike — gets the resolved transport knobs and the
  // pipeline-counter source for its finish-time meta frame.
  for (const std::unique_ptr<Tool> &T : Tools) {
    if (auto *Forward = dynamic_cast<tools::StreamForwardTool *>(T.get())) {
      Forward->setClientOptions(ClientOpts);
      Forward->setPipelineStatsProvider([this] { return Processor.stats(); });
    }
  }

  // Capability negotiation: enable only the instrumentation some tool
  // actually consumes.
  for (const std::unique_ptr<Tool> &T : Tools)
    Required |= T->requirements();
  Negotiated = Required & Backend->capabilities();
  CapabilitySet Missing = unsatisfied();
  if (!Missing.empty())
    logWarning("backend '" + Opts.Backend + "' cannot satisfy tool "
               "requirements: " + Missing.str());

  // The backend flavor is decided by PlatformBackend::attach; the trace
  // options only carry the tuning knobs.
  TraceOptions Trace;
  Trace.SampleRate = Opts.SampleRate;
  Trace.RecordGranularityBytes = Opts.RecordGranularityBytes;
  Trace.DeviceBufferRecords = Opts.DeviceBufferRecords;
  for (int Rank = 0; Rank < Opts.DeviceCount; ++Rank) {
    DeviceApis.push_back(Backend->createRuntime(*System, Rank));
    Backend->attach(Handler, Rank, Negotiated, Trace);
  }
  Handler.attachDl(Callbacks);
  return true;
}

SessionResult
Session::run(const std::function<void(dl::Executor &)> &Customize) {
  // Replay sessions source their events from the captured trace, not
  // from a model run: pump the trace through the normal admission path
  // and synthesize RunStats from the trace's time window.
  if (auto *Replay = dynamic_cast<ReplayBackend *>(Backend.get())) {
    (void)Customize;
    SessionResult Result;
    ReplayStats Stats;
    SessionError Err;
    if (!Replay->replayInto(Processor, Stats, Err))
      logWarning("replay failed: " + Err.message());
    Result.Stats.StartTime = Stats.FirstTimestamp;
    Result.Stats.EndTime = Stats.LastTimestamp;
    Result.Stats.KernelsLaunched = Stats.KernelLaunches;
    Result.ProgramKernels = Stats.KernelLaunches;
    Result.Uvm = System->device(0).uvm().counters();
    finish();
    return Result;
  }

  dl::ScheduleBuilder::Options BuildOpts;
  BuildOpts.Flavor = DeviceApis.front()->kernelFlavor();
  BuildOpts.Training = Opts.Training;
  BuildOpts.Iterations = Opts.Iterations;
  dl::Program Program = dl::buildModelProgram(Opts.Model, BuildOpts);

  SessionResult Result;
  Result.ProgramKernels = Program.numKernels();
  Result.Stats = runProgram(Program, /*Rank=*/0, Customize);
  Result.Uvm = System->device(0).uvm().counters();

  // One-shot entry point: the session is report-ready when run returns.
  finish();
  return Result;
}

dl::RunStats
Session::runProgram(const dl::Program &Program, int Rank,
                    const std::function<void(dl::Executor &)> &Customize) {
  dl::ExecutorOptions ExecOpts;
  ExecOpts.Managed = Opts.Managed;
  dl::Executor Executor(*DeviceApis[static_cast<std::size_t>(Rank)],
                        Callbacks, ExecOpts);

  tools::UvmPrefetcher Prefetcher(Opts.Prefetch);
  Prefetcher.install(Executor);
  if (Customize)
    Customize(Executor);
  return Executor.run(Program);
}

void Session::finish() {
  if (Finished)
    return;
  Finished = true;
  Handler.detach();
  // Hard flush barrier: every admitted event must reach the tools before
  // onFinish snapshots their state (async reports stay deterministic).
  Processor.flush();
  for (const std::unique_ptr<Tool> &T : Tools)
    if (!isDetached(T.get()))
      T->onFinish();
}

void Session::writeReports(ReportSink &Sink) { writeReports(Sink, true); }

void Session::writeReports(ReportSink &Sink, bool Close) {
  for (const std::unique_ptr<Tool> &T : Tools)
    T->report(Sink);
  if (Close)
    Sink.close();
}

void Session::writePipelineReport(ReportSink &Sink) {
  Processor.reportPipeline(Sink);
}

bool Session::isDetached(const Tool *T) const {
  return std::find(Detached.begin(), Detached.end(), T) != Detached.end();
}

Tool *Session::tool(const std::string &Name) const {
  // Detached tools stay in tools() (their frozen reports remain in the
  // output) but are no longer part of the live tool set this accessor
  // answers for — so detach-then-reattach round-trips work.
  for (const std::unique_ptr<Tool> &T : Tools)
    if (T->name() == Name && !isDetached(T.get()))
      return T.get();
  return nullptr;
}

Tool *Session::addTool(std::unique_ptr<Tool> T) {
  assert(T && "null tool");
  Tool *Raw = T.get();
  if (!Processor.addTool(Raw))
    return nullptr; // rejected: called from inside a dispatch context
  Tools.push_back(std::move(T));
  Raw->onStart();
  return Raw;
}

Tool *Session::addToolByName(const std::string &Name) {
  tools::registerBuiltinTools();
  SessionError Err;
  std::unique_ptr<Tool> T = ToolRegistry::instance().create(Name, Err);
  if (!T) {
    logWarning(Err.message());
    return nullptr;
  }
  return addTool(std::move(T));
}

bool Session::detachTool(const std::string &Name) {
  for (const std::unique_ptr<Tool> &T : Tools) {
    // Keep scanning past a same-name tool that was already detached.
    if (T->name() != Name || isDetached(T.get()))
      continue;
    if (!Processor.removeTool(T.get()))
      return false; // rejected: called from inside a dispatch context
    // The swap's drain barrier delivered every pre-detach admission; the
    // tool's report is now a frozen snapshot of its attached window.
    T->onFinish();
    Detached.push_back(T.get());
    return true;
  }
  return false;
}

std::unique_ptr<Session> SessionBuilder::build(SessionError &Err) {
  // Friendly default: make the built-in names resolvable without an
  // explicit registration call in every client.
  tools::registerBuiltinTools();
  registerBuiltinBackends();

  if (Opts.DeviceCount < 1) {
    Err.assign("device count must be >= 1");
    return nullptr;
  }
  const std::vector<std::string> &Gpus = sim::knownGpuNames();
  if (std::find(Gpus.begin(), Gpus.end(), Opts.Gpu) == Gpus.end()) {
    Err.assign("unknown GPU '" + Opts.Gpu + "'; known GPUs: " +
               join(Gpus, ", "));
    return nullptr;
  }
  bool ModelKnown = false;
  std::vector<std::string> ZooNames;
  for (const dl::ModelConfig &Config : dl::modelZoo()) {
    ModelKnown |= Config.Name == Opts.Model || Config.Abbrev == Opts.Model;
    ZooNames.push_back(Config.Name);
  }
  if (!ModelKnown) {
    Err.assign("unknown model '" + Opts.Model + "'; model zoo: " +
               join(ZooNames, ", "));
    return nullptr;
  }
  if (!(Opts.SampleRate > 0.0) || Opts.SampleRate > 1.0) {
    Err.assign("sample rate must be in (0, 1]");
    return nullptr;
  }
  if (Opts.RecordGranularityBytes == 0) {
    Err.assign("record granularity must be positive");
    return nullptr;
  }
  if (Opts.DeviceBufferRecords == 0) {
    Err.assign("device buffer capacity must be positive");
    return nullptr;
  }
  if (Opts.Iterations < 0) {
    Err.assign("iteration count must be >= 0 (0 = model default)");
    return nullptr;
  }
  const ProcessorOptions &Pipeline = Opts.Pipeline;
  if (Pipeline.QueueDepth == 0) {
    Err.assign("event queue depth must be positive");
    return nullptr;
  }
  if (Pipeline.SampleEveryN == 0) {
    Err.assign("overflow sample modulus must be positive");
    return nullptr;
  }
  if (Pipeline.DispatchThreads == 0 || Pipeline.DispatchThreads > 64) {
    Err.assign("dispatch thread count must be in [1, 64]");
    return nullptr;
  }
  if (Pipeline.ArenaShards > 64) {
    Err.assign("arena shard count must be in [1, 64] (0 = auto)");
    return nullptr;
  }
  if (Opts.ReplaySpeed < 0.0) {
    Err.assign("replay speed must be >= 0 (0 = full speed)");
    return nullptr;
  }
  if (Opts.Backend == "replay" && Opts.TracePath.empty()) {
    Err.assign("backend 'replay' needs a trace file; pass --trace <file> "
               "(SessionBuilder::trace)");
    return nullptr;
  }
  if (!Opts.TracePath.empty() && Opts.Backend != "replay") {
    Err.assign("a trace file only makes sense with --backend replay "
               "(got backend '" + Opts.Backend + "')");
    return nullptr;
  }
  if (!Opts.TenantName.empty() && Opts.ConnectPath.empty()) {
    Err.assign("a tenant name only makes sense with --connect <socket> "
               "(SessionBuilder::connect)");
    return nullptr;
  }
  if (!Opts.TenantName.empty() &&
      !trace::isValidTenantName(Opts.TenantName)) {
    Err.assign("invalid tenant name '" + Opts.TenantName +
               "': 1-64 characters of [A-Za-z0-9._-], not starting with "
               "a dot");
    return nullptr;
  }

  std::unique_ptr<Session> S(new Session(Opts));
  if (!S->initialize(std::move(OwnedTools), Err))
    return nullptr;
  return S;
}
