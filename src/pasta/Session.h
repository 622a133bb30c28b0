//===- pasta/Session.h - Unified profiling session --------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front door of PASTA: a Session owns the whole profiling stack —
/// simulated system, platform backend, event pipeline, tools and workload
/// wiring — and is assembled by a fluent SessionBuilder:
///
/// \code
///   pasta::SessionError Err;
///   auto S = pasta::SessionBuilder()
///                .tool("working_set")
///                .backend("cs-gpu")
///                .gpu("A100")
///                .model("bert")
///                .build(Err);
///   if (!S)
///     die(Err.message());
///   pasta::SessionResult Result = S->run();
///   pasta::JsonReportSink Sink(stdout);
///   S->writeReports(Sink);
/// \endcode
///
/// Construction performs *capability negotiation*: the union of every
/// attached tool's requirements() is intersected with the backend's
/// capabilities(), and only the surviving event classes are instrumented
/// — a tool consuming only coarse events never pays for access-record
/// tracing (paper §III-D's selective instrumentation, as API behavior).
///
/// Every user-facing pipeline knob has a builder setter. The two that
/// exist only for measurement, ProcessorOptions::ArenaShards and
/// ArenaMemo, have none: a session uses the hardware-derived arena
/// shard count and the intern memo unless a caller sets them on
/// SessionOptions::Pipeline and passes that to SessionBuilder.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_SESSION_H
#define PASTA_PASTA_SESSION_H

#include "dl/Callbacks.h"
#include "pasta/Backend.h"
#include "pasta/EventHandler.h"
#include "pasta/EventProcessor.h"
#include "pasta/Tool.h"
#include "tools/UvmPrefetcher.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pasta {
namespace dl {
class Executor;
class Program;
} // namespace dl

/// Outcome of one Session::run().
struct SessionResult {
  dl::RunStats Stats;
  /// UVM counters snapshot (device 0) at run end.
  sim::UvmCounters Uvm;
  std::uint64_t ProgramKernels = 0;
};

/// Everything a session needs to know; filled by the SessionBuilder.
struct SessionOptions {
  std::vector<std::string> ToolNames;
  std::string Backend = "none";
  std::string Gpu = "A100";
  /// Identical devices in the simulated machine.
  int DeviceCount = 1;
  std::string Model = "resnet18";
  bool Training = false;
  /// 0 = model default for the mode.
  int Iterations = 0;
  /// Pool segments from managed (UVM) memory.
  bool Managed = false;
  /// Artificial device-memory cap in bytes on device 0 (0 = none).
  std::uint64_t MemoryLimitBytes = 0;
  tools::PrefetchLevel Prefetch = tools::PrefetchLevel::None;
  double SampleRate = 1.0;
  std::uint64_t RecordGranularityBytes = 4096;
  std::uint64_t DeviceBufferRecords = 1u << 20;
  /// The event pipeline (dispatch unit) configuration, handed to the
  /// session's EventProcessor as is.
  ProcessorOptions Pipeline;
  /// Non-empty: capture the admitted event stream into this binary trace
  /// file (a trace_capture tool is attached automatically; see
  /// docs/TRACE_FORMAT.md).
  std::string CapturePath;
  /// Trace file the "replay" backend re-admits (required with it,
  /// rejected with any other backend).
  std::string TracePath;
  /// Replay pacing: 0 = full speed (default), 1.0 = captured wall-clock
  /// spacing, 2.0 = twice as fast.
  double ReplaySpeed = 0.0;
  /// Non-empty: forward the admitted event stream to the `accelprof
  /// --serve` aggregator listening on this Unix-domain socket (a
  /// stream_forward tool is attached automatically; see docs/SERVE.md).
  std::string ConnectPath;
  /// Tenant name the aggregator merges this session's stream under
  /// (only with ConnectPath; empty = "default").
  std::string TenantName;
  /// Stream transport fault-tolerance knobs (only with ConnectPath or a
  /// registry-created stream_forward tool). Sentinels (-1) defer to the
  /// PASTA_CONNECT_TIMEOUT / PASTA_CONNECT_RETRIES / PASTA_RECONNECT /
  /// PASTA_RECONNECT_MAX / PASTA_SPILL_MAX_BYTES environment, which in
  /// turn defaults to serve::StreamClientOptions.
  double ConnectTimeoutSeconds = -1.0;
  int ConnectRetries = -1;
  /// -1 = env, 0 = fail-fast on disconnect, 1 = reconnect + replay.
  int ReconnectMode = -1;
  int ReconnectMax = -1;
  /// Spill-buffer cap (bytes) for unacked frames under ReconnectMode=1.
  long long SpillMaxBytes = -1;
};

/// One profiling session: system + backend + pipeline + tools + workload.
class Session {
public:
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  //===--------------------------------------------------------------------===
  // Annotation API (pasta.start / pasta.stop; paper Listing 1)
  //===--------------------------------------------------------------------===
  // Routed through the processor so the async pipeline flushes first and
  // the region boundary falls between the same events as in sync mode.
  void start() { Processor.annotationStart(); }
  void stop() { Processor.annotationStop(); }

  //===--------------------------------------------------------------------===
  // Running work
  //===--------------------------------------------------------------------===
  /// Runs the configured model workload end-to-end and finishes the
  /// session (detach + tool onFinish), leaving reports ready to write.
  /// \p Customize, when set, sees the executor before the run.
  SessionResult
  run(const std::function<void(dl::Executor &)> &Customize = {});

  /// Runs one explicit program on device \p Rank's runtime. Does NOT
  /// finish the session — callers composing multi-program runs (e.g.
  /// Megatron ranks) call finish() themselves.
  dl::RunStats
  runProgram(const dl::Program &Program, int Rank = 0,
             const std::function<void(dl::Executor &)> &Customize = {});

  //===--------------------------------------------------------------------===
  // Lifecycle / reporting
  //===--------------------------------------------------------------------===
  /// Detaches instrumentation and runs every tool's onFinish. Safe to
  /// call any number of times; only the first invocation acts.
  void finish();
  /// Emits every tool's report into \p Sink (and closes it).
  void writeReports(ReportSink &Sink);
  /// Same, but leaves the sink open when \p Close is false so callers
  /// can append further report sections before closing once.
  void writeReports(ReportSink &Sink, bool Close);
  /// Emits the dispatch-unit counters (EventsDropped, MaxQueueDepth,
  /// FlushCount, ...) as one "event_pipeline" report section. Kept out
  /// of writeReports so tool reports stay identical across sync/async
  /// pipelines; does not close \p Sink.
  void writePipelineReport(ReportSink &Sink);

  //===--------------------------------------------------------------------===
  // Introspection
  //===--------------------------------------------------------------------===
  const SessionOptions &options() const { return Opts; }
  PlatformBackend &backend() { return *Backend; }
  /// Union of the attached tools' requirements.
  const CapabilitySet &required() const { return Required; }
  /// Event classes actually instrumented (required ∩ backend caps).
  const CapabilitySet &negotiated() const { return Negotiated; }
  /// Requirements the backend could not satisfy (empty when all good).
  CapabilitySet unsatisfied() const {
    return Required.minus(Backend->capabilities());
  }

  EventProcessor &processor() { return Processor; }
  sim::System &system() { return *System; }
  dl::CallbackRegistry &callbacks() { return Callbacks; }
  /// First tool with \p Name, null when absent. The typed variant is a
  /// checked cast: null when the name is absent *or* the named tool is
  /// not a ToolT (two registered tools may share a report name without
  /// sharing a type, so an unchecked cast would be a foot-gun).
  Tool *tool(const std::string &Name) const;
  template <typename ToolT> ToolT *toolAs(const std::string &Name) const {
    return dynamic_cast<ToolT *>(tool(Name));
  }
  /// Every tool the session owns, detached ones included (their frozen
  /// reports stay in writeReports()).
  const std::vector<std::unique_ptr<Tool>> &tools() const { return Tools; }

  //===--------------------------------------------------------------------===
  // Live reconfiguration
  //===--------------------------------------------------------------------===
  // These run only while no event admission (a process() call or record
  // delivery) on the session's processor is in flight, and the caller
  // ensures that. run() admits on its calling thread, so a caller on
  // that thread reconfigures between runs; the serve daemon holds the
  // tenant lock that also serializes the tenant's admission. With
  // validation on (SessionBuilder::validate()), a swap that overlaps an
  // admission is reported.

  /// Attaches \p T to the *running* session: the pipeline publishes a
  /// new routing epoch behind a flush barrier and the tool sees every
  /// event admitted afterwards. Returns the raw pointer, or null when
  /// called from inside a dispatch context (a tool hook cannot
  /// reconfigure the pipeline that is delivering to it).
  Tool *addTool(std::unique_ptr<Tool> T);
  /// Registry-name variant of the live addTool; null (with a logged
  /// warning) when the name is unknown.
  Tool *addToolByName(const std::string &Name);
  /// Detaches the first attached tool named \p Name from the running
  /// session: pre-detach admissions drain into it, its onFinish runs,
  /// and its report freezes — it still appears in writeReports(), but
  /// finish() does not run its onFinish again. Returns false when no
  /// attached tool has that name or when called from a dispatch context.
  bool detachTool(const std::string &Name);

private:
  friend class SessionBuilder;
  explicit Session(const SessionOptions &Opts);

  /// Builder-called: registry lookups, negotiation, attach. Returns false
  /// with \p Err set on failure.
  bool initialize(std::vector<std::unique_ptr<Tool>> ExtraTools,
                  SessionError &Err);
  bool isDetached(const Tool *T) const;

  // Declaration order is destruction order, reversed: the runtimes and
  // callback registry go first, then the tools, the handler and the
  // processor, and the backend and simulated system last.
  SessionOptions Opts;
  std::unique_ptr<sim::System> System;
  std::unique_ptr<PlatformBackend> Backend;
  EventProcessor Processor;
  EventHandler Handler;
  std::vector<std::unique_ptr<Tool>> Tools;
  /// Tools detached from the live pipeline: onFinish already ran at
  /// detach (their reports are frozen snapshots of the attached window),
  /// so finish() must not run it again.
  std::vector<const Tool *> Detached;
  dl::CallbackRegistry Callbacks;
  std::vector<std::unique_ptr<dl::DeviceApi>> DeviceApis;
  CapabilitySet Required;
  CapabilitySet Negotiated;
  bool Finished = false;
};

/// Fluent assembler for Session.
class SessionBuilder {
public:
  SessionBuilder() = default;
  /// Starts from an existing configuration (e.g. to derive a probe run
  /// from a fully-configured builder). Owned tools are not carried over.
  explicit SessionBuilder(SessionOptions InitialOpts)
      : Opts(std::move(InitialOpts)) {}

  const SessionOptions &options() const { return Opts; }

  SessionBuilder &tool(const std::string &Name) {
    Opts.ToolNames.push_back(Name);
    return *this;
  }
  /// Adds an already-constructed tool (the session takes ownership).
  SessionBuilder &addTool(std::unique_ptr<Tool> T) {
    OwnedTools.push_back(std::move(T));
    return *this;
  }
  SessionBuilder &backend(const std::string &Name) {
    Opts.Backend = Name;
    return *this;
  }
  SessionBuilder &gpu(const std::string &Name) {
    Opts.Gpu = Name;
    return *this;
  }
  SessionBuilder &deviceCount(int Count) {
    Opts.DeviceCount = Count;
    return *this;
  }
  SessionBuilder &model(const std::string &Name) {
    Opts.Model = Name;
    return *this;
  }
  SessionBuilder &training(bool Enabled = true) {
    Opts.Training = Enabled;
    return *this;
  }
  SessionBuilder &iterations(int Count) {
    Opts.Iterations = Count;
    return *this;
  }
  SessionBuilder &managed(bool Enabled = true) {
    Opts.Managed = Enabled;
    return *this;
  }
  SessionBuilder &memoryLimit(std::uint64_t Bytes) {
    Opts.MemoryLimitBytes = Bytes;
    return *this;
  }
  SessionBuilder &prefetch(tools::PrefetchLevel Level) {
    Opts.Prefetch = Level;
    return *this;
  }
  SessionBuilder &sampleRate(double Rate) {
    Opts.SampleRate = Rate;
    return *this;
  }
  SessionBuilder &recordGranularity(std::uint64_t Bytes) {
    Opts.RecordGranularityBytes = Bytes;
    return *this;
  }
  SessionBuilder &deviceBufferRecords(std::uint64_t Records) {
    Opts.DeviceBufferRecords = Records;
    return *this;
  }
  SessionBuilder &analysisThreads(std::size_t Threads) {
    Opts.Pipeline.AnalysisThreads = Threads;
    return *this;
  }
  /// Runs event dispatch on a dedicated thread behind a bounded queue
  /// (paper §III-B's decoupled dispatch unit).
  SessionBuilder &asyncEvents(bool Enabled = true) {
    Opts.Pipeline.AsyncEvents = Enabled;
    return *this;
  }
  /// Per-lane queue capacity. Admission is lossless: a producer that
  /// finds its lane's queue full waits until the lane catches up.
  SessionBuilder &queueDepth(std::size_t Depth) {
    Opts.Pipeline.QueueDepth = Depth;
    return *this;
  }
  /// Number of dispatch lanes for the asynchronous pipeline, fixed for
  /// the session's lifetime. Tools with ShardByDevice/Concurrent
  /// contracts spread across lanes; Serial tools stay pinned to one.
  SessionBuilder &dispatchThreads(std::size_t Threads) {
    Opts.Pipeline.DispatchThreads = Threads;
    return *this;
  }
  /// Turns on the runtime contract validator (docs/VALIDATION.md): the
  /// pipeline checks Serial reentrancy/lane affinity, subscription
  /// masks and drift, arena payload liveness, and flush barriers, and
  /// aborts on the first violation (override with
  /// Validator::setHandler).
  SessionBuilder &validate(bool Enabled = true) {
    Opts.Pipeline.Validate = Enabled;
    return *this;
  }
  /// Captures the admitted event stream into \p Path (binary trace; a
  /// trace_capture tool is attached automatically).
  SessionBuilder &capture(const std::string &Path) {
    Opts.CapturePath = Path;
    return *this;
  }
  /// The trace file the "replay" backend re-admits.
  SessionBuilder &trace(const std::string &Path) {
    Opts.TracePath = Path;
    return *this;
  }
  /// Forwards the admitted event stream to the aggregator socket at
  /// \p SocketPath (a stream_forward tool is attached automatically).
  SessionBuilder &connect(const std::string &SocketPath) {
    Opts.ConnectPath = SocketPath;
    return *this;
  }
  /// Tenant name the aggregator merges this session's stream under.
  SessionBuilder &tenant(const std::string &Name) {
    Opts.TenantName = Name;
    return *this;
  }
  /// Seconds each aggregator connect attempt may take before it fails
  /// (handshake included). Overrides PASTA_CONNECT_TIMEOUT.
  SessionBuilder &connectTimeout(double Seconds) {
    Opts.ConnectTimeoutSeconds = Seconds;
    return *this;
  }
  /// Extra connect attempts (with backoff) before the initial connect
  /// gives up. Overrides PASTA_CONNECT_RETRIES.
  SessionBuilder &connectRetries(int Retries) {
    Opts.ConnectRetries = Retries;
    return *this;
  }
  /// Survive aggregator disconnects: buffer unacked frames and replay
  /// them over a resumed connection. Overrides PASTA_RECONNECT.
  SessionBuilder &reconnect(bool Enabled = true) {
    Opts.ReconnectMode = Enabled ? 1 : 0;
    return *this;
  }
  /// Consecutive failed reconnect attempts before the stream is
  /// abandoned. Overrides PASTA_RECONNECT_MAX.
  SessionBuilder &reconnectMax(int Attempts) {
    Opts.ReconnectMax = Attempts;
    return *this;
  }
  /// Spill-buffer cap (bytes) for unacked frames while reconnecting.
  /// Overrides PASTA_SPILL_MAX_BYTES.
  SessionBuilder &spillMaxBytes(long long Bytes) {
    Opts.SpillMaxBytes = Bytes;
    return *this;
  }
  /// Replay pacing: 0 = full speed, 1.0 = captured spacing, 2.0 = twice
  /// as fast.
  SessionBuilder &replaySpeed(double Speed) {
    Opts.ReplaySpeed = Speed;
    return *this;
  }

  /// Validates the configuration and assembles the session; null with
  /// \p Err describing the first problem on failure.
  std::unique_ptr<Session> build(SessionError &Err);

private:
  SessionOptions Opts;
  std::vector<std::unique_ptr<Tool>> OwnedTools;
};

} // namespace pasta

#endif // PASTA_PASTA_SESSION_H
