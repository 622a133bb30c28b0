//===- tools/StreamForwardTool.h - Live trace forwarding --------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The producer half of fleet aggregation (docs/SERVE.md):
/// trace_capture's sibling that serializes the admitted event stream
/// with the same TraceWriter — payload tables emitted once per
/// connection, events referencing them by u32 id — but ships the bytes
/// incrementally over a TraceStreamSink socket connection to an
/// `accelprof --serve` aggregator instead of a file. Subscribes to
/// every kind as a Serial tool, so the wire stream is the admission
/// order and a single-client tenant's merged report is byte-identical
/// to running the same tools in-process.
///
/// The socket path and tenant come from the constructor
/// (SessionBuilder::connect / accelprof --connect/--tenant) or, for
/// registry-created instances ("stream_forward" via --tool/PASTA_TOOL),
/// the PASTA_CONNECT / PASTA_TENANT environment variables. Transport
/// fault-tolerance knobs (connect timeout/retries, reconnect with
/// spill replay) ride in StreamClientOptions — driver flags override
/// PASTA_* env, env overrides defaults.
///
/// A transport failure after connect (daemon died mid-run) is handled
/// per the options: with --reconnect the sink retries with backoff and
/// replays unacked frames; otherwise it is logged once and the session
/// keeps running unstreamed — losing the aggregator must never take
/// the profiled process down with it.
///
/// At finish, the tool ships the session's ProcessorStats as one meta
/// frame so the daemon can merge a fleet-wide event_pipeline rollup
/// (--pipeline-report).
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_TOOLS_STREAMFORWARDTOOL_H
#define PASTA_TOOLS_STREAMFORWARDTOOL_H

#include "pasta/EventProcessor.h"
#include "pasta/Tool.h"
#include "pasta/TraceWriter.h"
#include "serve/TraceStreamSink.h"

#include <functional>
#include <string>

namespace pasta {
namespace tools {

/// Forwards the admitted event stream to an aggregator socket.
class StreamForwardTool : public Tool {
public:
  /// Registry constructor: takes socket + tenant from PASTA_CONNECT /
  /// PASTA_TENANT at openNow()/onStart() time.
  StreamForwardTool();
  /// Connects to \p SocketPath as \p Tenant ("" = "default").
  StreamForwardTool(std::string SocketPath, std::string Tenant);

  std::string name() const override { return "stream_forward"; }

  /// Every kind, Serial — the wire stream is the admission order.
  Subscription subscription() override;

  /// Overrides the env-resolved transport options; call before the
  /// connection opens (Session::initialize does, from builder knobs).
  void setClientOptions(const serve::StreamClientOptions &O);

  /// Source of the client pipeline counters shipped as a meta frame at
  /// finish (Session::initialize wires processor().stats() in). Unset =
  /// no meta frame.
  void setPipelineStatsProvider(std::function<ProcessorStats()> Provider) {
    StatsProvider = std::move(Provider);
  }

  /// Connects now instead of at onStart(), so Session::initialize
  /// surfaces a dead daemon or bad tenant name at build time. False
  /// with \p Err on failure.
  bool openNow(SessionError &Err);

  void onStart() override;
  void onEvent(const Event &E) override;
  void onFinish() override;

  /// Writer counters only — everything deterministic for a
  /// deterministic workload. Transport counters (frames, blocked sends,
  /// reconnects, replays) are timing-dependent and stay out, same
  /// reasoning as the capture report omitting its path.
  void report(ReportSink &Sink) override;

  const TraceWriterStats &writerStats() const { return Writer.stats(); }
  const serve::TraceStreamSinkStats &sinkStats() const {
    return Sink.stats();
  }

private:
  std::string SocketPath;
  std::string Tenant;
  serve::TraceStreamSink Sink;
  TraceWriter Writer;
  serve::StreamClientOptions Opts;
  bool OptsSet = false;
  std::function<ProcessorStats()> StatsProvider;
  bool OpenFailed = false;
};

} // namespace tools
} // namespace pasta

#endif // PASTA_TOOLS_STREAMFORWARDTOOL_H
