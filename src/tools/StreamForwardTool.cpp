//===- tools/StreamForwardTool.cpp ----------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tools/StreamForwardTool.h"

#include "pasta/StreamEnvelope.h"
#include "support/Env.h"
#include "support/Logging.h"
#include "support/ReportSink.h"

using namespace pasta;
using namespace pasta::tools;

StreamForwardTool::StreamForwardTool() = default;

StreamForwardTool::StreamForwardTool(std::string SocketPath,
                                     std::string Tenant)
    : SocketPath(std::move(SocketPath)), Tenant(std::move(Tenant)) {}

Subscription StreamForwardTool::subscription() {
  Subscription Sub;
  Sub.Kinds = EventKindMask::all();
  Sub.Model = ExecutionModel::Serial;
  return Sub;
}

void StreamForwardTool::setClientOptions(
    const serve::StreamClientOptions &O) {
  Opts = O;
  OptsSet = true;
}

bool StreamForwardTool::openNow(SessionError &Err) {
  if (Sink.isConnected())
    return true;
  if (SocketPath.empty())
    SocketPath = getEnvString("PASTA_CONNECT", "");
  if (Tenant.empty())
    Tenant = getEnvString("PASTA_TENANT", "default");
  // Env resolution happens at open time, not construction, so tests
  // (and late exports) see the current PASTA_* values.
  Sink.setOptions(OptsSet ? Opts : serve::StreamClientOptions::fromEnv());
  if (SocketPath.empty()) {
    Err.assign("stream_forward has no aggregator socket; pass "
               "--connect <socket> (SessionBuilder::connect) or set "
               "PASTA_CONNECT");
    OpenFailed = true;
    return false;
  }
  if (!Sink.connect(SocketPath, Tenant, Err)) {
    OpenFailed = true;
    return false;
  }
  if (!Writer.openSink(Sink, trace::kFlagStreamed, Err)) {
    OpenFailed = true;
    return false;
  }
  return true;
}

void StreamForwardTool::onStart() {
  if (Sink.isConnected() || OpenFailed)
    return;
  SessionError Err;
  if (!openNow(Err))
    logWarning(Err.message() + "; forwarding nothing");
}

void StreamForwardTool::onEvent(const Event &E) { Writer.append(E); }

void StreamForwardTool::onFinish() {
  if (!Sink.isConnected()) {
    // A sink that failed after a successful open may have closed its
    // socket already (a reconnect sink whose spill buffer could not
    // serve a resume does); the stream is truncated all the same. A
    // forwarder that never connected said so at onStart.
    if (!OpenFailed && Sink.failed())
      logWarning("stream connection to '" + SocketPath +
                 "' failed; aggregator will see this stream as truncated");
    return;
  }
  SessionError Err;
  // End record into the frame buffer, then the pipeline-counter meta
  // frame, then the final frame + EOF.
  bool Ok = Writer.finalize(Err);
  if (Ok && StatsProvider) {
    ProcessorStats S = StatsProvider();
    std::vector<trace::StreamMetaCounter> Counters = {
        {trace::StreamMetaEventsProcessed, S.EventsProcessed},
        {trace::StreamMetaEventsFiltered, S.EventsFiltered},
        {trace::StreamMetaEventsDropped, S.EventsDropped},
        {trace::StreamMetaEventsSampledOut, S.EventsSampledOut},
        {trace::StreamMetaMaxQueueDepth, S.MaxQueueDepth},
        {trace::StreamMetaFlushCount, S.FlushCount},
        {trace::StreamMetaQueueSpins, S.QueueSpins},
        {trace::StreamMetaQueueParks, S.QueueParks},
        {trace::StreamMetaArenaPayloads, S.ArenaPayloads},
        {trace::StreamMetaArenaBytes, S.ArenaBytes},
        {trace::StreamMetaArenaHits, S.ArenaHits},
        {trace::StreamMetaArenaMemoHits, S.ArenaMemoHits},
    };
    std::string Payload;
    trace::encodeStreamMeta(Payload, Counters);
    Sink.appendMeta(Payload);
  }
  if (!Sink.finish(Err))
    Ok = false;
  if (!Ok)
    logWarning(Err.message() + "; aggregator will see this stream as "
                               "truncated");
}

void StreamForwardTool::report(ReportSink &Out) {
  const TraceWriterStats &S = Writer.stats();
  Out.beginReport(name());
  Out.metric("events", S.Events);
  Out.metric("strings", S.Strings);
  Out.metric("stacks", S.Stacks);
  Out.metric("kernels", S.Kernels);
  Out.metric("payload_refs", S.PayloadRefs);
  Out.metric("payload_hits", S.PayloadHits);
  Out.metric("bytes_written", S.BytesWritten);
  Out.endReport();
}
