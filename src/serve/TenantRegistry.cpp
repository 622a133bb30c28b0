//===- serve/TenantRegistry.cpp -------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/TenantRegistry.h"

#include "support/ReportSink.h"

using namespace pasta;
using namespace pasta::serve;

Tenant *TenantRegistry::getOrCreate(const std::string &Name,
                                    SessionError &Err) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (std::unique_ptr<Tenant> &T : Tenants)
    if (T->name() == Name)
      return T.get();

  // A tenant session is a normal Session minus the workload: backend
  // "none" (no instrumentation of its own — every event arrives through
  // the decoder), synchronous pipeline (admission is serialized by the
  // tenant mutex; byte-identity with single-process sync reports is the
  // acceptance gate), the daemon's tool set. --lanes opts into the
  // async pipeline on a fixed number of lanes.
  SessionBuilder Builder;
  Builder.backend("none").gpu(Opts.Gpu).validate(Opts.Validate);
  if (Opts.Lanes > 0)
    Builder.asyncEvents(true).dispatchThreads(Opts.Lanes);
  for (const std::string &ToolName : Opts.ToolNames)
    Builder.tool(ToolName);
  std::unique_ptr<Session> S = Builder.build(Err);
  if (!S)
    return nullptr;
  Tenants.push_back(std::make_unique<Tenant>(Name, std::move(S)));
  Tenant *T = Tenants.back().get();
  TenantQuota Q;
  Q.MaxConnections = Opts.QuotaMaxConnections;
  Q.Shed = Opts.QuotaPolicy == "shed";
  T->setQuota(Q);
  T->eventBucket().configure(Opts.QuotaEventsPerSec);
  T->byteBucket().configure(Opts.QuotaBytesPerSec);
  return T;
}

Tenant *TenantRegistry::find(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (std::unique_ptr<Tenant> &T : Tenants)
    if (T->name() == Name)
      return T.get();
  return nullptr;
}

std::vector<Tenant *> TenantRegistry::tenants() {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<Tenant *> Out;
  Out.reserve(Tenants.size());
  for (std::unique_ptr<Tenant> &T : Tenants)
    Out.push_back(T.get());
  return Out;
}

void TenantRegistry::writeTenantReport(Tenant &T, ReportSink &Sink,
                                       bool Final) {
  std::lock_guard<std::mutex> Lock(T.mutex());
  if (Final)
    T.session().finish();
  // Keep the sink open: the rollup sections below must land inside the
  // same report document (a closed JSON sink would otherwise emit them
  // past the array terminator — malformed output).
  T.session().writeReports(Sink, /*Close=*/false);

  if (Opts.PipelineRollup && T.metaSeen()) {
    // The fleet-wide client pipeline rollup: every connected client's
    // ProcessorStats (shipped as meta frames, merged exactly-once like
    // data frames). Sums except the high-water keys.
    Sink.beginReport("event_pipeline");
    Sink.metric("events_processed",
                T.metaTotal(trace::StreamMetaEventsProcessed));
    Sink.metric("events_filtered",
                T.metaTotal(trace::StreamMetaEventsFiltered));
    Sink.metric("events_dropped",
                T.metaTotal(trace::StreamMetaEventsDropped));
    Sink.metric("events_sampled_out",
                T.metaTotal(trace::StreamMetaEventsSampledOut));
    Sink.metric("max_queue_depth",
                T.metaTotal(trace::StreamMetaMaxQueueDepth));
    Sink.metric("flush_count", T.metaTotal(trace::StreamMetaFlushCount));
    Sink.metric("queue_spins", T.metaTotal(trace::StreamMetaQueueSpins));
    Sink.metric("queue_parks", T.metaTotal(trace::StreamMetaQueueParks));
    Sink.metric("arena_payloads",
                T.metaTotal(trace::StreamMetaArenaPayloads));
    Sink.metric("arena_bytes", T.metaTotal(trace::StreamMetaArenaBytes));
    Sink.metric("arena_hits", T.metaTotal(trace::StreamMetaArenaHits));
    Sink.metric("arena_memo_hits",
                T.metaTotal(trace::StreamMetaArenaMemoHits));
    Sink.endReport();
  }

  const TenantStats &St = T.stats();
  if (St.QuotaShedEvents != 0 || St.ThrottledWaits != 0 ||
      St.QuotaRejectedConnections != 0 || St.TimedOutStreams != 0) {
    // Quota diagnostics appear only when a quota actually bit, so an
    // unthrottled tenant's report stays byte-identical to the
    // single-process run.
    Sink.beginReport("quota");
    Sink.metric("quota_shed", St.QuotaShedEvents);
    Sink.metric("throttled_waits", St.ThrottledWaits);
    Sink.metric("rejected_connections", St.QuotaRejectedConnections);
    Sink.metric("timed_out_streams", St.TimedOutStreams);
    Sink.endReport();
  }
  Sink.close();
}
