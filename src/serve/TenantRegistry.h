//===- serve/TenantRegistry.h - Per-tenant merge sessions -------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tenancy model of `accelprof --serve` (docs/SERVE.md): every
/// client Hello names a tenant, and all streams of one tenant merge
/// into one in-process analysis Session — backend "none", synchronous
/// pipeline, the daemon's tool set — whose processor admits the decoded
/// events. This reuses the replay admission plumbing wholesale: the
/// same processor().process() path ReplayBackend pumps, so every
/// existing tool works unmodified on aggregated streams, and a tenant
/// fed by a single client produces a report byte-identical to the same
/// workload run single-process with the same tools.
///
/// Fault tolerance hangs off the tenant too: each Tenant owns the
/// resume state of its streams — a StreamState per client-chosen stream
/// id holding the decoder and the admission watermark — which is what
/// survives a disconnect and makes a reconnect exactly-once (frames
/// below the watermark are duplicates and are skipped). It also owns
/// the quota machinery: token buckets for events/sec and bytes/sec, a
/// live-connection cap, and the counters the quota report section
/// surfaces.
///
/// Concurrency: the tenant session's pipeline is synchronous, so
/// admission needs external serialization — each Tenant carries a
/// mutex, and connections hold it while feeding decoded events,
/// touching stream states, charging quota, or reading stats.
/// Different tenants are fully independent (separate sessions, separate
/// arenas) and proceed in parallel.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_SERVE_TENANTREGISTRY_H
#define PASTA_SERVE_TENANTREGISTRY_H

#include "pasta/Session.h"
#include "pasta/StreamEnvelope.h"
#include "pasta/TraceReader.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pasta {

class ReportSink;

namespace serve {

/// Daemon configuration (driver flags; see accelprof --help).
struct ServeOptions {
  /// Unix-domain socket path to listen on.
  std::string SocketPath;
  /// Tools every tenant session runs.
  std::vector<std::string> ToolNames = {"kernel_frequency"};
  /// Per-tenant report files land here as <tenant>.<ext> when set;
  /// empty = final reports to stdout with tenant banners.
  std::string ReportDir;
  /// "text", "json" or "csv".
  std::string Format = "text";
  /// Periodic rollup interval in seconds (0 = only at disconnect and
  /// shutdown).
  double ReportEverySeconds = 0.0;
  /// Arm the runtime contract validator in tenant sessions.
  bool Validate = ProcessorOptions().Validate;
  /// GPU preset for the simulated system behind each tenant session
  /// (tools that consult device specs see this machine).
  std::string Gpu = "A100";
  /// Live connections one tenant may hold (--quota-max-connections;
  /// 0 = unlimited). Excess Hellos are rejected with a counted
  /// StreamRejectConnectionQuota.
  std::uint64_t QuotaMaxConnections = 0;
  /// Event admission rate cap per tenant (--quota-events-per-sec;
  /// 0 = unlimited).
  double QuotaEventsPerSec = 0.0;
  /// Frame payload byte rate cap per tenant (--quota-bytes-per-sec;
  /// 0 = unlimited). Bytes always throttle — a byte cannot be shed
  /// without corrupting the stream.
  double QuotaBytesPerSec = 0.0;
  /// What an over-rate tenant's events get: "throttle" (back-pressure
  /// the connection; the client's bounded queue fills and stalls the
  /// profiled run) or "shed" (drop excess events at admission, counted
  /// as quota_shed).
  std::string QuotaPolicy = "throttle";
  /// Disconnect a stream connection idle this long (--idle-timeout;
  /// 0 = never). The partial stream is salvaged: admitted events stay
  /// merged and the stream suspends for resume.
  double IdleTimeoutSeconds = 0.0;
  /// Emit the merged client-pipeline rollup (event_pipeline section)
  /// in tenant reports (--pipeline-report). Off by default: the
  /// single-client byte-identity contract admits no extra sections.
  bool PipelineRollup = false;
};

/// Per-tenant counters, guarded by the tenant mutex.
struct TenantStats {
  /// Streams that bound to this tenant (reconnects count again).
  std::uint64_t Connections = 0;
  /// Streams whose End record arrived and verified.
  std::uint64_t CleanStreams = 0;
  /// Streams dropped for envelope/decode violations.
  std::uint64_t CorruptStreams = 0;
  /// Disconnects that left a resumable stream behind.
  std::uint64_t SuspendedStreams = 0;
  /// Successful re-binds of a previously connected stream id.
  std::uint64_t ResumedStreams = 0;
  /// Replayed frames below the watermark, skipped for exactly-once.
  std::uint64_t DuplicateFrames = 0;
  /// Meta (client pipeline counter) frames merged.
  std::uint64_t MetaFrames = 0;
  std::uint64_t EventsAdmitted = 0;
  /// Events dropped by the shed quota policy.
  std::uint64_t QuotaShedEvents = 0;
  /// Back-pressure waits imposed by the throttle quota policy.
  std::uint64_t ThrottledWaits = 0;
  /// Hellos rejected by the connection quota.
  std::uint64_t QuotaRejectedConnections = 0;
  /// Connections dropped (stream suspended) by the idle timeout.
  std::uint64_t TimedOutStreams = 0;
};

/// Resume state of one (tenant, stream id): everything that must
/// survive a disconnect for the reconnect to be exactly-once. Guarded
/// by the tenant mutex; mutated only by the connection that holds Busy.
struct StreamState {
  /// Byte-incremental decoder; its parse state spans connections.
  std::unique_ptr<TraceStreamDecoder> Decoder;
  /// Admission watermark: the sequence the client must send (or replay
  /// from) next. Frames below it are duplicates.
  std::uint64_t NextExpected = 0;
  /// A live connection owns this stream; a second Hello is rejected.
  bool Busy = false;
  /// End record arrived and verified; counted in CleanStreams.
  bool Complete = false;
  /// Decoding failed; the stream can never be resumed.
  bool Poisoned = false;
  /// A connection bound this id before (ResumedStreams bookkeeping).
  bool EverConnected = false;
};

/// Deficit-model token bucket (tenant-lock guarded). charge() always
/// succeeds and reports how long the caller must stall to get back
/// under rate; tryCharge() refuses instead — the shed path.
class TokenBucket {
public:
  void configure(double RatePerSec) {
    Rate = RatePerSec;
    Tokens = RatePerSec; // one second of burst
  }
  bool limited() const { return Rate > 0.0; }

  /// Deducts \p Amount; returns seconds of stall owed (0 = under rate).
  double charge(double Amount, std::chrono::steady_clock::time_point Now) {
    if (Rate <= 0.0)
      return 0.0;
    refill(Now);
    Tokens -= Amount;
    return Tokens >= 0.0 ? 0.0 : -Tokens / Rate;
  }

  /// Deducts \p Amount only when affordable.
  bool tryCharge(double Amount, std::chrono::steady_clock::time_point Now) {
    if (Rate <= 0.0)
      return true;
    refill(Now);
    if (Tokens < Amount)
      return false;
    Tokens -= Amount;
    return true;
  }

private:
  void refill(std::chrono::steady_clock::time_point Now) {
    if (Started) {
      double Dt = std::chrono::duration<double>(Now - Last).count();
      Tokens += Dt * Rate;
      if (Tokens > Rate) // burst cap: one second's worth
        Tokens = Rate;
    }
    Last = Now;
    Started = true;
  }

  double Rate = 0.0;
  double Tokens = 0.0;
  std::chrono::steady_clock::time_point Last{};
  bool Started = false;
};

/// Quota configuration one tenant enforces (copied from ServeOptions).
struct TenantQuota {
  std::uint64_t MaxConnections = 0;
  bool Shed = false;
};

/// One merge domain: name + analysis session + admission lock + resume
/// states + quota state.
class Tenant {
public:
  Tenant(std::string Name, std::unique_ptr<Session> S)
      : TenantName(std::move(Name)), S(std::move(S)) {}

  const std::string &name() const { return TenantName; }
  /// Hold mutex() while touching the session, stats, stream states or
  /// quota — the pipeline is synchronous and needs external
  /// serialization.
  Session &session() { return *S; }
  std::mutex &mutex() { return Mu; }
  TenantStats &stats() { return Stats; }

  /// Resume state for \p StreamId, created on first sight. Caller holds
  /// the tenant mutex.
  StreamState &streamState(std::uint64_t StreamId) {
    return Streams[StreamId];
  }

  /// Live stream connections (quota cap bookkeeping; mutex-guarded).
  std::uint64_t &activeConnections() { return ActiveConnections; }

  const TenantQuota &quota() const { return Quota; }
  void setQuota(const TenantQuota &Q) { Quota = Q; }
  TokenBucket &eventBucket() { return Events; }
  TokenBucket &byteBucket() { return Bytes; }

  /// Merges one client meta counter (mutex-guarded). High-water keys
  /// merge by max, the rest sum.
  void mergeMeta(std::uint32_t Key, std::uint64_t Value) {
    if (Key == 0 || Key > trace::StreamMetaMaxKey)
      return;
    if (Key == trace::StreamMetaMaxQueueDepth) {
      if (Value > MetaTotals[Key])
        MetaTotals[Key] = Value;
    } else {
      MetaTotals[Key] += Value;
    }
    MetaSeen = true;
  }
  bool metaSeen() const { return MetaSeen; }
  std::uint64_t metaTotal(std::uint32_t Key) const {
    return Key <= trace::StreamMetaMaxKey ? MetaTotals[Key] : 0;
  }

private:
  std::string TenantName;
  std::unique_ptr<Session> S;
  std::mutex Mu;
  TenantStats Stats;
  std::map<std::uint64_t, StreamState> Streams;
  std::uint64_t ActiveConnections = 0;
  TenantQuota Quota;
  TokenBucket Events;
  TokenBucket Bytes;
  std::uint64_t MetaTotals[trace::StreamMetaMaxKey + 1] = {};
  bool MetaSeen = false;
};

/// Name → Tenant map; builds tenant sessions on first sight.
class TenantRegistry {
public:
  explicit TenantRegistry(const ServeOptions &Opts) : Opts(Opts) {}

  /// Existing tenant, or a freshly built session for a new name. Null
  /// with \p Err when the session cannot be built (unknown tool name).
  Tenant *getOrCreate(const std::string &Name, SessionError &Err);

  /// Stable pointers, first-Hello order.
  std::vector<Tenant *> tenants();

  /// Existing tenant by name; null when absent (never creates — the
  /// control verbs reconfigure tenants, they must not mint them).
  Tenant *find(const std::string &Name);

  /// Emits \p T's tool reports through \p Sink (takes the tenant lock).
  /// \p Final additionally finishes the session first (tool onFinish) —
  /// shutdown only; finish() is idempotent but seals the pipeline.
  /// Deliberately *only* tool reports by default — a single-client
  /// tenant's file must be byte-identical to the client's own report
  /// document. The event_pipeline rollup appears only under
  /// --pipeline-report, and the quota section only when a quota
  /// actually bit (both opt-in by construction, preserving the
  /// identity gate for unthrottled tenants).
  void writeTenantReport(Tenant &T, ReportSink &Sink, bool Final);

private:
  ServeOptions Opts;
  std::mutex Mu;
  std::vector<std::unique_ptr<Tenant>> Tenants;
};

} // namespace serve
} // namespace pasta

#endif // PASTA_SERVE_TENANTREGISTRY_H
