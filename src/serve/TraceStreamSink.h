//===- serve/TraceStreamSink.h - Client socket transport --------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The producer half of fleet aggregation (docs/SERVE.md): a TraceOutput
/// that ships the trace byte stream a TraceWriter produces over a
/// Unix-domain socket to an `accelprof --serve` aggregator, wrapped in
/// the StreamEnvelope session framing (Hello with tenant + pid + resume
/// token, then sequence-numbered length-prefixed frames).
///
/// Bytes are coalesced into a frame buffer and flushed when it passes
/// the flush threshold (and at finish()), so a forwarding producer pays
/// one sendmsg per ~32 KiB of trace, not one per record. The socket is
/// non-blocking: when the daemon falls behind and the socket buffer
/// fills, the sink *blocks the forwarding tool's hook* in poll(), and
/// with it the admission that dispatched to it. A slow aggregator
/// therefore stalls the profiled run exactly like any other slow tool;
/// nothing is dropped and admission never deadlocks. Blocked
/// waits are counted (SendBlocked).
///
/// Fault tolerance is opt-in via StreamClientOptions::Reconnect: sent
/// frames are retained in a bounded in-memory SpillBuffer until the
/// daemon acks their sequence, and a peer failure switches the sink to
/// a jittered exponential-backoff reconnect loop instead of failing
/// permanently. A successful reconnect replays exactly the frames the
/// daemon has not admitted (its Resume answer names the watermark), so
/// admission stays exactly-once across any disconnect/reconnect pattern
/// — including a daemon restart that lost all state, because acked
/// frames stay retained until the spill budget forces eviction. With
/// Reconnect off the sink behaves as before: a peer failure permanently
/// fails it, the stream_forward tool logs once, and the profiled
/// process keeps running unstreamed.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_SERVE_TRACESTREAMSINK_H
#define PASTA_SERVE_TRACESTREAMSINK_H

#include "pasta/SessionError.h"
#include "pasta/TraceWriter.h"
#include "serve/SpillBuffer.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdint>
#include <string>

namespace pasta {
namespace serve {

/// Client-side transport knobs (driver flags / PASTA_* env; see
/// docs/TUNING.md). fromEnv() is the resolution root: flags override
/// env, env overrides these defaults.
struct StreamClientOptions {
  /// Per-attempt connect deadline (--connect-timeout,
  /// PASTA_CONNECT_TIMEOUT). Also bounds the resume handshake and the
  /// finish()-time wait for the final ack.
  double ConnectTimeoutSeconds = 5.0;
  /// Extra connect attempts after the first (--connect-retries,
  /// PASTA_CONNECT_RETRIES). 0 keeps the fail-fast build-time contract.
  int ConnectRetries = 0;
  /// Arm the spill/ack/reconnect machinery (--reconnect,
  /// PASTA_RECONNECT).
  bool Reconnect = false;
  /// Reconnect attempts per outage before the sink fails permanently
  /// (--reconnect-max, PASTA_RECONNECT_MAX).
  int ReconnectMax = 8;
  /// Byte budget of the in-memory spill buffer (--spill-max-bytes,
  /// PASTA_SPILL_MAX_BYTES).
  std::uint64_t SpillMaxBytes = 64ull << 20;

  /// Defaults overridden by the PASTA_* variables above. A value
  /// outside its flag's range keeps the default and logs a warning
  /// naming the variable.
  static StreamClientOptions fromEnv();
};

/// Transport counters (surfaced by the stream_forward tool's report —
/// all deterministic except SendBlocked, which is reported separately).
struct TraceStreamSinkStats {
  std::uint64_t FramesSent = 0;
  std::uint64_t PayloadBytesSent = 0;
  /// poll() waits taken because the socket buffer was full.
  std::uint64_t SendBlocked = 0;
  /// Successful reconnects after a mid-stream disconnect.
  std::uint64_t Reconnects = 0;
  /// Frames retransmitted from the spill buffer on resume.
  std::uint64_t FramesReplayed = 0;
  /// Watermark messages received from the daemon.
  std::uint64_t AcksReceived = 0;
};

/// One client connection to an aggregator socket. Not thread-safe: the
/// intended writer is the stream_forward tool's Serial hooks.
class TraceStreamSink : public TraceOutput {
public:
  TraceStreamSink() = default;
  ~TraceStreamSink() override;
  TraceStreamSink(const TraceStreamSink &) = delete;
  TraceStreamSink &operator=(const TraceStreamSink &) = delete;

  /// Installs transport options; call before connect().
  void setOptions(const StreamClientOptions &O) { Opts = O; }
  const StreamClientOptions &options() const { return Opts; }

  /// Connects to \p SocketPath (honoring ConnectTimeoutSeconds and
  /// ConnectRetries), sends the Hello and completes the resume
  /// handshake. \p Tenant must pass trace::isValidTenantName. False
  /// with \p Err on any failure (the sink is then unusable).
  bool connect(const std::string &SocketPath, const std::string &Tenant,
               SessionError &Err);

  /// True while the sink is usable — connected, or between reconnect
  /// attempts with frames retained.
  bool isConnected() const { return Fd >= 0 || Disconnected; }
  /// True once the transport failed for good (send error without
  /// reconnect, reconnects exhausted, or a resume the spill buffer could
  /// no longer serve). A failed sink may already have closed its socket,
  /// so isConnected() alone does not tell a truncated stream from one
  /// that never opened.
  bool failed() const { return SendFailed; }

  /// TraceOutput: buffers \p Size bytes, flushing full frames.
  bool write(const char *Data, std::size_t Size) override;
  std::string describe() const override { return "socket:" + Path; }

  /// Ships \p Payload as one meta frame (client pipeline counters; see
  /// StreamEnvelope.h). Buffered trace bytes flush first so frame
  /// order matches sequence order.
  bool appendMeta(const std::string &Payload);

  /// Flushes any buffered bytes as a final frame, waits for the
  /// daemon's final ack when reconnect is armed, and closes the
  /// connection (the server treats the resulting EOF as end-of-stream
  /// and checks the trace's End record arrived). Idempotent. False when
  /// the transport failed permanently, with \p Err naming the socket.
  bool finish(SessionError &Err);

  const TraceStreamSinkStats &stats() const { return Stats; }
  std::uint64_t streamId() const { return StreamId; }

  /// Frame coalescing threshold (bytes); clamped to the envelope's
  /// frame-payload ceiling. Test hook — the default is right for
  /// production.
  void setFlushThreshold(std::size_t Bytes);

private:
  using Clock = std::chrono::steady_clock;

  bool establish(SessionError &Err);
  bool connectOnce(SessionError &Err);
  bool handshakeAndReplay(SessionError &Err);
  bool flushFrame();
  /// Keeps a sent frame in the spill buffer for a later resume; the
  /// first frame it cannot keep latches ResumeBroken with a warning
  /// naming the frame size and the budget.
  void retainForResume(std::uint64_t Sequence, std::uint32_t LenWord,
                       const std::string &Payload);
  bool sendFrame(std::uint64_t Sequence, std::uint32_t LenWord,
                 const std::string &Payload);
  bool sendAll(const char *Data, std::size_t Size);
  /// Non-blocking ack drain; false when the connection died under us.
  bool drainAcks();
  bool processServerBytes();
  void handleDisconnect();
  void maybeReconnect();
  Clock::duration backoffDelay(int Attempt);
  void closeFd();

  StreamClientOptions Opts;
  int Fd = -1;
  std::string Path;
  std::string Tenant;
  std::string Buffer;
  /// Partial server-message bytes (acks arrive in 12-byte units but
  /// the socket owes us no alignment).
  std::string RecvBuf;
  std::size_t FlushThreshold = 32 * 1024;
  std::uint64_t NextSequence = 0;
  std::uint64_t StreamId = 0;
  bool SendFailed = false;
  /// Mid-outage: fd closed, frames retained, reconnect pending.
  bool Disconnected = false;
  /// The spill buffer declined a frame; resume would have holes.
  bool ResumeBroken = false;
  int BackoffAttempt = 0;
  Clock::time_point NextAttempt{};
  SplitMix64 Jitter{0x9e3779b97f4a7c15ull};
  SpillBuffer Spill;
  TraceStreamSinkStats Stats;
};

} // namespace serve
} // namespace pasta

#endif // PASTA_SERVE_TRACESTREAMSINK_H
