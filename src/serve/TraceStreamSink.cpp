//===- serve/TraceStreamSink.cpp ------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/TraceStreamSink.h"

#include "pasta/StreamEnvelope.h"
#include "support/Env.h"
#include "support/FaultInjector.h"
#include "support/Logging.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <limits>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pasta;
using namespace pasta::serve;

namespace {

/// Reconnect backoff base and ceiling.
constexpr std::chrono::milliseconds BackoffBase(50);
constexpr std::chrono::milliseconds BackoffCap(5000);

/// A nonzero id unique enough to key resume state: pid + a process
/// counter + the monotonic clock, whitened through SplitMix64. Report
/// determinism never depends on it.
std::uint64_t makeStreamId() {
  static std::atomic<std::uint64_t> Counter{0};
  std::uint64_t Nonce = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  SplitMix64 G(Nonce ^ (static_cast<std::uint64_t>(::getpid()) << 32) ^
               Counter.fetch_add(1, std::memory_order_relaxed));
  std::uint64_t Id = G.next();
  return Id ? Id : 1;
}

/// getEnvInt limited to the matching driver flag's range [\p Lo, \p Hi]:
/// an out-of-range value keeps \p Default and logs a warning naming
/// \p Name.
std::int64_t getEnvIntInRange(const char *Name, std::int64_t Default,
                              std::int64_t Lo, std::int64_t Hi) {
  std::int64_t Value = getEnvInt(Name, Default);
  if (Value >= Lo && Value <= Hi)
    return Value;
  logWarning(std::string(Name) + "=" + std::to_string(Value) +
             " is outside [" + std::to_string(Lo) + ", " +
             std::to_string(Hi) + "]; using the default " +
             std::to_string(Default));
  return Default;
}

std::string rejectReason(std::uint64_t Code) {
  switch (Code) {
  case trace::StreamRejectResumeUnavailable:
    return "resume unavailable (daemon lost state the client no longer "
           "retains)";
  case trace::StreamRejectStreamBusy:
    return "stream id busy (another live connection owns it)";
  case trace::StreamRejectConnectionQuota:
    return "tenant connection quota exhausted";
  case trace::StreamRejectPoisoned:
    return "stream previously failed decoding";
  }
  return "reject code " + std::to_string(Code);
}

} // namespace

StreamClientOptions StreamClientOptions::fromEnv() {
  StreamClientOptions O;
  O.ConnectTimeoutSeconds =
      getEnvDouble("PASTA_CONNECT_TIMEOUT", O.ConnectTimeoutSeconds);
  O.ConnectRetries = static_cast<int>(getEnvIntInRange(
      "PASTA_CONNECT_RETRIES", O.ConnectRetries, 0, 1000));
  O.Reconnect = getEnvBool("PASTA_RECONNECT", O.Reconnect);
  O.ReconnectMax = static_cast<int>(
      getEnvIntInRange("PASTA_RECONNECT_MAX", O.ReconnectMax, 1, 1000));
  O.SpillMaxBytes = static_cast<std::uint64_t>(getEnvIntInRange(
      "PASTA_SPILL_MAX_BYTES", static_cast<std::int64_t>(O.SpillMaxBytes), 1,
      std::numeric_limits<std::int64_t>::max()));
  return O;
}

TraceStreamSink::~TraceStreamSink() { closeFd(); }

void TraceStreamSink::closeFd() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void TraceStreamSink::setFlushThreshold(std::size_t Bytes) {
  if (Bytes == 0)
    Bytes = 1;
  if (Bytes > trace::StreamMaxFramePayload)
    Bytes = trace::StreamMaxFramePayload;
  FlushThreshold = Bytes;
}

TraceStreamSink::Clock::duration TraceStreamSink::backoffDelay(int Attempt) {
  std::chrono::milliseconds Delay = BackoffBase;
  for (int I = 0; I < Attempt && Delay < BackoffCap; ++I)
    Delay *= 2;
  if (Delay > BackoffCap)
    Delay = BackoffCap;
  // Jitter in [0.75, 1.25): reconnect storms after a daemon restart
  // spread out instead of thundering in lockstep.
  double Scale = 0.75 + 0.5 * Jitter.nextDouble();
  return std::chrono::milliseconds(
      static_cast<std::int64_t>(static_cast<double>(Delay.count()) * Scale));
}

bool TraceStreamSink::connect(const std::string &SocketPath,
                              const std::string &TenantName,
                              SessionError &Err) {
  if (Fd >= 0 || Disconnected) {
    Err.assign("stream sink already connected to '" + Path + "'");
    return false;
  }
  if (!trace::isValidTenantName(TenantName)) {
    Err.assign("invalid tenant name '" + TenantName +
               "': 1-64 characters of [A-Za-z0-9._-], not starting "
               "with a dot");
    return false;
  }
  sockaddr_un Addr;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err.assign("socket path '" + SocketPath + "' longer than " +
               std::to_string(sizeof(Addr.sun_path) - 1) + " bytes");
    return false;
  }

  Path = SocketPath;
  Tenant = TenantName;
  StreamId = makeStreamId();
  Jitter = SplitMix64(StreamId ^
                      static_cast<std::uint64_t>(::getpid()));
  Spill.configure(Opts.SpillMaxBytes);
  SendFailed = false;
  ResumeBroken = false;
  NextSequence = 0;
  Buffer.clear();
  RecvBuf.clear();
  return establish(Err);
}

bool TraceStreamSink::establish(SessionError &Err) {
  int Attempts = Opts.ConnectRetries < 0 ? 1 : Opts.ConnectRetries + 1;
  for (int I = 0; I < Attempts; ++I) {
    SessionError Attempt;
    if (connectOnce(Attempt))
      return true;
    Err = Attempt;
    if (I + 1 < Attempts)
      std::this_thread::sleep_for(backoffDelay(I));
  }
  return false;
}

bool TraceStreamSink::connectOnce(SessionError &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Err.assign("cannot create client socket: " +
               std::string(std::strerror(errno)));
    return false;
  }
  // Non-blocking from the start: connect honors the deadline, and a
  // full socket buffer later is an observable, counted wait
  // (SendBlocked) instead of an opaque stall.
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0 || ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) != 0) {
    Err.assign("cannot make client socket non-blocking: " +
               std::string(std::strerror(errno)));
    closeFd();
    return false;
  }

  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             Opts.ConnectTimeoutSeconds > 0
                                 ? Opts.ConnectTimeoutSeconds
                                 : 5.0));

  if (faultConnect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                   sizeof(Addr)) != 0) {
    if (errno == EINPROGRESS) {
      // Wait for the connect to resolve within the deadline.
      for (;;) {
        int Remaining = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Deadline - Clock::now())
                .count());
        if (Remaining <= 0) {
          Err.assign("connect to aggregator socket '" + Path +
                     "' timed out");
          closeFd();
          return false;
        }
        pollfd Pfd;
        Pfd.fd = Fd;
        Pfd.events = POLLOUT;
        Pfd.revents = 0;
        int R = ::poll(&Pfd, 1, Remaining);
        if (R < 0 && errno == EINTR)
          continue;
        if (R <= 0) {
          Err.assign("connect to aggregator socket '" + Path +
                     "' timed out");
          closeFd();
          return false;
        }
        break;
      }
      int SockErr = 0;
      socklen_t Len = sizeof(SockErr);
      if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SockErr, &Len) != 0 ||
          SockErr != 0) {
        Err.assign("cannot connect to aggregator socket '" + Path +
                   "': " + std::strerror(SockErr ? SockErr : errno));
        closeFd();
        return false;
      }
    } else {
      Err.assign("cannot connect to aggregator socket '" + Path +
                 "': " + std::strerror(errno));
      closeFd();
      return false;
    }
  }

  RecvBuf.clear();
  if (!handshakeAndReplay(Err)) {
    closeFd();
    return false;
  }
  return true;
}

bool TraceStreamSink::handshakeAndReplay(SessionError &Err) {
  trace::StreamHello Hello;
  Hello.Tenant = Tenant;
  Hello.ProcessId = static_cast<std::uint64_t>(::getpid());
  Hello.StreamId = StreamId;
  Hello.FirstRetainedSeq = Spill.firstRetained(NextSequence);
  std::string Bytes;
  trace::encodeStreamHello(Bytes, Hello);
  if (!sendAll(Bytes.data(), Bytes.size())) {
    Err.assign("cannot send stream hello to '" + Path +
               "': " + std::strerror(errno));
    return false;
  }

  // The server answers every Hello with Resume (its watermark) or
  // Reject, within the connect deadline.
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             Opts.ConnectTimeoutSeconds > 0
                                 ? Opts.ConnectTimeoutSeconds
                                 : 5.0));
  while (RecvBuf.size() < trace::StreamServerMsgSize) {
    int Remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Deadline -
                                                              Clock::now())
            .count());
    if (Remaining <= 0) {
      Err.assign("resume handshake with '" + Path + "' timed out");
      return false;
    }
    pollfd Pfd;
    Pfd.fd = Fd;
    Pfd.events = POLLIN;
    Pfd.revents = 0;
    int R = ::poll(&Pfd, 1, Remaining);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0) {
      Err.assign("resume handshake with '" + Path + "' timed out");
      return false;
    }
    char Buf[256];
    ssize_t N = faultRead(Fd, Buf, sizeof(Buf));
    if (N == 0) {
      Err.assign("aggregator '" + Path +
                 "' closed the connection during the resume handshake "
                 "(protocol mismatch?)");
      return false;
    }
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      Err.assign("resume handshake with '" + Path +
                 "' failed: " + std::strerror(errno));
      return false;
    }
    RecvBuf.append(Buf, static_cast<std::size_t>(N));
  }

  trace::ByteReader Cursor(
      reinterpret_cast<const unsigned char *>(RecvBuf.data()),
      trace::StreamServerMsgSize);
  std::uint32_t Type = 0;
  std::uint64_t Value = 0;
  Cursor.readU32(Type);
  Cursor.readU64(Value);
  RecvBuf.erase(0, trace::StreamServerMsgSize);

  if (Type == trace::StreamMsgReject) {
    Err.assign("aggregator '" + Path + "' rejected the stream: " +
               rejectReason(Value));
    ResumeBroken = true; // authoritative: retrying will not help
    return false;
  }
  if (Type != trace::StreamMsgResume) {
    Err.assign("aggregator '" + Path +
               "' sent unknown message type " + std::to_string(Type) +
               " during the resume handshake");
    return false;
  }
  if (Value > NextSequence) {
    Err.assign("aggregator '" + Path + "' requested resume from " +
               std::to_string(Value) + " but only " +
               std::to_string(NextSequence) + " frames were sent");
    return false;
  }
  if (Value < Spill.firstRetained(NextSequence)) {
    Err.assign("aggregator '" + Path + "' requested resume from " +
               std::to_string(Value) +
               " which the spill buffer no longer retains");
    return false;
  }
  Spill.ack(Value);

  // Replay everything the daemon has not admitted, oldest first.
  std::string Header;
  bool Sent = Spill.forEachFrom(
      Value, [&](std::uint64_t Seq, std::uint32_t LenWord,
                 const std::string &Payload) {
        Header.clear();
        trace::encodeStreamFrameHeader(Header, Seq, LenWord);
        if (!sendAll(Header.data(), Header.size()) ||
            !sendAll(Payload.data(), Payload.size()))
          return false;
        ++Stats.FramesReplayed;
        return true;
      });
  if (!Sent) {
    Err.assign("replay to '" + Path +
               "' failed: " + std::strerror(errno));
    return false;
  }
  return true;
}

bool TraceStreamSink::processServerBytes() {
  while (RecvBuf.size() >= trace::StreamServerMsgSize) {
    trace::ByteReader Cursor(
        reinterpret_cast<const unsigned char *>(RecvBuf.data()),
        trace::StreamServerMsgSize);
    std::uint32_t Type = 0;
    std::uint64_t Value = 0;
    Cursor.readU32(Type);
    Cursor.readU64(Value);
    RecvBuf.erase(0, trace::StreamServerMsgSize);
    if (Type == trace::StreamMsgAck) {
      Spill.ack(Value);
      ++Stats.AcksReceived;
      continue;
    }
    // Anything else mid-stream is a protocol violation; drop the
    // connection and let the reconnect machinery decide.
    logWarning("stream sink: unexpected server message type " +
               std::to_string(Type) + " from '" + Path + "'");
    return false;
  }
  return true;
}

bool TraceStreamSink::drainAcks() {
  char Buf[256];
  for (;;) {
    ssize_t N = faultRead(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      RecvBuf.append(Buf, static_cast<std::size_t>(N));
      if (!processServerBytes())
        return false;
      continue;
    }
    if (N == 0)
      return false; // EOF: the daemon is gone.
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return true;
    if (errno == EINTR)
      continue;
    return false;
  }
}

bool TraceStreamSink::sendAll(const char *Data, std::size_t Size) {
  while (Size > 0) {
    ssize_t Sent = faultSend(Fd, Data, Size, MSG_NOSIGNAL);
    if (Sent > 0) {
      Data += Sent;
      Size -= static_cast<std::size_t>(Sent);
      continue;
    }
    if (Sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Backpressure: wait for the daemon to drain. This blocks the
      // forwarder's hook, and with it the producer, until the daemon
      // catches up — the documented degradation path. Acks are drained opportunistically
      // so the receive buffer never wedges a throttled connection.
      ++Stats.SendBlocked;
      pollfd Pfd;
      Pfd.fd = Fd;
      Pfd.events = static_cast<short>(POLLOUT |
                                      (Opts.Reconnect ? POLLIN : 0));
      Pfd.revents = 0;
      if (::poll(&Pfd, 1, -1) < 0 && errno != EINTR)
        return false;
      if ((Pfd.revents & POLLIN) != 0 && !drainAcks())
        return false;
      continue;
    }
    if (Sent < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

bool TraceStreamSink::sendFrame(std::uint64_t Sequence,
                                std::uint32_t LenWord,
                                const std::string &Payload) {
  std::string Header;
  trace::encodeStreamFrameHeader(Header, Sequence, LenWord);
  return sendAll(Header.data(), Header.size()) &&
         sendAll(Payload.data(), Payload.size());
}

void TraceStreamSink::handleDisconnect() {
  closeFd();
  RecvBuf.clear();
  if (!Opts.Reconnect || ResumeBroken) {
    SendFailed = true;
    Disconnected = false;
    return;
  }
  if (!Disconnected) {
    Disconnected = true;
    BackoffAttempt = 0;
    NextAttempt = Clock::now() + backoffDelay(0);
    logWarning("stream sink: connection to '" + Path +
               "' lost; retrying with backoff (max " +
               std::to_string(Opts.ReconnectMax) + " attempts)");
  }
}

void TraceStreamSink::maybeReconnect() {
  if (!Disconnected || SendFailed)
    return;
  if (Clock::now() < NextAttempt)
    return;
  SessionError Err;
  if (connectOnce(Err)) {
    Disconnected = false;
    ++Stats.Reconnects;
    logWarning("stream sink: reconnected to '" + Path + "' (replayed " +
               std::to_string(Stats.FramesReplayed) + " frames so far)");
    return;
  }
  ++BackoffAttempt;
  if (ResumeBroken || BackoffAttempt > Opts.ReconnectMax) {
    SendFailed = true;
    Disconnected = false;
    logWarning("stream sink: giving up on '" + Path + "' after " +
               std::to_string(BackoffAttempt) + " reconnect attempts: " +
               Err.message());
    return;
  }
  NextAttempt = Clock::now() + backoffDelay(BackoffAttempt);
}

void TraceStreamSink::retainForResume(std::uint64_t Sequence,
                                      std::uint32_t LenWord,
                                      const std::string &Payload) {
  if (Spill.append(Sequence, LenWord, Payload) || ResumeBroken)
    return;
  ResumeBroken = true;
  logWarning("stream sink: spill buffer overflow: a " +
             std::to_string(Payload.size()) +
             "-byte frame does not fit the " +
             std::to_string(Spill.maxBytes()) + "-byte budget (" +
             std::to_string(Spill.bytesRetained()) +
             " bytes unacked); a future reconnect cannot replay this stream");
}

bool TraceStreamSink::flushFrame() {
  if (Buffer.empty())
    return true;
  std::uint64_t Sequence = NextSequence++;
  std::uint32_t LenWord = static_cast<std::uint32_t>(Buffer.size());
  bool SentByReplay = false;

  if (Opts.Reconnect) {
    retainForResume(Sequence, LenWord, Buffer);
    if (Disconnected) {
      maybeReconnect();
      // A successful reconnect replayed every retained frame,
      // including this one.
      SentByReplay = Fd >= 0;
    }
    if (Fd >= 0 && !drainAcks())
      handleDisconnect();
  }

  if (Fd >= 0 && !SentByReplay && !sendFrame(Sequence, LenWord, Buffer)) {
    if (Opts.Reconnect)
      handleDisconnect();
    else
      SendFailed = true;
  }
  ++Stats.FramesSent;
  Stats.PayloadBytesSent += Buffer.size();
  Buffer.clear();
  return !SendFailed;
}

bool TraceStreamSink::write(const char *Data, std::size_t Size) {
  if ((Fd < 0 && !Disconnected) || SendFailed)
    return false;
  while (Size > 0) {
    std::size_t Room = FlushThreshold > Buffer.size()
                           ? FlushThreshold - Buffer.size()
                           : 0;
    std::size_t Take = Size < Room ? Size : Room;
    Buffer.append(Data, Take);
    Data += Take;
    Size -= Take;
    if (Buffer.size() >= FlushThreshold && !flushFrame())
      return false;
  }
  return true;
}

bool TraceStreamSink::appendMeta(const std::string &Payload) {
  if ((Fd < 0 && !Disconnected) || SendFailed)
    return false;
  if (Payload.empty() || Payload.size() > trace::StreamMaxFramePayload)
    return false;
  if (!flushFrame())
    return false;
  std::uint64_t Sequence = NextSequence++;
  std::uint32_t LenWord = static_cast<std::uint32_t>(Payload.size()) |
                          trace::StreamFrameMetaBit;
  bool SentByReplay = false;
  if (Opts.Reconnect) {
    retainForResume(Sequence, LenWord, Payload);
    if (Disconnected) {
      maybeReconnect();
      SentByReplay = Fd >= 0;
    }
  }
  if (Fd >= 0 && !SentByReplay && !sendFrame(Sequence, LenWord, Payload)) {
    if (Opts.Reconnect)
      handleDisconnect();
    else
      SendFailed = true;
  }
  ++Stats.FramesSent;
  Stats.PayloadBytesSent += Payload.size();
  return !SendFailed;
}

bool TraceStreamSink::finish(SessionError &Err) {
  if (Fd < 0 && !Disconnected)
    return !SendFailed;
  bool Ok = flushFrame();

  if (Opts.Reconnect && !SendFailed) {
    // Exactly-once completion: wait (reconnecting as needed) until the
    // daemon's watermark covers every frame, so a crash that swallowed
    // the tail is repaired before the stream closes for good.
    Clock::time_point LastProgress = Clock::now();
    std::uint64_t LastWatermark = Spill.ackWatermark();
    double TimeoutSeconds =
        Opts.ConnectTimeoutSeconds > 0 ? Opts.ConnectTimeoutSeconds : 5.0;
    while (!SendFailed) {
      if (Disconnected) {
        Clock::time_point Now = Clock::now();
        if (Now < NextAttempt)
          std::this_thread::sleep_until(NextAttempt);
        maybeReconnect();
        if (Fd >= 0)
          LastProgress = Clock::now();
        continue;
      }
      if (Spill.ackWatermark() >= NextSequence)
        break;
      pollfd Pfd;
      Pfd.fd = Fd;
      Pfd.events = POLLIN;
      Pfd.revents = 0;
      int R = ::poll(&Pfd, 1, 100);
      if (R < 0 && errno != EINTR) {
        handleDisconnect();
        continue;
      }
      if (R > 0 && !drainAcks()) {
        handleDisconnect();
        continue;
      }
      if (Spill.ackWatermark() > LastWatermark) {
        LastWatermark = Spill.ackWatermark();
        LastProgress = Clock::now();
      }
      if (std::chrono::duration<double>(Clock::now() - LastProgress)
              .count() > TimeoutSeconds) {
        SendFailed = true;
        logWarning("stream sink: timed out waiting for the final ack "
                   "from '" + Path + "'");
      }
    }
  }

  if (!Opts.Reconnect && Fd >= 0 && Ok && !SendFailed) {
    // Half-close, then drain the daemon's Resume/Ack messages until it
    // closes: exiting with unread bytes in the receive queue would turn
    // our EOF into a reset on the daemon side, misclassifying a clean
    // stream as a hard disconnect.
    ::shutdown(Fd, SHUT_WR);
    double TimeoutSeconds =
        Opts.ConnectTimeoutSeconds > 0 ? Opts.ConnectTimeoutSeconds : 5.0;
    Clock::time_point Deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(TimeoutSeconds));
    while (Clock::now() < Deadline) {
      pollfd Pfd;
      Pfd.fd = Fd;
      Pfd.events = POLLIN;
      Pfd.revents = 0;
      int R = ::poll(&Pfd, 1, 100);
      if (R < 0 && errno != EINTR)
        break;
      if (R > 0 && !drainAcks())
        break; // EOF: the daemon processed our end-of-stream.
    }
  }

  closeFd();
  Disconnected = false;
  if (!Ok || SendFailed) {
    SendFailed = true;
    Err.assign("stream connection to '" + Path +
               "' failed (aggregator gone or socket error)");
    return false;
  }
  Spill.clear();
  return true;
}
