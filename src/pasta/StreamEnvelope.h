//===- pasta/StreamEnvelope.h - Socket session framing ----------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport envelope a TraceStreamSink connection speaks to an
/// `accelprof --serve` aggregator (docs/SERVE.md). The envelope is a
/// thin session layer *around* the trace byte stream, not a second
/// serialization format: a Hello identifying the client (tenant name +
/// process id + resume token), then length-prefixed frames whose
/// concatenated payloads form exactly one PASTA trace stream — version
/// trace::Version, header flags trace::kFlagStreamed, terminated by the
/// End record. Frame boundaries are a transport artifact and need not
/// align with record boundaries; the server's TraceStreamDecoder is
/// byte-incremental.
///
/// Frames carry an incrementing sequence number so a duplicated or
/// reordered frame (a transport bug, not a trace bug) is caught at the
/// envelope layer with its own diagnostic rather than surfacing as a
/// confusing record-level parse error.
///
/// Protocol v2 adds fault tolerance: the Hello carries a resume token
/// (a client-chosen stream id plus the lowest frame sequence the client
/// still retains), the server answers every Hello with a fixed-size
/// Resume/Reject message and thereafter acks its sequence watermark
/// periodically, and a frame whose length word carries the meta bit
/// holds client pipeline counters instead of trace bytes. A
/// reconnecting client replays only unacked frames; the server skips
/// frames below its watermark, making admission exactly-once across
/// any disconnect/reconnect pattern. Unknown versions, flags, message
/// types and meta keys are rejected on both sides.
///
/// All integers little-endian, reusing TraceFormat.h's append/read
/// helpers. This header is intentionally separate from TraceFormat.h:
/// the envelope can evolve (StreamProtocolVersion) without bumping the
/// trace format version that capture files depend on.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_STREAMENVELOPE_H
#define PASTA_PASTA_STREAMENVELOPE_H

#include "pasta/TraceFormat.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pasta {
namespace trace {

/// First eight bytes of every stream connection ("PASTASTM").
inline constexpr char StreamMagic[8] = {'P', 'A', 'S', 'T', 'A', 'S', 'T',
                                        'M'};

/// Envelope protocol version; servers reject other versions outright.
/// v2 added the Hello resume token and the server->client message
/// channel (Resume/Ack/Reject).
inline constexpr std::uint32_t StreamProtocolVersion = 2;

/// Hello flags word. Reserved — clients send 0, servers reject any set
/// bit (same posture as the trace header's flags word).
inline constexpr std::uint32_t StreamHelloFlags = 0;

/// Magic + protocol version + flags + process id + stream id + first
/// retained sequence + tenant length. The tenant name's bytes follow.
inline constexpr std::size_t StreamHelloFixedSize = 8 + 4 + 4 + 8 + 8 + 8 + 4;

/// Tenant names identify the merge domain; they become report keys and
/// (optionally) file names, so they are short and filesystem-safe:
/// 1..=64 bytes of [A-Za-z0-9._-], not starting with a dot.
inline constexpr std::size_t StreamMaxTenantBytes = 64;

/// u64 sequence number + u32 payload length.
inline constexpr std::size_t StreamFrameHeaderSize = 12;

/// Frame length word bit marking a meta frame: the payload is a
/// counter block (encodeStreamMeta), not trace bytes. Meta frames are
/// sequenced and acked like data frames, so client pipeline stats are
/// merged exactly once too.
inline constexpr std::uint32_t StreamFrameMetaBit = 0x80000000u;

/// Ceiling on one frame's payload (after masking StreamFrameMetaBit).
/// Client sinks flush far below this; the server rejects oversized
/// lengths before buffering, so a hostile length prefix cannot make
/// the aggregator buffer gigabytes.
inline constexpr std::uint32_t StreamMaxFramePayload = 1u << 20;

/// Server->client messages on a stream connection: u32 type + u64
/// value, fixed twelve bytes. Unknown types are a protocol error.
inline constexpr std::size_t StreamServerMsgSize = 12;
/// Hello answer: value = the sequence the client must send (or replay
/// from) next — the server's watermark for this stream id.
inline constexpr std::uint32_t StreamMsgResume = 1;
/// Periodic watermark: every frame below value is durably admitted and
/// the client may drop it from its spill buffer.
inline constexpr std::uint32_t StreamMsgAck = 2;
/// Hello refusal: value = a StreamReject* code; the server closes the
/// connection after sending it.
inline constexpr std::uint32_t StreamMsgReject = 3;

/// Reject codes (StreamMsgReject's value word).
/// The client's first retained sequence is above the server's
/// watermark — a daemon restart lost state the client no longer has.
inline constexpr std::uint64_t StreamRejectResumeUnavailable = 1;
/// Another live connection owns this (tenant, stream id).
inline constexpr std::uint64_t StreamRejectStreamBusy = 2;
/// The tenant's connection quota is exhausted.
inline constexpr std::uint64_t StreamRejectConnectionQuota = 3;
/// The stream previously failed decoding; it cannot be resumed.
inline constexpr std::uint64_t StreamRejectPoisoned = 4;

/// The server acks its watermark every this-many admitted frames (and
/// always once the trace's End record verifies, so a finishing client
/// learns its stream is durable without waiting an interval out).
inline constexpr std::uint32_t StreamAckInterval = 32;

/// True iff \p Name is a valid tenant name (see StreamMaxTenantBytes).
inline bool isValidTenantName(const std::string &Name) {
  if (Name.empty() || Name.size() > StreamMaxTenantBytes || Name[0] == '.')
    return false;
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
    if (!Ok)
      return false;
  }
  return true;
}

/// Client identity carried by the Hello.
struct StreamHello {
  std::string Tenant;
  std::uint64_t ProcessId = 0;
  /// Client-chosen nonzero id naming the logical stream across
  /// reconnects; the server keys resume state by (tenant, stream id).
  std::uint64_t StreamId = 0;
  /// Lowest frame sequence the client can still replay (its spill
  /// buffer's oldest retained frame; equals the next sequence when
  /// nothing is retained).
  std::uint64_t FirstRetainedSeq = 0;
};

/// Serializes a Hello (caller has validated the tenant name).
inline void encodeStreamHello(std::string &Out, const StreamHello &Hello) {
  Out.append(StreamMagic, sizeof(StreamMagic));
  appendU32(Out, StreamProtocolVersion);
  appendU32(Out, StreamHelloFlags);
  appendU64(Out, Hello.ProcessId);
  appendU64(Out, Hello.StreamId);
  appendU64(Out, Hello.FirstRetainedSeq);
  appendString(Out, Hello.Tenant);
}

/// Serializes one frame header; \p PayloadSize bytes follow on the
/// wire. \p PayloadSize may carry StreamFrameMetaBit.
inline void encodeStreamFrameHeader(std::string &Out, std::uint64_t Sequence,
                                    std::uint32_t PayloadSize) {
  appendU64(Out, Sequence);
  appendU32(Out, PayloadSize);
}

/// Serializes one server->client message.
inline void encodeStreamServerMessage(std::string &Out, std::uint32_t Type,
                                      std::uint64_t Value) {
  appendU32(Out, Type);
  appendU64(Out, Value);
}

//===----------------------------------------------------------------------===//
// Meta frames: client pipeline counters
//===----------------------------------------------------------------------===//
//
// A meta frame's payload is u32 count, then count x (u32 key + u64
// value), keys strictly ascending from the enumeration below. The
// daemon merges them into the tenant's client-pipeline rollup
// (event_pipeline section, --pipeline-report): sums everywhere except
// the high-water keys, which merge by max. Unknown keys are rejected —
// same posture as unknown header flags.

inline constexpr std::uint32_t StreamMetaEventsProcessed = 1;
inline constexpr std::uint32_t StreamMetaEventsFiltered = 2;
inline constexpr std::uint32_t StreamMetaEventsDropped = 3;
inline constexpr std::uint32_t StreamMetaEventsSampledOut = 4;
/// High-water mark: merged by max, not sum.
inline constexpr std::uint32_t StreamMetaMaxQueueDepth = 5;
inline constexpr std::uint32_t StreamMetaFlushCount = 6;
inline constexpr std::uint32_t StreamMetaQueueSpins = 7;
inline constexpr std::uint32_t StreamMetaQueueParks = 8;
inline constexpr std::uint32_t StreamMetaArenaPayloads = 9;
inline constexpr std::uint32_t StreamMetaArenaBytes = 10;
inline constexpr std::uint32_t StreamMetaArenaHits = 11;
inline constexpr std::uint32_t StreamMetaArenaMemoHits = 12;
inline constexpr std::uint32_t StreamMetaMaxKey = 12;

/// One counter in a meta frame.
struct StreamMetaCounter {
  std::uint32_t Key = 0;
  std::uint64_t Value = 0;
};

/// Serializes a meta-frame payload (keys must be valid and ascending).
inline void encodeStreamMeta(std::string &Out,
                             const std::vector<StreamMetaCounter> &Counters) {
  appendU32(Out, static_cast<std::uint32_t>(Counters.size()));
  for (const StreamMetaCounter &C : Counters) {
    appendU32(Out, C.Key);
    appendU64(Out, C.Value);
  }
}

//===----------------------------------------------------------------------===//
// Control channel
//===----------------------------------------------------------------------===//
//
// A control connection speaks to the same socket as the trace streams;
// the daemon disambiguates on the first eight bytes ("PASTACTL" vs
// "PASTASTM"). One request, one response, then the connection closes:
//   request:  magic(8) + u32 protocol version + u32 length + command text
//   response: u32 status (0 = ok) + u32 length + message text
// Commands are whitespace-separated words ("attach-tool <tenant>
// <tool>", "detach-tool <tenant> <tool>", "list-tenants") — the verbs
// behind `accelprof --control SOCKET <command>`, the path that
// live-reconfigures a running daemon's tenant sessions.

/// First eight bytes of every control connection ("PASTACTL").
inline constexpr char ControlMagic[8] = {'P', 'A', 'S', 'T', 'A', 'C', 'T',
                                         'L'};

/// Control protocol version; servers reject other versions outright.
inline constexpr std::uint32_t ControlProtocolVersion = 1;

/// Ceiling on a control command's text (and a response message).
inline constexpr std::uint32_t ControlMaxCommandBytes = 4096;

/// Response status words.
inline constexpr std::uint32_t ControlStatusOk = 0;
inline constexpr std::uint32_t ControlStatusError = 1;

/// Serializes a control request.
inline void encodeControlRequest(std::string &Out,
                                 const std::string &Command) {
  Out.append(ControlMagic, sizeof(ControlMagic));
  appendU32(Out, ControlProtocolVersion);
  appendString(Out, Command);
}

/// Serializes a control response.
inline void encodeControlResponse(std::string &Out, std::uint32_t Status,
                                  const std::string &Message) {
  appendU32(Out, Status);
  appendString(Out, Message);
}

} // namespace trace
} // namespace pasta

#endif // PASTA_PASTA_STREAMENVELOPE_H
