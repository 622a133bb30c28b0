//===- tests/serve_test.cpp - fleet aggregation daemon --------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The `accelprof --serve` subsystem: the stream envelope (Hello +
// sequence-checked frames), the byte-incremental TraceStreamDecoder and
// its equivalence with the file reader, the ClientStream robustness
// contract (bit-flip and every-prefix truncation fuzz — a violation
// always fails with a diagnostic, never crashes, never silently
// accepts), corrupt-client isolation between tenants, and the end-to-end
// socket path: client sessions forwarding through --connect produce
// per-tenant aggregator reports byte-identical to the same workload run
// single-process, and a SIGTERM-style requestStop() drains cleanly.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"
#include "pasta/Session.h"
#include "pasta/StreamEnvelope.h"
#include "pasta/TraceFormat.h"
#include "pasta/TraceReader.h"
#include "pasta/TraceWriter.h"
#include "serve/Aggregator.h"
#include "serve/Connection.h"
#include "serve/Control.h"
#include "serve/SpillBuffer.h"
#include "serve/TenantRegistry.h"
#include "serve/TraceStreamSink.h"
#include "support/Env.h"
#include "support/Logging.h"
#include "support/ReportSink.h"
#include "tools/StreamForwardTool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace pasta;
using namespace pasta::serve;

namespace {

std::string tempPath(const std::string &Stem, const std::string &Ext) {
  static int Counter = 0;
  return ::testing::TempDir() + "pasta_serve_" + Stem + "_" +
         std::to_string(++Counter) + Ext;
}

std::vector<unsigned char> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(In),
                                    std::istreambuf_iterator<char>());
}

/// TraceOutput capturing the byte stream in memory.
class StringTraceOutput : public TraceOutput {
public:
  bool write(const char *Data, std::size_t Size) override {
    Bytes.append(Data, Size);
    return true;
  }
  std::string describe() const override { return "memory"; }
  std::string Bytes;
};

sim::KernelDesc makeKernel(const std::string &Name) {
  sim::KernelDesc K;
  K.Name = Name;
  K.Grid = {8, 4, 2};
  K.Block = {128, 1, 1};
  K.Flops = 123456.5;
  K.StaticInstrs = 4096;
  sim::AccessSegment Load;
  Load.Base = 0x1000;
  Load.Extent = 0x2000;
  Load.AccessBytes = 1 << 20;
  Load.Kind = sim::AccessKind::Load;
  Load.Space = sim::MemSpace::Global;
  K.Segments = {Load};
  return K;
}

/// A payload-rich synthetic stream (kernels, strings, stacks, repeats so
/// the payload tables deduplicate).
std::vector<Event> makeEvents(std::size_t Count) {
  std::vector<Event> Events;
  sim::KernelDesc K1 = makeKernel("gemm_kernel");
  sim::KernelDesc K2 = makeKernel("conv_kernel");
  for (std::size_t I = 0; I < Count; ++I) {
    Event E;
    switch (I % 3) {
    case 0:
      E.Kind = EventKind::KernelLaunch;
      E.GridId = I + 1;
      E.Stream = static_cast<std::uint32_t>(I % 3);
      E.adoptKernel(
          std::make_shared<const sim::KernelDesc>(I % 6 == 0 ? K2 : K1));
      break;
    case 1:
      E.Kind = EventKind::OperatorStart;
      E.OpName = I % 6 == 1 ? "aten::conv2d" : "aten::mm";
      E.LayerName = "layer" + std::to_string(I % 4);
      break;
    default:
      E.Kind = EventKind::MemoryAlloc;
      E.Address = 0x1000 * (I + 1);
      E.Bytes = 4096;
      break;
    }
    E.Timestamp = static_cast<SimTime>(1000 * I);
    Events.push_back(E);
  }
  return Events;
}

/// The trace byte stream a forwarding client produces (streamed header
/// flags, payload tables, End record).
std::string traceBytes(const std::vector<Event> &Events) {
  StringTraceOutput Out;
  TraceWriter Writer;
  SessionError Err;
  EXPECT_TRUE(Writer.openSink(Out, trace::kFlagStreamed, Err))
      << Err.message();
  for (const Event &E : Events)
    Writer.append(E);
  EXPECT_TRUE(Writer.finalize(Err)) << Err.message();
  return Out.Bytes;
}

/// Full client connection bytes: Hello + the trace stream cut into
/// frames of \p FramePayload bytes. The default stream id has many set
/// bits so a single bit flip in the fuzz tests cannot zero it.
std::string clientBytes(const std::string &Tenant, std::uint64_t Pid,
                        const std::string &Trace, std::size_t FramePayload,
                        std::uint64_t StreamId = 0x5a5a5a5aull,
                        std::uint64_t FirstRetainedSeq = 0) {
  std::string Wire;
  trace::StreamHello Hello;
  Hello.Tenant = Tenant;
  Hello.ProcessId = Pid;
  Hello.StreamId = StreamId;
  Hello.FirstRetainedSeq = FirstRetainedSeq;
  trace::encodeStreamHello(Wire, Hello);
  std::uint64_t Sequence = 0;
  for (std::size_t Pos = 0; Pos < Trace.size(); Pos += FramePayload) {
    std::size_t Len = std::min(FramePayload, Trace.size() - Pos);
    trace::encodeStreamFrameHeader(Wire, Sequence++,
                                   static_cast<std::uint32_t>(Len));
    Wire.append(Trace, Pos, Len);
  }
  return Wire;
}

ServeOptions makeOpts() {
  ServeOptions Opts;
  Opts.ToolNames = {"kernel_frequency"};
  return Opts;
}

/// Drives a ClientStream with the whole byte string in chunks of
/// \p Chunk bytes. Returns feed+EOF success.
bool driveStream(ClientStream &Stream, const std::string &Bytes,
                 std::size_t Chunk, SessionError &Err) {
  const unsigned char *Data =
      reinterpret_cast<const unsigned char *>(Bytes.data());
  for (std::size_t Pos = 0; Pos < Bytes.size(); Pos += Chunk) {
    std::size_t Len = std::min(Chunk, Bytes.size() - Pos);
    if (!Stream.feed(Data + Pos, Len, Err))
      return false;
  }
  return Stream.finishEof(Err);
}

/// The reports of a fresh backend-"none" session fed \p Events directly
/// through the replay admission path — the byte-identity comparator for
/// a tenant session fed the same events through the socket stack.
std::string directAdmissionJson(const std::vector<Event> &Events) {
  SessionError Err;
  std::unique_ptr<Session> S = SessionBuilder()
                                   .tool("kernel_frequency")
                                   .backend("none")
                                   .build(Err);
  EXPECT_NE(S, nullptr) << Err.message();
  for (const Event &E : Events) {
    Event Copy = E;
    S->processor().process(std::move(Copy));
  }
  S->finish();
  JsonReportSink Sink;
  S->writeReports(Sink);
  return Sink.str();
}

//===----------------------------------------------------------------------===//
// TraceStreamDecoder
//===----------------------------------------------------------------------===//

TEST(TraceStreamDecoderTest, IncrementalChunksMatchFileReader) {
  std::vector<Event> Events = makeEvents(24);
  std::string Stream = traceBytes(Events);

  // File comparator: same events through the file writer/reader.
  std::string Path = tempPath("decoder_ref", ".trace");
  TraceWriter Writer;
  SessionError Err;
  ASSERT_TRUE(Writer.open(Path, Err)) << Err.message();
  for (const Event &E : Events)
    Writer.append(E);
  ASSERT_TRUE(Writer.finalize(Err)) << Err.message();
  TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path, Err)) << Err.message();
  std::vector<EventKind> FileKinds;
  std::vector<std::string> FileOps;
  Reader.forEachEvent(nullptr, [&](Event &E) {
    FileKinds.push_back(E.Kind);
    FileOps.push_back(E.OpName.str());
  });

  // Every chunk size decodes the identical event sequence.
  for (std::size_t Chunk :
       {std::size_t(1), std::size_t(3), std::size_t(7), std::size_t(64),
        Stream.size()}) {
    TraceStreamDecoder Decoder(nullptr);
    std::vector<EventKind> Kinds;
    std::vector<std::string> Ops;
    const unsigned char *Data =
        reinterpret_cast<const unsigned char *>(Stream.data());
    for (std::size_t Pos = 0; Pos < Stream.size(); Pos += Chunk) {
      std::size_t Len = std::min(Chunk, Stream.size() - Pos);
      ASSERT_TRUE(Decoder.feed(
          Data + Pos, Len,
          [&](Event &E) {
            Kinds.push_back(E.Kind);
            Ops.push_back(E.OpName.str());
          },
          Err))
          << "chunk " << Chunk << ": " << Err.message();
    }
    ASSERT_TRUE(Decoder.finish(Err)) << Err.message();
    EXPECT_TRUE(Decoder.finished());
    EXPECT_EQ(Kinds, FileKinds) << "chunk " << Chunk;
    EXPECT_EQ(Ops, FileOps) << "chunk " << Chunk;
    EXPECT_EQ(Decoder.info().Events, Events.size());
  }
}

TEST(TraceStreamDecoderTest, RejectsFileFlavoredHeader) {
  // A capture-file header (flags 0) is not a socket stream.
  std::vector<Event> Events = makeEvents(4);
  std::string Path = tempPath("fileflags", ".trace");
  TraceWriter Writer;
  SessionError Err;
  ASSERT_TRUE(Writer.open(Path, Err));
  for (const Event &E : Events)
    Writer.append(E);
  ASSERT_TRUE(Writer.finalize(Err));
  std::vector<unsigned char> Bytes = readFileBytes(Path);

  TraceStreamDecoder Decoder(nullptr);
  EXPECT_FALSE(
      Decoder.feed(Bytes.data(), Bytes.size(), [](Event &) {}, Err));
  EXPECT_TRUE(Decoder.failed());
  EXPECT_NE(Err.message().find("header flags"), std::string::npos)
      << Err.message();
}

TEST(TraceStreamDecoderTest, TruncatedStreamFailsAtFinish) {
  std::string Stream = traceBytes(makeEvents(8));
  TraceStreamDecoder Decoder(nullptr);
  SessionError Err;
  ASSERT_TRUE(Decoder.feed(
      reinterpret_cast<const unsigned char *>(Stream.data()),
      Stream.size() - 5, [](Event &) {}, Err))
      << Err.message();
  EXPECT_FALSE(Decoder.finish(Err));
  EXPECT_NE(Err.message().find("truncated stream"), std::string::npos)
      << Err.message();
}

//===----------------------------------------------------------------------===//
// File reader flags posture (v2)
//===----------------------------------------------------------------------===//

TEST(TraceFileFlagsTest, StreamedFlagRejectedInCaptureFiles) {
  // Dumping a socket stream's bytes to disk must not masquerade as a
  // capture file.
  std::string Stream = traceBytes(makeEvents(4));
  std::string Path = tempPath("streamdump", ".trace");
  std::ofstream(Path, std::ios::binary) << Stream;
  TraceReader Reader;
  SessionError Err;
  EXPECT_FALSE(Reader.open(Path, Err));
  EXPECT_NE(Err.message().find("streamed header flags"), std::string::npos)
      << Err.message();
}

//===----------------------------------------------------------------------===//
// ClientStream: envelope grammar + robustness fuzz
//===----------------------------------------------------------------------===//

TEST(ClientStreamTest, CleanStreamAdmitsEveryEvent) {
  ServeOptions Opts = makeOpts();
  TenantRegistry Registry(Opts);
  std::vector<Event> Events = makeEvents(18);
  std::string Wire = clientBytes("team-a", 4242, traceBytes(Events), 53);

  ClientStream Stream(
      [&](const trace::StreamHello &Hello, SessionError &Err) {
        return Registry.getOrCreate(Hello.Tenant, Err);
      });
  SessionError Err;
  ASSERT_TRUE(driveStream(Stream, Wire, 11, Err)) << Err.message();
  ASSERT_NE(Stream.tenant(), nullptr);
  EXPECT_EQ(Stream.hello().Tenant, "team-a");
  EXPECT_EQ(Stream.hello().ProcessId, 4242u);
  EXPECT_EQ(Stream.eventsAdmitted(), Events.size());
  TenantStats Stats = Stream.tenant()->stats();
  EXPECT_EQ(Stats.Connections, 1u);
  EXPECT_EQ(Stats.CleanStreams, 1u);
  EXPECT_EQ(Stats.CorruptStreams, 0u);
  EXPECT_EQ(Stats.EventsAdmitted, Events.size());
}

TEST(ClientStreamTest, OutOfOrderFrameRejected) {
  ServeOptions Opts = makeOpts();
  TenantRegistry Registry(Opts);
  std::string Trace = traceBytes(makeEvents(6));
  std::string Wire = clientBytes("seq", 1, Trace, 40);
  // Bump the first frame's sequence number (directly after the hello).
  std::size_t HelloSize = trace::StreamHelloFixedSize + 3;
  Wire[HelloSize] = 5;

  ClientStream Stream(
      [&](const trace::StreamHello &Hello, SessionError &Err) {
        return Registry.getOrCreate(Hello.Tenant, Err);
      });
  SessionError Err;
  EXPECT_FALSE(driveStream(Stream, Wire, Wire.size(), Err));
  EXPECT_NE(Err.message().find("out-of-order frame"), std::string::npos)
      << Err.message();
  EXPECT_NE(Err.message().find("tenant 'seq'"), std::string::npos)
      << Err.message();
}

TEST(ClientStreamTest, EveryPrefixTruncationFails) {
  ServeOptions Opts = makeOpts();
  TenantRegistry Registry(Opts);
  std::string Wire = clientBytes("trunc", 7, traceBytes(makeEvents(6)), 64);
  auto Binder = [&](const trace::StreamHello &Hello, SessionError &Err) {
    return Registry.getOrCreate(Hello.Tenant, Err);
  };

  for (std::size_t Keep = 0; Keep < Wire.size(); ++Keep) {
    ClientStream Stream(Binder);
    SessionError Err;
    EXPECT_FALSE(driveStream(Stream, Wire.substr(0, Keep), 37, Err))
        << "silent partial stream: " << Keep << " of " << Wire.size()
        << " bytes was accepted as complete";
    EXPECT_FALSE(Err.ok());
    // Free the (tenant, stream id) Busy slot — each prefix is a
    // disconnect the next iteration resumes from.
    Stream.release();
  }
  // The whole stream still verifies — the loop above proves *only* the
  // whole stream does.
  ClientStream Stream(Binder);
  SessionError Err;
  EXPECT_TRUE(driveStream(Stream, Wire, 37, Err)) << Err.message();
}

TEST(ClientStreamTest, BitFlipFuzzNeverCrashesOrAcceptsCorruption) {
  ServeOptions Opts = makeOpts();
  std::string Wire =
      clientBytes("fuzzer", 99, traceBytes(makeEvents(6)), 48);

  // Structural region: the whole hello (v2: magic, version, flags, pid,
  // stream id, resume token, tenant), the first frame header, and the
  // trace header at the start of the first payload.
  std::size_t HelloSize = trace::StreamHelloFixedSize + 6;
  std::size_t Structural =
      HelloSize + trace::StreamFrameHeaderSize + trace::HeaderSize;
  ASSERT_LE(Structural, Wire.size());
  for (std::size_t Byte = 0; Byte < Structural; ++Byte) {
    // The pid field is identity metadata; flipping it yields a valid
    // stream from a different pid. The stream id is identity too: any
    // flip names a different (still nonzero — the default id is
    // multi-bit) resumable stream. Tenant-name bytes: a flip that lands
    // on another allowed character is a valid stream for a *different*
    // tenant — only flips to disallowed characters must be rejected.
    // Everything else — magic, version, flags, the FirstRetainedSeq
    // resume token (any set bit claims frames ahead of the fresh
    // stream's watermark), frame header, trace header — is
    // load-bearing.
    bool PidByte = Byte >= 16 && Byte < 24;
    bool StreamIdByte = Byte >= 24 && Byte < 32;
    bool TenantByte = Byte >= trace::StreamHelloFixedSize && Byte < HelloSize;
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::string Mutated = Wire;
      Mutated[Byte] = static_cast<char>(
          static_cast<unsigned char>(Mutated[Byte]) ^ (1u << Bit));
      bool ExpectOk = PidByte || StreamIdByte;
      if (TenantByte) {
        std::string MutatedTenant =
            Mutated.substr(trace::StreamHelloFixedSize, 6);
        ExpectOk = trace::isValidTenantName(MutatedTenant);
      }
      // A fresh registry per mutation: stream state must not leak
      // between iterations (a poisoned or Busy id from one flip would
      // shadow the verdict of the next).
      TenantRegistry Registry(Opts);
      auto Binder = [&](const trace::StreamHello &Hello, SessionError &Err) {
        return Registry.getOrCreate(Hello.Tenant, Err);
      };
      ClientStream Stream(Binder);
      SessionError Err;
      bool Ok = driveStream(Stream, Mutated, 41, Err);
      if (ExpectOk) {
        EXPECT_TRUE(Ok) << "byte " << Byte << " bit " << Bit << ": "
                        << Err.message();
      } else {
        EXPECT_FALSE(Ok) << "byte " << Byte << " bit " << Bit
                         << " flip was silently accepted";
        EXPECT_FALSE(Err.ok());
      }
    }
  }
}

TEST(ClientStreamTest, CorruptClientIsolatedFromOtherTenant) {
  ServeOptions Opts = makeOpts();
  TenantRegistry Registry(Opts);
  auto Binder = [&](const trace::StreamHello &Hello, SessionError &Err) {
    return Registry.getOrCreate(Hello.Tenant, Err);
  };
  std::vector<Event> GoodEvents = makeEvents(21);

  // Tenant "good": one clean client.
  {
    ClientStream Stream(Binder);
    SessionError Err;
    ASSERT_TRUE(driveStream(
        Stream, clientBytes("good", 1, traceBytes(GoodEvents), 60), 19, Err))
        << Err.message();
  }
  // Tenant "bad": a client whose trace bytes rot in flight. The End
  // record's event count (u64 starting 20 bytes from the end) is
  // clobbered, so the decoder's cross-check must reject the stream.
  {
    std::string Trace = traceBytes(makeEvents(21));
    Trace[Trace.size() - 20] = '\xee';
    ClientStream Stream(Binder);
    SessionError Err;
    EXPECT_FALSE(
        driveStream(Stream, clientBytes("bad", 2, Trace, 60), 19, Err));
    EXPECT_NE(Err.message().find("tenant 'bad'"), std::string::npos)
        << Err.message();
  }

  SessionError Err;
  Tenant *Good = Registry.getOrCreate("good", Err);
  Tenant *Bad = Registry.getOrCreate("bad", Err);
  ASSERT_NE(Good, nullptr);
  ASSERT_NE(Bad, nullptr);
  EXPECT_EQ(Good->stats().CleanStreams, 1u);
  EXPECT_EQ(Good->stats().CorruptStreams, 0u);
  EXPECT_EQ(Bad->stats().CleanStreams, 0u);
  EXPECT_EQ(Bad->stats().CorruptStreams, 1u);

  // The corrupt neighbor did not perturb "good": its merged report is
  // byte-identical to feeding the same events directly.
  JsonReportSink GoodSink;
  Registry.writeTenantReport(*Good, GoodSink, /*Final=*/true);
  EXPECT_EQ(GoodSink.str(), directAdmissionJson(GoodEvents));
}

//===----------------------------------------------------------------------===//
// ClientStream: resume, exactly-once, quotas (protocol v2)
//===----------------------------------------------------------------------===//

/// Decodes the \p Index'th server->client message in \p Replies.
void parseServerMsg(const std::string &Replies, std::size_t Index,
                    std::uint32_t &Type, std::uint64_t &Value) {
  ASSERT_GE(Replies.size(), (Index + 1) * trace::StreamServerMsgSize);
  trace::ByteReader Cursor(
      reinterpret_cast<const unsigned char *>(Replies.data()) +
          Index * trace::StreamServerMsgSize,
      trace::StreamServerMsgSize);
  ASSERT_TRUE(Cursor.readU32(Type));
  ASSERT_TRUE(Cursor.readU64(Value));
}

TEST(ClientStreamTest, HelloAnsweredWithResumeAndFinalAck) {
  ServeOptions Opts = makeOpts();
  TenantRegistry Registry(Opts);
  std::vector<Event> Events = makeEvents(12);
  std::string Wire = clientBytes("ack", 1, traceBytes(Events), 64);

  std::string Replies;
  ClientStream Stream(
      [&](const trace::StreamHello &Hello, SessionError &Err) {
        return Registry.getOrCreate(Hello.Tenant, Err);
      });
  Stream.setReplyWriter(
      [&](const std::string &Bytes, bool) { Replies += Bytes; });
  SessionError Err;
  ASSERT_TRUE(driveStream(Stream, Wire, 23, Err)) << Err.message();

  // First reply: Resume from watermark 0 (a fresh stream).
  std::uint32_t Type = 0;
  std::uint64_t Value = 0;
  parseServerMsg(Replies, 0, Type, Value);
  EXPECT_EQ(Type, trace::StreamMsgResume);
  EXPECT_EQ(Value, 0u);
  // Last reply: the End-record ack carrying the full watermark, so a
  // finishing client learns its stream is durable without waiting an
  // ack interval out.
  ASSERT_EQ(Replies.size() % trace::StreamServerMsgSize, 0u);
  parseServerMsg(Replies, Replies.size() / trace::StreamServerMsgSize - 1,
                 Type, Value);
  EXPECT_EQ(Type, trace::StreamMsgAck);
  EXPECT_EQ(Value, Stream.framesReceived());
}

TEST(ClientStreamTest, ReconnectReplayAdmitsExactlyOnce) {
  ServeOptions Opts = makeOpts();
  TenantRegistry Registry(Opts);
  auto Binder = [&](const trace::StreamHello &Hello, SessionError &Err) {
    return Registry.getOrCreate(Hello.Tenant, Err);
  };
  std::vector<Event> Events = makeEvents(18);
  std::string Wire = clientBytes("once", 7, traceBytes(Events), 48);

  // First connection dies mid-stream (two thirds in, mid-frame).
  {
    ClientStream First(Binder);
    SessionError Err;
    std::string Partial = Wire.substr(0, Wire.size() * 2 / 3);
    const unsigned char *Data =
        reinterpret_cast<const unsigned char *>(Partial.data());
    ASSERT_TRUE(First.feed(Data, Partial.size(), Err)) << Err.message();
    EXPECT_FALSE(First.finishEof(Err));
    EXPECT_TRUE(First.suspended());
    First.release();
  }
  // The reconnect replays the whole stream from sequence 0 — the spill
  // buffer retains acked frames so a restarted daemon can be replayed
  // from scratch; a surviving daemon must skip the duplicates.
  std::string Replies;
  {
    ClientStream Second(Binder);
    Second.setReplyWriter(
        [&](const std::string &Bytes, bool) { Replies += Bytes; });
    SessionError Err;
    ASSERT_TRUE(driveStream(Second, Wire, 31, Err)) << Err.message();
    Second.release();
  }
  // The Resume answer named the watermark, not zero.
  std::uint32_t Type = 0;
  std::uint64_t Value = 0;
  parseServerMsg(Replies, 0, Type, Value);
  EXPECT_EQ(Type, trace::StreamMsgResume);
  EXPECT_GT(Value, 0u);

  SessionError Err;
  Tenant *T = Registry.getOrCreate("once", Err);
  ASSERT_NE(T, nullptr);
  TenantStats Stats = T->stats();
  EXPECT_EQ(Stats.CleanStreams, 1u);
  EXPECT_EQ(Stats.CorruptStreams, 0u);
  EXPECT_EQ(Stats.SuspendedStreams, 1u);
  EXPECT_EQ(Stats.ResumedStreams, 1u);
  EXPECT_GT(Stats.DuplicateFrames, 0u);
  // Exactly-once: every event admitted once despite the full replay.
  EXPECT_EQ(Stats.EventsAdmitted, Events.size());
  JsonReportSink Sink;
  Registry.writeTenantReport(*T, Sink, /*Final=*/true);
  EXPECT_EQ(Sink.str(), directAdmissionJson(Events));
}

TEST(ClientStreamTest, BusyStreamIdRejected) {
  ServeOptions Opts = makeOpts();
  TenantRegistry Registry(Opts);
  auto Binder = [&](const trace::StreamHello &Hello, SessionError &Err) {
    return Registry.getOrCreate(Hello.Tenant, Err);
  };
  std::string Wire = clientBytes("busy", 1, traceBytes(makeEvents(6)), 64);
  std::size_t HelloSize = trace::StreamHelloFixedSize + 4;

  ClientStream First(Binder);
  SessionError Err;
  ASSERT_TRUE(First.feed(
      reinterpret_cast<const unsigned char *>(Wire.data()), HelloSize, Err))
      << Err.message();
  // Same (tenant, stream id) while the first connection is live.
  std::string Replies;
  ClientStream Second(Binder);
  Second.setReplyWriter(
      [&](const std::string &Bytes, bool) { Replies += Bytes; });
  SessionError SecondErr;
  EXPECT_FALSE(driveStream(Second, Wire, Wire.size(), SecondErr));
  EXPECT_TRUE(Second.rejected());
  EXPECT_NE(SecondErr.message().find("live connection"), std::string::npos)
      << SecondErr.message();
  std::uint32_t Type = 0;
  std::uint64_t Value = 0;
  parseServerMsg(Replies, 0, Type, Value);
  EXPECT_EQ(Type, trace::StreamMsgReject);
  EXPECT_EQ(Value, trace::StreamRejectStreamBusy);
  // A rejected Hello is not a corrupt stream.
  EXPECT_EQ(Second.tenant()->stats().CorruptStreams, 0u);
  // Releasing the first connection frees the id for a resume.
  First.release();
  ClientStream Third(Binder);
  SessionError ThirdErr;
  EXPECT_TRUE(driveStream(Third, Wire, 40, ThirdErr)) << ThirdErr.message();
}

TEST(ClientStreamTest, PoisonedStreamCannotResume) {
  ServeOptions Opts = makeOpts();
  TenantRegistry Registry(Opts);
  auto Binder = [&](const trace::StreamHello &Hello, SessionError &Err) {
    return Registry.getOrCreate(Hello.Tenant, Err);
  };
  std::string Trace = traceBytes(makeEvents(6));
  Trace[Trace.size() - 20] = '\xee'; // clobber the End record's count
  std::string Wire = clientBytes("poison", 1, Trace, 64);
  {
    ClientStream First(Binder);
    SessionError Err;
    EXPECT_FALSE(driveStream(First, Wire, Wire.size(), Err));
    First.release();
  }
  std::string Replies;
  ClientStream Second(Binder);
  Second.setReplyWriter(
      [&](const std::string &Bytes, bool) { Replies += Bytes; });
  SessionError Err;
  EXPECT_FALSE(driveStream(Second, Wire, Wire.size(), Err));
  EXPECT_TRUE(Second.rejected());
  std::uint32_t Type = 0;
  std::uint64_t Value = 0;
  parseServerMsg(Replies, 0, Type, Value);
  EXPECT_EQ(Type, trace::StreamMsgReject);
  EXPECT_EQ(Value, trace::StreamRejectPoisoned);
}

TEST(ClientStreamTest, ResumeTokenAheadOfWatermarkRejected) {
  // A daemon restart lost the stream state; a client whose spill buffer
  // already evicted frame 0 cannot be resumed exactly-once.
  ServeOptions Opts = makeOpts();
  TenantRegistry Registry(Opts);
  std::string Wire = clientBytes("ahead", 1, traceBytes(makeEvents(6)), 64,
                                 0x5a5a5a5aull, /*FirstRetainedSeq=*/5);
  std::string Replies;
  ClientStream Stream(
      [&](const trace::StreamHello &Hello, SessionError &Err) {
        return Registry.getOrCreate(Hello.Tenant, Err);
      });
  Stream.setReplyWriter(
      [&](const std::string &Bytes, bool) { Replies += Bytes; });
  SessionError Err;
  EXPECT_FALSE(driveStream(Stream, Wire, Wire.size(), Err));
  EXPECT_TRUE(Stream.rejected());
  EXPECT_NE(Err.message().find("watermark"), std::string::npos)
      << Err.message();
  std::uint32_t Type = 0;
  std::uint64_t Value = 0;
  parseServerMsg(Replies, 0, Type, Value);
  EXPECT_EQ(Type, trace::StreamMsgReject);
  EXPECT_EQ(Value, trace::StreamRejectResumeUnavailable);
}

TEST(ClientStreamTest, ConnectionQuotaRejectsExcessClients) {
  ServeOptions Opts = makeOpts();
  Opts.QuotaMaxConnections = 1;
  TenantRegistry Registry(Opts);
  auto Binder = [&](const trace::StreamHello &Hello, SessionError &Err) {
    return Registry.getOrCreate(Hello.Tenant, Err);
  };
  std::string Trace = traceBytes(makeEvents(6));
  std::string WireA = clientBytes("capped", 1, Trace, 64, 0x1111ull);
  std::string WireB = clientBytes("capped", 2, Trace, 64, 0x2222ull);
  std::size_t HelloSize = trace::StreamHelloFixedSize + 6;

  ClientStream First(Binder);
  SessionError Err;
  ASSERT_TRUE(First.feed(
      reinterpret_cast<const unsigned char *>(WireA.data()), HelloSize, Err))
      << Err.message();
  std::string Replies;
  ClientStream Second(Binder);
  Second.setReplyWriter(
      [&](const std::string &Bytes, bool) { Replies += Bytes; });
  SessionError SecondErr;
  EXPECT_FALSE(driveStream(Second, WireB, WireB.size(), SecondErr));
  EXPECT_TRUE(Second.rejected());
  std::uint32_t Type = 0;
  std::uint64_t Value = 0;
  parseServerMsg(Replies, 0, Type, Value);
  EXPECT_EQ(Type, trace::StreamMsgReject);
  EXPECT_EQ(Value, trace::StreamRejectConnectionQuota);
  Tenant *T = First.tenant();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->stats().QuotaRejectedConnections, 1u);
  // Releasing the slot readmits the second client.
  First.release();
  ClientStream Third(Binder);
  SessionError ThirdErr;
  EXPECT_TRUE(driveStream(Third, WireB, 40, ThirdErr)) << ThirdErr.message();
}

TEST(ClientStreamTest, ShedPolicyDropsExcessEventsCounted) {
  ServeOptions Opts = makeOpts();
  Opts.QuotaEventsPerSec = 4.0;
  Opts.QuotaPolicy = "shed";
  TenantRegistry Registry(Opts);
  std::vector<Event> Events = makeEvents(30);
  std::string Wire = clientBytes("shedder", 1, traceBytes(Events), 64);
  ClientStream Stream(
      [&](const trace::StreamHello &Hello, SessionError &Err) {
        return Registry.getOrCreate(Hello.Tenant, Err);
      });
  SessionError Err;
  // Shedding degrades, never corrupts: the stream still verifies.
  ASSERT_TRUE(driveStream(Stream, Wire, 57, Err)) << Err.message();
  TenantStats Stats = Stream.tenant()->stats();
  EXPECT_GT(Stats.QuotaShedEvents, 0u);
  EXPECT_EQ(Stats.EventsAdmitted + Stats.QuotaShedEvents, Events.size());
  EXPECT_EQ(Stats.CleanStreams, 1u);
  // The quota bite is reported, so shed degradation is never silent —
  // and the extra section lands INSIDE the JSON document (a closed
  // sink would emit it past the array terminator).
  JsonReportSink Sink;
  Registry.writeTenantReport(*Stream.tenant(), Sink, /*Final=*/true);
  std::string Report = Sink.str();
  std::size_t QuotaAt = Report.find("quota_shed");
  EXPECT_NE(QuotaAt, std::string::npos) << Report;
  std::size_t LastBracket = Report.find_last_of(']');
  ASSERT_NE(LastBracket, std::string::npos) << Report;
  EXPECT_LT(QuotaAt, LastBracket) << "quota section outside the JSON "
                                     "document:\n"
                                  << Report;
  EXPECT_EQ(Report.find_first_not_of(" \t\r\n", LastBracket + 1),
            std::string::npos)
      << "trailing bytes after the JSON document:\n"
      << Report;
}

TEST(ClientStreamTest, ThrottlePolicyStallsInsteadOfDropping) {
  ServeOptions Opts = makeOpts();
  Opts.QuotaEventsPerSec = 4.0; // default policy: throttle
  TenantRegistry Registry(Opts);
  std::vector<Event> Events = makeEvents(30);
  std::string Wire = clientBytes("slowpoke", 1, traceBytes(Events), 64);
  double StalledSeconds = 0.0;
  ClientStream Stream(
      [&](const trace::StreamHello &Hello, SessionError &Err) {
        return Registry.getOrCreate(Hello.Tenant, Err);
      });
  Stream.setThrottler([&](double Seconds) { StalledSeconds += Seconds; });
  SessionError Err;
  ASSERT_TRUE(driveStream(Stream, Wire, 57, Err)) << Err.message();
  TenantStats Stats = Stream.tenant()->stats();
  EXPECT_GT(Stats.ThrottledWaits, 0u);
  EXPECT_GT(StalledSeconds, 0.0);
  // Back-pressure loses nothing.
  EXPECT_EQ(Stats.QuotaShedEvents, 0u);
  EXPECT_EQ(Stats.EventsAdmitted, Events.size());
}

TEST(ClientStreamTest, MetaFramesMergePipelineRollup) {
  ServeOptions Opts = makeOpts();
  Opts.PipelineRollup = true;
  TenantRegistry Registry(Opts);
  auto Binder = [&](const trace::StreamHello &Hello, SessionError &Err) {
    return Registry.getOrCreate(Hello.Tenant, Err);
  };
  std::string Trace = traceBytes(makeEvents(6));

  auto wireWithMeta = [&](std::uint64_t StreamId, std::uint64_t Processed,
                          std::uint64_t Depth) {
    std::string Wire = clientBytes("fleet", 1, Trace, 64, StreamId);
    std::uint64_t Frames = (Trace.size() + 63) / 64;
    std::string Payload;
    trace::encodeStreamMeta(
        Payload, {{trace::StreamMetaEventsProcessed, Processed},
                  {trace::StreamMetaMaxQueueDepth, Depth}});
    trace::encodeStreamFrameHeader(
        Wire, Frames,
        static_cast<std::uint32_t>(Payload.size()) |
            trace::StreamFrameMetaBit);
    Wire += Payload;
    return Wire;
  };
  for (int Client = 0; Client < 2; ++Client) {
    ClientStream Stream(Binder);
    SessionError Err;
    std::string Wire = wireWithMeta(0x100ull + Client,
                                    Client == 0 ? 100 : 40,
                                    Client == 0 ? 7 : 9);
    ASSERT_TRUE(driveStream(Stream, Wire, 33, Err)) << Err.message();
    Stream.release();
  }

  SessionError Err;
  Tenant *T = Registry.getOrCreate("fleet", Err);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->stats().MetaFrames, 2u);
  // Sums for counters, max for the high-water mark.
  EXPECT_EQ(T->metaTotal(trace::StreamMetaEventsProcessed), 140u);
  EXPECT_EQ(T->metaTotal(trace::StreamMetaMaxQueueDepth), 9u);
  JsonReportSink Sink;
  Registry.writeTenantReport(*T, Sink, /*Final=*/true);
  std::string Report = Sink.str();
  std::size_t RollupAt = Report.find("event_pipeline");
  EXPECT_NE(RollupAt, std::string::npos) << Report;
  // Inside the document, not appended past the array terminator.
  EXPECT_LT(RollupAt, Report.find_last_of(']')) << Report;
}

TEST(ClientStreamTest, UnknownMetaKeyRejected) {
  // Same posture as unknown header flags: an envelope from the future
  // is refused, not half-understood.
  ServeOptions Opts = makeOpts();
  TenantRegistry Registry(Opts);
  std::string Trace = traceBytes(makeEvents(6));
  std::string Wire = clientBytes("future", 1, Trace, 64);
  std::uint64_t Frames = (Trace.size() + 63) / 64;
  std::string Payload;
  trace::encodeStreamMeta(Payload, {{trace::StreamMetaMaxKey + 1, 1}});
  trace::encodeStreamFrameHeader(
      Wire, Frames,
      static_cast<std::uint32_t>(Payload.size()) | trace::StreamFrameMetaBit);
  Wire += Payload;

  ClientStream Stream(
      [&](const trace::StreamHello &Hello, SessionError &Err) {
        return Registry.getOrCreate(Hello.Tenant, Err);
      });
  SessionError Err;
  EXPECT_FALSE(driveStream(Stream, Wire, Wire.size(), Err));
  EXPECT_NE(Err.message().find("malformed meta frame"), std::string::npos)
      << Err.message();
}

//===----------------------------------------------------------------------===//
// Aggregator: end-to-end over the socket
//===----------------------------------------------------------------------===//

/// Runs one profiled workload session forwarding to \p Socket, returns
/// the number of events the forwarder serialized.
std::uint64_t runForwardingClient(const std::string &Socket,
                                  const std::string &Tenant) {
  SessionError Err;
  std::unique_ptr<Session> S = SessionBuilder()
                                   .tool("kernel_frequency")
                                   .backend("cs-gpu")
                                   .model("alexnet")
                                   .connect(Socket)
                                   .tenant(Tenant)
                                   .build(Err);
  EXPECT_NE(S, nullptr) << Err.message();
  if (!S)
    return 0;
  S->run();
  S->finish(); // the forwarder sends its final frame + EOF here
  auto *Forward =
      static_cast<tools::StreamForwardTool *>(S->tool("stream_forward"));
  EXPECT_NE(Forward, nullptr);
  return Forward ? Forward->writerStats().Events : 0;
}

TEST(AggregatorTest, PerTenantReportsByteIdenticalToSingleProcess) {
  ServeOptions Opts = makeOpts();
  Opts.SocketPath = tempPath("e2e", ".sock");
  Opts.ReportDir = tempPath("e2e_reports", "");
  Opts.Format = "json";
  Aggregator Agg(Opts);
  SessionError Err;
  ASSERT_TRUE(Agg.start(Err)) << Err.message();

  std::uint64_t SentA = runForwardingClient(Opts.SocketPath, "team-a");
  std::uint64_t SentB = runForwardingClient(Opts.SocketPath, "team-b");
  EXPECT_GT(SentA, 0u);
  EXPECT_EQ(SentA, SentB);

  Agg.requestStop();
  Agg.wait();
  AggregatorStats Stats = Agg.stats();
  EXPECT_EQ(Stats.ConnectionsAccepted, 2u);
  EXPECT_EQ(Stats.CleanStreams, 2u);
  EXPECT_EQ(Stats.CorruptStreams, 0u);

  // The comparator: the same workload, same tool, no forwarding.
  std::unique_ptr<Session> Ref = SessionBuilder()
                                     .tool("kernel_frequency")
                                     .backend("cs-gpu")
                                     .model("alexnet")
                                     .build(Err);
  ASSERT_NE(Ref, nullptr) << Err.message();
  Ref->run();
  JsonReportSink RefSink;
  Ref->writeReports(RefSink);

  for (const char *TenantName : {"team-a", "team-b"}) {
    std::vector<unsigned char> FileBytes = readFileBytes(
        Opts.ReportDir + "/" + TenantName + std::string(".json"));
    std::string FileText(FileBytes.begin(), FileBytes.end());
    EXPECT_EQ(FileText, RefSink.str()) << "tenant " << TenantName;
  }
}

TEST(AggregatorTest, TwoClientsOneTenantMergeAdditively) {
  ServeOptions Opts = makeOpts();
  Opts.SocketPath = tempPath("merge", ".sock");
  Opts.ReportDir = tempPath("merge_reports", "");
  Aggregator Agg(Opts);
  SessionError Err;
  ASSERT_TRUE(Agg.start(Err)) << Err.message();

  std::uint64_t Sent1 = runForwardingClient(Opts.SocketPath, "shared");
  std::uint64_t Sent2 = runForwardingClient(Opts.SocketPath, "shared");

  Agg.requestStop();
  Agg.wait();

  Tenant *Shared = Agg.registry().getOrCreate("shared", Err);
  ASSERT_NE(Shared, nullptr);
  EXPECT_EQ(Shared->stats().Connections, 2u);
  EXPECT_EQ(Shared->stats().CleanStreams, 2u);
  EXPECT_EQ(Shared->stats().EventsAdmitted, Sent1 + Sent2);
}

TEST(AggregatorTest, RequestStopDrainsInFlightConnection) {
  ServeOptions Opts = makeOpts();
  Opts.SocketPath = tempPath("drain", ".sock");
  Opts.ReportDir = tempPath("drain_reports", "");
  Aggregator Agg(Opts);
  SessionError Err;
  ASSERT_TRUE(Agg.start(Err)) << Err.message();

  // A client that connected and sent a partial stream, then stalled
  // (never finishes, never closes) — the SIGTERM scenario.
  TraceStreamSink Sink;
  ASSERT_TRUE(Sink.connect(Opts.SocketPath, "stalled", Err))
      << Err.message();
  Sink.setFlushThreshold(1); // every write becomes a frame immediately
  std::string Stream = traceBytes(makeEvents(9));
  std::string Partial = Stream.substr(0, Stream.size() - 10);
  ASSERT_TRUE(Sink.write(Partial.data(), Partial.size()));

  // Wait until the daemon has accepted the connection.
  for (int Tries = 0; Tries < 500; ++Tries) {
    if (Agg.stats().ConnectionsAccepted == 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(Agg.stats().ConnectionsAccepted, 1u);

  // SIGTERM-style stop: wait() must return even though the client never
  // finished, and the socket file must be gone afterwards.
  Agg.requestStop();
  Agg.wait();
  AggregatorStats Stats = Agg.stats();
  EXPECT_EQ(Stats.ConnectionsAccepted, 1u);
  EXPECT_EQ(Stats.CleanStreams, 0u);
  EXPECT_NE(::access(Opts.SocketPath.c_str(), F_OK), 0)
      << "socket file survived shutdown";
}

//===----------------------------------------------------------------------===//
// Aggregator: fault tolerance, quotas, control verbs
//===----------------------------------------------------------------------===//

TEST(AggregatorTest, DaemonRestartMidStreamByteIdenticalReport) {
  // The headline fault-tolerance gate: the daemon is stopped mid-stream
  // (all stream state lost), a fresh daemon takes over the same socket,
  // and the client's spill-buffer replay still yields a merged report
  // byte-identical to an uninterrupted run.
  std::string Socket = tempPath("restart", ".sock");
  std::vector<Event> Events = makeEvents(42);
  std::string Stream = traceBytes(Events);

  ServeOptions OptsA = makeOpts();
  OptsA.SocketPath = Socket;
  OptsA.ReportDir = tempPath("restart_a", "");
  OptsA.Format = "json";
  auto AggA = std::make_unique<Aggregator>(OptsA);
  SessionError Err;
  ASSERT_TRUE(AggA->start(Err)) << Err.message();

  StreamClientOptions ClientOpts;
  ClientOpts.Reconnect = true;
  ClientOpts.ReconnectMax = 1000;
  TraceStreamSink Sink;
  Sink.setOptions(ClientOpts);
  ASSERT_TRUE(Sink.connect(Socket, "phoenix", Err)) << Err.message();
  Sink.setFlushThreshold(64);

  std::size_t Half = Stream.size() / 2;
  ASSERT_TRUE(Sink.write(Stream.data(), Half));

  // Kill the daemon. Everything it knew about the stream dies with it.
  AggA->requestStop();
  AggA->wait();
  AggA.reset();

  // Writes during the outage land in the spill buffer.
  std::size_t Pos = Half;
  std::size_t Quarter = Stream.size() / 4;
  std::size_t OutageLen = std::min(Quarter, Stream.size() - Pos);
  ASSERT_TRUE(Sink.write(Stream.data() + Pos, OutageLen));
  Pos += OutageLen;

  ServeOptions OptsB = OptsA;
  OptsB.ReportDir = tempPath("restart_b", "");
  Aggregator AggB(OptsB);
  ASSERT_TRUE(AggB.start(Err)) << Err.message();

  while (Pos < Stream.size()) {
    std::size_t Len = std::min<std::size_t>(128, Stream.size() - Pos);
    ASSERT_TRUE(Sink.write(Stream.data() + Pos, Len));
    Pos += Len;
  }
  // finish() drives the reconnect + full replay (the fresh daemon's
  // Resume watermark is 0) and waits for the final ack.
  ASSERT_TRUE(Sink.finish(Err)) << Err.message();
  EXPECT_GE(Sink.stats().Reconnects, 1u);
  EXPECT_GT(Sink.stats().FramesReplayed, 0u);

  AggB.requestStop();
  AggB.wait();
  EXPECT_EQ(AggB.stats().CleanStreams, 1u);
  EXPECT_EQ(AggB.stats().CorruptStreams, 0u);
  std::vector<unsigned char> FileBytes =
      readFileBytes(OptsB.ReportDir + "/phoenix.json");
  std::string FileText(FileBytes.begin(), FileBytes.end());
  EXPECT_EQ(FileText, directAdmissionJson(Events));
}

TEST(AggregatorTest, IdleTimeoutSalvagesPartialStream) {
  ServeOptions Opts = makeOpts();
  Opts.SocketPath = tempPath("idle", ".sock");
  Opts.ReportDir = tempPath("idle_reports", "");
  Opts.IdleTimeoutSeconds = 0.1;
  Aggregator Agg(Opts);
  SessionError Err;
  ASSERT_TRUE(Agg.start(Err)) << Err.message();

  // Half a stream, then silence: the daemon must not hold the
  // connection slot forever, and must keep the salvaged prefix.
  TraceStreamSink Sink;
  ASSERT_TRUE(Sink.connect(Opts.SocketPath, "sleepy", Err))
      << Err.message();
  Sink.setFlushThreshold(1);
  std::string Stream = traceBytes(makeEvents(12));
  ASSERT_TRUE(Sink.write(Stream.data(), Stream.size() / 2));

  for (int Tries = 0;
       Tries < 2500 && Agg.stats().SuspendedStreams == 0; ++Tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(Agg.stats().SuspendedStreams, 1u);

  SessionError FindErr;
  Tenant *T = Agg.registry().getOrCreate("sleepy", FindErr);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->stats().TimedOutStreams, 1u);
  EXPECT_EQ(T->stats().CorruptStreams, 0u);
  EXPECT_GT(T->stats().EventsAdmitted, 0u) << "partial stream not salvaged";
  Agg.requestStop();
  Agg.wait();
}

TEST(AggregatorTest, UnknownControlVerbAnswersWithStatusLine) {
  // A verb the daemon does not know (here the lane-resize request of an
  // older daemon) answers with a status line and leaves it serving.
  ServeOptions Opts = makeOpts();
  Opts.SocketPath = tempPath("verbs", ".sock");
  Opts.ReportDir = tempPath("verbs_reports", "");
  Aggregator Agg(Opts);
  SessionError Err;
  ASSERT_TRUE(Agg.start(Err)) << Err.message();
  EXPECT_GT(runForwardingClient(Opts.SocketPath, "pool"), 0u);
  Tenant *T = Agg.registry().find("pool");
  ASSERT_NE(T, nullptr);

  std::string Response;
  SessionError VerbErr;
  EXPECT_FALSE(sendControlCommand(Opts.SocketPath, "set-lanes pool 2",
                                  Response, VerbErr));
  EXPECT_NE(VerbErr.message().find("unknown control verb"),
            std::string::npos)
      << VerbErr.message();

  ASSERT_TRUE(
      sendControlCommand(Opts.SocketPath, "list-tenants", Response, Err))
      << Err.message();
  EXPECT_NE(Response.find("pool"), std::string::npos) << Response;
  Agg.requestStop();
  Agg.wait();
}

TEST(AggregatorTest, QuotaPolicyValidatedAtStart) {
  ServeOptions Opts = makeOpts();
  Opts.SocketPath = tempPath("policy", ".sock");
  Opts.QuotaPolicy = "bogus";
  Aggregator Agg(Opts);
  SessionError Err;
  EXPECT_FALSE(Agg.start(Err));
  EXPECT_NE(Err.message().find("quota-policy"), std::string::npos)
      << Err.message();
}

TEST(StreamClientOptionsTest, FromEnvOverridesDefaults) {
  setEnvOverride("PASTA_CONNECT_TIMEOUT", "2.5");
  setEnvOverride("PASTA_CONNECT_RETRIES", "3");
  setEnvOverride("PASTA_RECONNECT", "1");
  setEnvOverride("PASTA_RECONNECT_MAX", "17");
  setEnvOverride("PASTA_SPILL_MAX_BYTES", "1048576");
  StreamClientOptions O = StreamClientOptions::fromEnv();
  clearEnvOverride("PASTA_CONNECT_TIMEOUT");
  clearEnvOverride("PASTA_CONNECT_RETRIES");
  clearEnvOverride("PASTA_RECONNECT");
  clearEnvOverride("PASTA_RECONNECT_MAX");
  clearEnvOverride("PASTA_SPILL_MAX_BYTES");
  EXPECT_EQ(O.ConnectTimeoutSeconds, 2.5);
  EXPECT_EQ(O.ConnectRetries, 3);
  EXPECT_TRUE(O.Reconnect);
  EXPECT_EQ(O.ReconnectMax, 17);
  EXPECT_EQ(O.SpillMaxBytes, 1048576u);

  StreamClientOptions Defaults = StreamClientOptions::fromEnv();
  EXPECT_EQ(Defaults.ConnectTimeoutSeconds, 5.0);
  EXPECT_EQ(Defaults.ConnectRetries, 0);
  EXPECT_FALSE(Defaults.Reconnect);
}

TEST(StreamClientOptionsTest, OutOfRangeEnvKeepsDefaults) {
  // The matching driver flags reject these values; the environment
  // must not smuggle them in (-1 would become an unbounded spill
  // budget, 0 a reconnect loop that gives up at once).
  const StreamClientOptions Defaults;
  auto Resolve = [](const char *Name, const char *Value) {
    setEnvOverride(Name, Value);
    StreamClientOptions O = StreamClientOptions::fromEnv();
    clearEnvOverride(Name);
    return O;
  };
  EXPECT_EQ(Resolve("PASTA_SPILL_MAX_BYTES", "-1").SpillMaxBytes,
            Defaults.SpillMaxBytes);
  EXPECT_EQ(Resolve("PASTA_SPILL_MAX_BYTES", "0").SpillMaxBytes,
            Defaults.SpillMaxBytes);
  EXPECT_EQ(Resolve("PASTA_RECONNECT_MAX", "0").ReconnectMax,
            Defaults.ReconnectMax);
  EXPECT_EQ(Resolve("PASTA_RECONNECT_MAX", "1001").ReconnectMax,
            Defaults.ReconnectMax);
  EXPECT_EQ(Resolve("PASTA_CONNECT_RETRIES", "-1").ConnectRetries,
            Defaults.ConnectRetries);
  // The range ends are accepted.
  EXPECT_EQ(Resolve("PASTA_SPILL_MAX_BYTES", "1").SpillMaxBytes, 1u);
  EXPECT_EQ(Resolve("PASTA_RECONNECT_MAX", "1000").ReconnectMax, 1000);
  EXPECT_EQ(Resolve("PASTA_CONNECT_RETRIES", "0").ConnectRetries, 0);
}

//===----------------------------------------------------------------------===//
// SpillBuffer (the client's in-memory retained-frame buffer)
//===----------------------------------------------------------------------===//

namespace {

/// The sequences \p Buffer would replay from \p From.
std::vector<std::uint64_t> retainedFrom(const SpillBuffer &Buffer,
                                        std::uint64_t From) {
  std::vector<std::uint64_t> Seqs;
  Buffer.forEachFrom(From, [&](std::uint64_t Seq, std::uint32_t,
                               const std::string &) {
    Seqs.push_back(Seq);
    return true;
  });
  return Seqs;
}

} // namespace

TEST(SpillBufferTest, EvictsAckedFramesOldestFirst) {
  SpillBuffer Buffer;
  Buffer.configure(30);
  for (std::uint64_t Seq = 0; Seq < 3; ++Seq)
    ASSERT_TRUE(Buffer.append(Seq, 10, std::string(10, 'a')));
  EXPECT_EQ(Buffer.bytesRetained(), 30u);
  // Acked frames stay retained until the budget needs their room.
  Buffer.ack(2);
  EXPECT_EQ(retainedFrom(Buffer, 0), (std::vector<std::uint64_t>{0, 1, 2}));
  ASSERT_TRUE(Buffer.append(3, 10, std::string(10, 'b')));
  EXPECT_EQ(retainedFrom(Buffer, 0), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(Buffer.firstRetained(4), 1u);
  // A frame needing two slots evicts the last acked frame, then finds
  // unacked frame 2 at the front and cannot evict it.
  EXPECT_FALSE(Buffer.append(4, 20, std::string(20, 'c')));
  EXPECT_EQ(retainedFrom(Buffer, 0), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(Buffer.bytesRetained(), 20u);
}

TEST(SpillBufferTest, RefusesFrameWhenUnackedFramesFillTheBudget) {
  SpillBuffer Buffer;
  Buffer.configure(25);
  ASSERT_TRUE(Buffer.append(0, 10, std::string(10, 'a')));
  ASSERT_TRUE(Buffer.append(1, 10, std::string(10, 'b')));
  EXPECT_FALSE(Buffer.append(2, 10, std::string(10, 'c')));
  EXPECT_EQ(Buffer.bytesRetained(), 20u);
  EXPECT_EQ(retainedFrom(Buffer, 0), (std::vector<std::uint64_t>{0, 1}));
  // A frame larger than the whole budget is refused even when empty.
  SpillBuffer Tiny;
  Tiny.configure(4);
  EXPECT_FALSE(Tiny.append(0, 5, "12345"));
  EXPECT_TRUE(Tiny.empty());
}

TEST(SpillBufferTest, ForEachFromReplaysInOrderAndStopsEarly) {
  SpillBuffer Buffer;
  for (std::uint64_t Seq = 0; Seq < 5; ++Seq)
    ASSERT_TRUE(Buffer.append(Seq, static_cast<std::uint32_t>(Seq) | 0x100,
                              "frame" + std::to_string(Seq)));
  std::vector<std::string> Seen;
  bool Completed = Buffer.forEachFrom(
      2, [&](std::uint64_t Seq, std::uint32_t LenWord,
             const std::string &Payload) {
        EXPECT_EQ(LenWord, static_cast<std::uint32_t>(Seq) | 0x100);
        Seen.push_back(Payload);
        return true;
      });
  EXPECT_TRUE(Completed);
  EXPECT_EQ(Seen, (std::vector<std::string>{"frame2", "frame3", "frame4"}));

  std::vector<std::uint64_t> Stopped;
  Completed = Buffer.forEachFrom(
      1, [&](std::uint64_t Seq, std::uint32_t, const std::string &) {
        Stopped.push_back(Seq);
        return Seq < 2;
      });
  EXPECT_FALSE(Completed);
  EXPECT_EQ(Stopped, (std::vector<std::uint64_t>{1, 2}));
}

TEST(SpillBufferTest, ClearDropsEveryFrame) {
  SpillBuffer Buffer;
  ASSERT_TRUE(Buffer.append(7, 3, "abc"));
  ASSERT_TRUE(Buffer.append(8, 3, "def"));
  Buffer.clear();
  EXPECT_TRUE(Buffer.empty());
  EXPECT_EQ(Buffer.bytesRetained(), 0u);
  EXPECT_EQ(Buffer.firstRetained(9), 9u);
  EXPECT_TRUE(retainedFrom(Buffer, 0).empty());
}

//===----------------------------------------------------------------------===//
// Session/builder integration
//===----------------------------------------------------------------------===//

TEST(ServeSessionTest, TenantWithoutConnectRejected) {
  SessionError Err;
  EXPECT_EQ(SessionBuilder().model("alexnet").tenant("team-a").build(Err),
            nullptr);
  EXPECT_NE(Err.message().find("--connect"), std::string::npos)
      << Err.message();
}

TEST(ServeSessionTest, InvalidTenantNameRejected) {
  SessionError Err;
  EXPECT_EQ(SessionBuilder()
                .model("alexnet")
                .connect("/tmp/ignored.sock")
                .tenant("bad tenant!")
                .build(Err),
            nullptr);
  EXPECT_NE(Err.message().find("invalid tenant name"), std::string::npos)
      << Err.message();
}

TEST(ServeSessionTest, DeadAggregatorFailsAtBuildTime) {
  std::string Missing = tempPath("nobody_listening", ".sock");
  SessionError Err;
  EXPECT_EQ(SessionBuilder()
                .tool("kernel_frequency")
                .model("alexnet")
                .connect(Missing)
                .build(Err),
            nullptr);
  EXPECT_NE(Err.message().find(Missing), std::string::npos)
      << Err.message();
}

TEST(ServeSessionTest, RegistryForwarderWithoutSocketRunsUnstreamed) {
  // "-t stream_forward" with no PASTA_CONNECT: warn once, profile
  // normally — losing the aggregator never kills the workload.
  ::unsetenv("PASTA_CONNECT");
  ::unsetenv("PASTA_TENANT");
  SessionError Err;
  std::unique_ptr<Session> S = SessionBuilder()
                                   .tool("stream_forward")
                                   .backend("cs-gpu")
                                   .model("alexnet")
                                   .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();
  SessionResult Result = S->run();
  EXPECT_GT(Result.Stats.KernelsLaunched, 0u);
  auto *Forward =
      static_cast<tools::StreamForwardTool *>(S->tool("stream_forward"));
  ASSERT_NE(Forward, nullptr);
  EXPECT_EQ(Forward->writerStats().Events, 0u);
}

TEST(ServeSessionTest, FailedReconnectStreamWarnsTruncatedAtFinish) {
  // A 1-byte spill budget cannot retain a frame, so the reconnect
  // forwarder loses its resume; when the daemon then stops mid-stream
  // the sink fails for good and closes its socket. onFinish must still
  // warn that the aggregator saw a truncated stream.
  setLogLevel(LogLevel::Warning);
  ServeOptions Opts = makeOpts();
  Opts.SocketPath = tempPath("truncated", ".sock");
  Opts.ReportDir = tempPath("truncated_reports", "");
  auto Agg = std::make_unique<Aggregator>(Opts);
  SessionError Err;
  ASSERT_TRUE(Agg->start(Err)) << Err.message();

  StreamClientOptions ClientOpts;
  ClientOpts.Reconnect = true;
  ClientOpts.SpillMaxBytes = 1;
  tools::StreamForwardTool Forward(Opts.SocketPath, "truncated");
  Forward.setClientOptions(ClientOpts);
  ASSERT_TRUE(Forward.openNow(Err)) << Err.message();
  // Each half is several ~32 KiB frames, so the sink sends (and fails
  // to spill) before the stop and notices the dead peer after it.
  std::vector<Event> Events = makeEvents(4000);
  std::size_t Half = Events.size() / 2;
  ::testing::internal::CaptureStderr();
  for (std::size_t I = 0; I < Half; ++I)
    Forward.onEvent(Events[I]);
  // The overflow warning names the budget the spill buffer applies and
  // the refused frame (a full 32 KiB coalesced frame), not the 0 bytes
  // it holds.
  std::string Overflow = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(Overflow.find("spill buffer overflow"), std::string::npos)
      << Overflow;
  EXPECT_NE(Overflow.find("the 1-byte budget"), std::string::npos)
      << Overflow;
  EXPECT_NE(Overflow.find(std::to_string(32 * 1024) + "-byte frame"),
            std::string::npos)
      << Overflow;
  Agg->requestStop();
  Agg->wait();
  Agg.reset();
  for (std::size_t I = Half; I < Events.size(); ++I)
    Forward.onEvent(Events[I]);

  ::testing::internal::CaptureStderr();
  Forward.onFinish();
  std::string Said = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(Said.find("truncated"), std::string::npos) << Said;

  // A forwarder that never connected already warned at onStart.
  ClientOpts.ConnectTimeoutSeconds = 0.1;
  tools::StreamForwardTool Orphan(tempPath("nobody_listening", ".sock"),
                                  "orphan");
  Orphan.setClientOptions(ClientOpts);
  Orphan.onStart();
  ::testing::internal::CaptureStderr();
  Orphan.onFinish();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(ServeSessionTest, AggregatorRejectsUnknownToolAtStart) {
  ServeOptions Opts;
  Opts.SocketPath = tempPath("badtool", ".sock");
  Opts.ToolNames = {"no_such_tool"};
  Aggregator Agg(Opts);
  SessionError Err;
  EXPECT_FALSE(Agg.start(Err));
  EXPECT_NE(Err.message().find("no_such_tool"), std::string::npos)
      << Err.message();
}

} // namespace
