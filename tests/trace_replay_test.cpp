//===- tests/trace_replay_test.cpp - binary trace capture + replay --------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The capture-once, analyze-anywhere subsystem: the binary trace format
// (writer/reader field round-trips, payload-table deduplication), its
// robustness contract (bit-flipped headers and truncated records fail
// with a SessionError naming file and offset — never a crash, never a
// silent partial replay), and the replay backend's determinism contract
// (for every registered tool, a replayed capture produces byte-identical
// JSON reports and identical ProcessorStats to the live session, and a
// capture taken *during* replay is byte-identical to the original
// trace).
//
//===----------------------------------------------------------------------===//

#include "pasta/Backend.h"
#include "pasta/EventProcessor.h"
#include "pasta/Session.h"
#include "pasta/TraceEventHead.h"
#include "pasta/TraceFormat.h"
#include "pasta/TraceReader.h"
#include "pasta/TraceWriter.h"
#include "support/Env.h"
#include "support/ReportSink.h"
#include "tools/RegisterTools.h"
#include "tools/TraceCaptureTool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace pasta;

namespace {

/// Unique-ish path under the gtest temp dir (tests run in one process,
/// so a per-call counter suffices; files are small and overwritten).
std::string tempTracePath(const std::string &Stem) {
  static int Counter = 0;
  return ::testing::TempDir() + "pasta_" + Stem + "_" +
         std::to_string(++Counter) + ".trace";
}

std::vector<unsigned char> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(In),
                                    std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path,
                    const std::vector<unsigned char> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

sim::KernelDesc makeKernel(const std::string &Name) {
  sim::KernelDesc K;
  K.Name = Name;
  K.Grid = {8, 4, 2};
  K.Block = {128, 1, 1};
  K.Flops = 123456.5;
  K.ComputeInstrsPerAccess = 2.25;
  K.StaticInstrs = 4096;
  K.BarriersPerBlock = 3;
  K.SharedMemPerBlock = 16384;
  sim::AccessSegment Load;
  Load.Base = 0x1000;
  Load.Extent = 0x2000;
  Load.AccessBytes = 1 << 20;
  Load.Kind = sim::AccessKind::Load;
  Load.Space = sim::MemSpace::Global;
  sim::AccessSegment Store;
  Store.Base = 0x8000;
  Store.Extent = 0x400;
  Store.AccessBytes = 1 << 16;
  Store.Kind = sim::AccessKind::Store;
  Store.Space = sim::MemSpace::Shared;
  K.Segments = {Load, Store};
  return K;
}

dl::TensorInfo makeTensor() {
  dl::TensorInfo T;
  T.Id = 42;
  T.Name = "activations.0";
  T.Shape = dl::TensorShape({8, 3, 224, 224});
  T.Address = 0xdead000;
  T.DeviceIndex = 1;
  return T;
}

/// A small but payload-rich stream touching every field the format
/// serializes: kernels (with segments), tensors, strings and stacks,
/// with deliberate repetition so dedup has something to do.
std::vector<Event> makeRichStream(std::size_t Count) {
  std::vector<Event> Events;
  sim::KernelDesc K1 = makeKernel("gemm_kernel");
  sim::KernelDesc K2 = makeKernel("conv_kernel");
  dl::TensorInfo T = makeTensor();
  for (std::size_t I = 0; I < Count; ++I) {
    Event E;
    switch (I % 4) {
    case 0:
      E.Kind = EventKind::KernelLaunch;
      E.GridId = I + 1;
      E.Stream = static_cast<std::uint32_t>(I % 3);
      E.adoptKernel(
          std::make_shared<const sim::KernelDesc>(I % 8 == 0 ? K2 : K1));
      break;
    case 1:
      E.Kind = EventKind::OperatorStart;
      E.OpName = I % 8 == 1 ? "aten::conv2d" : "aten::mm";
      E.LayerName = "layer" + std::to_string(I % 5);
      E.PythonStack = {"train.py:42 step", "model.py:7 forward"};
      E.Phase = dl::ExecPhase::Forward;
      break;
    case 2:
      E.Kind = EventKind::TensorAlloc;
      E.adoptTensor(std::make_shared<const dl::TensorInfo>(T));
      E.Bytes = 4 * 8 * 3 * 224 * 224;
      E.PoolAllocated = 1 << 20;
      E.PoolReserved = 1 << 22;
      break;
    default:
      E.Kind = EventKind::MemoryCopy;
      E.Address = 0x1000 * I;
      E.Bytes = 256 + I;
      E.Managed = I % 2 != 0;
      E.Direction = CopyDirection::DeviceToHost;
      break;
    }
    E.Timestamp = 1000 * I;
    E.DeviceIndex = static_cast<int>(I % 2);
    Events.push_back(std::move(E));
  }
  return Events;
}

/// Writes \p Events to a fresh trace at \p Path; asserts success.
TraceWriterStats writeTrace(const std::string &Path,
                            const std::vector<Event> &Events) {
  TraceWriter Writer;
  SessionError Err;
  EXPECT_TRUE(Writer.open(Path, Err)) << Err.message();
  for (const Event &E : Events)
    Writer.append(E);
  EXPECT_TRUE(Writer.finalize(Err)) << Err.message();
  return Writer.stats();
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceFormatTest: writer/reader round trips
//===----------------------------------------------------------------------===//

TEST(TraceFormatTest, ByteReaderRoundTripsEveryFieldType) {
  std::string Buf;
  trace::appendU8(Buf, 0xab);
  trace::appendU32(Buf, 0xdeadbeef);
  trace::appendU64(Buf, 0x0123456789abcdefull);
  trace::appendI32(Buf, -42);
  trace::appendI64(Buf, -1234567890123ll);
  trace::appendF64(Buf, -2.5e300);
  trace::appendString(Buf, "payload");

  trace::ByteReader Reader(
      reinterpret_cast<const unsigned char *>(Buf.data()), Buf.size());
  std::uint8_t U8 = 0;
  std::uint32_t U32 = 0;
  std::uint64_t U64 = 0;
  std::int32_t I32 = 0;
  std::int64_t I64 = 0;
  double F64 = 0;
  std::string Str;
  EXPECT_TRUE(Reader.readU8(U8));
  EXPECT_TRUE(Reader.readU32(U32));
  EXPECT_TRUE(Reader.readU64(U64));
  EXPECT_TRUE(Reader.readI32(I32));
  EXPECT_TRUE(Reader.readI64(I64));
  EXPECT_TRUE(Reader.readF64(F64));
  EXPECT_TRUE(Reader.readString(Str));
  EXPECT_TRUE(Reader.atEnd());
  EXPECT_EQ(U8, 0xab);
  EXPECT_EQ(U32, 0xdeadbeefu);
  EXPECT_EQ(U64, 0x0123456789abcdefull);
  EXPECT_EQ(I32, -42);
  EXPECT_EQ(I64, -1234567890123ll);
  EXPECT_EQ(F64, -2.5e300);
  EXPECT_EQ(Str, "payload");

  // A failed read leaves the cursor untouched.
  std::uint64_t Tail = 0;
  std::size_t Mark = Reader.pos();
  EXPECT_FALSE(Reader.readU64(Tail));
  EXPECT_EQ(Reader.pos(), Mark);
}

TEST(TraceFormatTest, WriterReaderRoundTripPreservesEveryField) {
  std::string Path = tempTracePath("roundtrip");
  std::vector<Event> Sent = makeRichStream(32);
  writeTrace(Path, Sent);

  TraceReader Reader;
  SessionError Err;
  ASSERT_TRUE(Reader.open(Path, Err)) << Err.message();
  EXPECT_EQ(Reader.info().Events, Sent.size());
  EXPECT_EQ(Reader.info().FirstTimestamp, Sent.front().Timestamp);
  EXPECT_EQ(Reader.info().LastTimestamp, Sent.back().Timestamp);
  EXPECT_EQ(Reader.info().KernelLaunches, Sent.size() / 4);

  std::vector<Event> Got;
  Reader.forEachEvent(nullptr, [&](Event &E) { Got.push_back(E); });
  ASSERT_EQ(Got.size(), Sent.size());
  for (std::size_t I = 0; I < Sent.size(); ++I) {
    const Event &A = Sent[I];
    const Event &B = Got[I];
    EXPECT_EQ(A.Kind, B.Kind) << "event " << I;
    EXPECT_EQ(A.Vendor, B.Vendor);
    EXPECT_EQ(A.DeviceIndex, B.DeviceIndex);
    EXPECT_EQ(A.Stream, B.Stream);
    EXPECT_EQ(A.Timestamp, B.Timestamp);
    EXPECT_EQ(A.Address, B.Address);
    EXPECT_EQ(A.Bytes, B.Bytes);
    EXPECT_EQ(A.Managed, B.Managed);
    EXPECT_EQ(A.Direction, B.Direction);
    EXPECT_EQ(A.GridId, B.GridId);
    EXPECT_EQ(A.PoolAllocated, B.PoolAllocated);
    EXPECT_EQ(A.PoolReserved, B.PoolReserved);
    EXPECT_EQ(A.Phase, B.Phase);
    EXPECT_EQ(A.OpName, B.OpName);
    EXPECT_EQ(A.LayerName, B.LayerName);
    EXPECT_EQ(A.PythonStack, B.PythonStack);
    ASSERT_EQ(A.Kernel != nullptr, B.Kernel != nullptr);
    if (A.Kernel) {
      EXPECT_EQ(A.Kernel->Name, B.Kernel->Name);
      EXPECT_EQ(A.Kernel->Grid.X, B.Kernel->Grid.X);
      EXPECT_EQ(A.Kernel->Block.X, B.Kernel->Block.X);
      EXPECT_EQ(A.Kernel->Flops, B.Kernel->Flops);
      EXPECT_EQ(A.Kernel->StaticInstrs, B.Kernel->StaticInstrs);
      EXPECT_EQ(A.Kernel->BarriersPerBlock, B.Kernel->BarriersPerBlock);
      EXPECT_EQ(A.Kernel->SharedMemPerBlock, B.Kernel->SharedMemPerBlock);
      ASSERT_EQ(A.Kernel->Segments.size(), B.Kernel->Segments.size());
      for (std::size_t S = 0; S < A.Kernel->Segments.size(); ++S) {
        EXPECT_EQ(A.Kernel->Segments[S].Base, B.Kernel->Segments[S].Base);
        EXPECT_EQ(A.Kernel->Segments[S].Extent,
                  B.Kernel->Segments[S].Extent);
        EXPECT_EQ(A.Kernel->Segments[S].AccessBytes,
                  B.Kernel->Segments[S].AccessBytes);
        EXPECT_EQ(A.Kernel->Segments[S].Kind, B.Kernel->Segments[S].Kind);
        EXPECT_EQ(A.Kernel->Segments[S].Space,
                  B.Kernel->Segments[S].Space);
      }
    }
    ASSERT_EQ(A.Tensor != nullptr, B.Tensor != nullptr);
    if (A.Tensor) {
      EXPECT_EQ(A.Tensor->Id, B.Tensor->Id);
      EXPECT_EQ(A.Tensor->Name, B.Tensor->Name);
      EXPECT_EQ(A.Tensor->Shape.dims(), B.Tensor->Shape.dims());
      EXPECT_EQ(A.Tensor->Type, B.Tensor->Type);
      EXPECT_EQ(A.Tensor->Role, B.Tensor->Role);
      EXPECT_EQ(A.Tensor->Address, B.Tensor->Address);
      EXPECT_EQ(A.Tensor->DeviceIndex, B.Tensor->DeviceIndex);
    }
  }
}

TEST(TraceFormatTest, PayloadTablesDeduplicateRepeatedContent) {
  std::string Path = tempTracePath("dedup");
  TraceWriterStats Stats = writeTrace(Path, makeRichStream(64));
  // 64 events -> 16 of each class; distinct payloads are tiny: two
  // kernels, two op names + five layer names, one stack.
  EXPECT_EQ(Stats.Events, 64u);
  EXPECT_EQ(Stats.Kernels, 2u);
  EXPECT_EQ(Stats.Strings, 7u);
  EXPECT_EQ(Stats.Stacks, 1u);
  EXPECT_GT(Stats.PayloadHits, 0u);
  EXPECT_EQ(Stats.PayloadRefs - Stats.PayloadHits,
            Stats.Kernels + Stats.Strings + Stats.Stacks);

  TraceReader Reader;
  SessionError Err;
  ASSERT_TRUE(Reader.open(Path, Err)) << Err.message();
  EXPECT_EQ(Reader.info().Kernels, 2u);
  EXPECT_EQ(Reader.info().Strings, 7u);
  EXPECT_EQ(Reader.info().Stacks, 1u);
}

TEST(TraceFormatTest, ReInterningYieldsCanonicalArenaHandles) {
  std::string Path = tempTracePath("intern");
  writeTrace(Path, makeRichStream(16));

  TraceReader Reader;
  SessionError Err;
  ASSERT_TRUE(Reader.open(Path, Err)) << Err.message();

  EventArena Arena;
  const std::string *FirstOpName = nullptr;
  const sim::KernelDesc *FirstKernel = nullptr;
  Reader.forEachEvent(&Arena, [&](Event &E) {
    if (E.Kind == EventKind::OperatorStart && E.OpName == "aten::mm") {
      if (!FirstOpName)
        FirstOpName = &E.OpName.str();
      else
        EXPECT_EQ(FirstOpName, &E.OpName.str()); // same allocation
    }
    if (E.Kind == EventKind::KernelLaunch && E.Kernel->Name == "gemm_kernel") {
      if (!FirstKernel)
        FirstKernel = E.Kernel;
      else
        EXPECT_EQ(FirstKernel, E.Kernel); // same canonical descriptor
    }
  });
  EXPECT_NE(FirstOpName, nullptr);
  EXPECT_NE(FirstKernel, nullptr);
}

TEST(TraceFormatTest, EmptyTraceRoundTrips) {
  std::string Path = tempTracePath("empty");
  writeTrace(Path, {});
  TraceReader Reader;
  SessionError Err;
  ASSERT_TRUE(Reader.open(Path, Err)) << Err.message();
  EXPECT_EQ(Reader.info().Events, 0u);
  std::size_t Calls = 0;
  Reader.forEachEvent(nullptr, [&](Event &) { ++Calls; });
  EXPECT_EQ(Calls, 0u);
}

TEST(TraceFormatTest, BorrowedMutableKernelAndFreshPayloadsDedupByContent) {
  // The DL executor's shape: one mutable KernelDesc rewritten for every
  // launch and passed borrowed (Event::Kernel points at it; nothing is
  // adopted), and op names and stacks built fresh for every event. The
  // writer must key by content: the pointer never changes, and no two
  // payload handles are the same allocation.
  sim::KernelDesc A = makeKernel("gemm_kernel");
  sim::KernelDesc B = makeKernel("conv_kernel");
  // C differs from A only in a field hashKernel leaves out, so the two
  // share a content hash and only the equality check tells them apart.
  sim::KernelDesc C = A;
  C.StaticInstrs = A.StaticInstrs + 1;
  ASSERT_EQ(hashKernel(A), hashKernel(C));
  const std::vector<const sim::KernelDesc *> Content = {&A, &A, &B, &A, &C};
  const std::vector<std::string> OpNames = {"aten::mm", "aten::mm",
                                            "aten::conv2d", "aten::mm",
                                            "aten::addmm"};

  std::string Path = tempTracePath("borrowed");
  TraceWriter Writer;
  SessionError Err;
  ASSERT_TRUE(Writer.open(Path, Err)) << Err.message();
  sim::KernelDesc Live;
  for (std::size_t I = 0; I < Content.size(); ++I) {
    Live = *Content[I];
    Event E;
    E.Kind = EventKind::KernelLaunch;
    E.GridId = I + 1;
    E.Kernel = &Live;
    E.OpName = PayloadString(std::string(OpNames[I]));
    E.PythonStack = PayloadStack(PayloadStack::FrameList{
        "train.py:42 step", "model.py:" + std::to_string(7 + I % 2)});
    ASSERT_EQ(E.ownedKernel(), nullptr);
    Writer.append(E);
  }
  ASSERT_TRUE(Writer.finalize(Err)) << Err.message();

  // One definition per distinct content: kernels A, B, C; op names mm,
  // conv2d, addmm; stacks ending model.py:7 and model.py:8.
  const TraceWriterStats &Stats = Writer.stats();
  EXPECT_EQ(Stats.Events, 5u);
  EXPECT_EQ(Stats.Kernels, 3u);
  EXPECT_EQ(Stats.Strings, 3u);
  EXPECT_EQ(Stats.Stacks, 2u);
  EXPECT_EQ(Stats.PayloadRefs, 15u);
  EXPECT_EQ(Stats.PayloadHits, 15u - 3u - 3u - 2u);

  TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path, Err)) << Err.message();
  EXPECT_EQ(Reader.info().Kernels, 3u);
  EXPECT_EQ(Reader.info().Strings, 3u);
  EXPECT_EQ(Reader.info().Stacks, 2u);
  std::vector<Event> Got;
  Reader.forEachEvent(nullptr, [&](Event &E) { Got.push_back(E); });
  ASSERT_EQ(Got.size(), Content.size());
  for (std::size_t I = 0; I < Got.size(); ++I) {
    ASSERT_NE(Got[I].Kernel, nullptr);
    EXPECT_TRUE(kernelEqual(*Got[I].Kernel, *Content[I])) << "event " << I;
    EXPECT_EQ(Got[I].OpName, OpNames[I]);
    EXPECT_EQ(Got[I].PythonStack[1], "model.py:" + std::to_string(7 + I % 2));
  }
  // Repeats reuse the first id: the reader hands out one table entry
  // per id, so a reused id is a shared descriptor or string.
  EXPECT_EQ(Got[1].Kernel, Got[0].Kernel);
  EXPECT_EQ(Got[3].Kernel, Got[0].Kernel);
  EXPECT_NE(Got[2].Kernel, Got[0].Kernel);
  EXPECT_NE(Got[4].Kernel, Got[0].Kernel);
  EXPECT_TRUE(Got[3].OpName.sharesStorageWith(Got[0].OpName));
  EXPECT_TRUE(Got[4].PythonStack.sharesStorageWith(Got[0].PythonStack));
  EXPECT_FALSE(Got[1].PythonStack.sharesStorageWith(Got[0].PythonStack));
}

//===----------------------------------------------------------------------===//
// TraceRobustnessTest: corruption, truncation, version mismatch
//===----------------------------------------------------------------------===//

TEST(TraceRobustnessTest, MissingFileFailsWithDiagnostic) {
  TraceReader Reader;
  SessionError Err;
  EXPECT_FALSE(Reader.open("/no/such/dir/missing.trace", Err));
  EXPECT_NE(Err.message().find("missing.trace"), std::string::npos);
  EXPECT_FALSE(Reader.isOpen());
}

TEST(TraceRobustnessTest, HeaderBitFlipFuzzNeverCrashesOrLoads) {
  std::string Path = tempTracePath("fuzz_src");
  writeTrace(Path, makeRichStream(8));
  std::vector<unsigned char> Pristine = readFileBytes(Path);
  ASSERT_GE(Pristine.size(), trace::HeaderSize);

  std::string Mutated = tempTracePath("fuzz_mut");
  for (std::size_t Byte = 0; Byte < trace::HeaderSize; ++Byte) {
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::vector<unsigned char> Bytes = Pristine;
      Bytes[Byte] ^= static_cast<unsigned char>(1u << Bit);
      writeFileBytes(Mutated, Bytes);

      TraceReader Reader;
      SessionError Err;
      EXPECT_FALSE(Reader.open(Mutated, Err))
          << "header byte " << Byte << " bit " << Bit
          << " flip was silently accepted";
      EXPECT_FALSE(Reader.isOpen());
      // Every diagnostic names the file; the header diagnostics also
      // name the expected magic or version.
      EXPECT_NE(Err.message().find(Mutated), std::string::npos);
      if (Byte < 8)
        EXPECT_NE(Err.message().find("PASTATRC"), std::string::npos)
            << Err.message();
      else if (Byte < 12)
        EXPECT_NE(Err.message().find("expected version 2"),
                  std::string::npos)
            << Err.message();
      else
        EXPECT_NE(Err.message().find("header flags"), std::string::npos)
            << Err.message();
    }
  }
}

TEST(TraceRobustnessTest, EveryTruncationPrefixFailsCleanly) {
  std::string Path = tempTracePath("trunc_src");
  writeTrace(Path, makeRichStream(8));
  std::vector<unsigned char> Pristine = readFileBytes(Path);

  std::string Truncated = tempTracePath("trunc_cut");
  for (std::size_t Keep = 0; Keep < Pristine.size(); ++Keep) {
    std::vector<unsigned char> Bytes(Pristine.begin(),
                                     Pristine.begin() + Keep);
    writeFileBytes(Truncated, Bytes);
    TraceReader Reader;
    SessionError Err;
    EXPECT_FALSE(Reader.open(Truncated, Err))
        << "silent partial replay: " << Keep << " of " << Pristine.size()
        << " bytes was accepted";
    EXPECT_FALSE(Err.ok());
    EXPECT_NE(Err.message().find("trace file '"), std::string::npos);
  }

  // The full file still loads — the loop above proves *only* the whole
  // file does.
  writeFileBytes(Truncated, Pristine);
  TraceReader Reader;
  SessionError Err;
  EXPECT_TRUE(Reader.open(Truncated, Err)) << Err.message();
}

TEST(TraceRobustnessTest, TruncationDiagnosticsNameOffsets) {
  std::string Path = tempTracePath("offsets");
  writeTrace(Path, makeRichStream(8));
  std::vector<unsigned char> Pristine = readFileBytes(Path);

  // Below the header: the "truncated header" diagnostic.
  writeFileBytes(Path, {Pristine.begin(), Pristine.begin() + 7});
  TraceReader Reader;
  SessionError Err;
  EXPECT_FALSE(Reader.open(Path, Err));
  EXPECT_NE(Err.message().find("truncated header: 7 bytes"),
            std::string::npos);
  EXPECT_NE(Err.message().find("expected at least 16"), std::string::npos);

  // Mid-record: the offset of the record the cut landed in.
  writeFileBytes(Path, {Pristine.begin(), Pristine.begin() + 18});
  SessionError Err2;
  EXPECT_FALSE(Reader.open(Path, Err2));
  EXPECT_NE(Err2.message().find("truncated record at offset 16"),
            std::string::npos);

  // Whole records removed: the missing-End diagnostic.
  std::vector<unsigned char> NoEnd = Pristine;
  NoEnd.resize(NoEnd.size() - (trace::RecordPrefixSize + 20)); // End record
  writeFileBytes(Path, NoEnd);
  SessionError Err3;
  EXPECT_FALSE(Reader.open(Path, Err3));
  EXPECT_NE(Err3.message().find("missing end-of-trace record"),
            std::string::npos);
}

TEST(TraceRobustnessTest, TrailingDataAfterEndIsRejected) {
  std::string Path = tempTracePath("trailing");
  writeTrace(Path, makeRichStream(4));
  std::vector<unsigned char> Bytes = readFileBytes(Path);
  std::size_t TrailOffset = Bytes.size();
  Bytes.push_back(0x00);
  writeFileBytes(Path, Bytes);

  TraceReader Reader;
  SessionError Err;
  EXPECT_FALSE(Reader.open(Path, Err));
  EXPECT_NE(Err.message().find("trailing data after end-of-trace record "
                               "at offset " +
                               std::to_string(TrailOffset)),
            std::string::npos)
      << Err.message();
}

TEST(TraceRobustnessTest, UnknownRecordTagsAreSkipped) {
  // Forward-compat within a version: an unknown tag is skippable via its
  // length prefix and must not fail the load or disturb the counts.
  std::string Body;
  trace::appendU64(Body, 0); // events
  trace::appendU32(Body, 0); // strings
  trace::appendU32(Body, 0); // stacks
  trace::appendU32(Body, 0); // kernels

  std::string Bytes;
  Bytes.append(trace::Magic, sizeof(trace::Magic));
  trace::appendU32(Bytes, trace::Version);
  trace::appendU32(Bytes, trace::HeaderFlags);
  trace::appendU8(Bytes, 0x7f); // unknown tag
  trace::appendU32(Bytes, 3);
  Bytes.append("xyz", 3);
  trace::appendU8(Bytes, static_cast<std::uint8_t>(trace::RecordTag::End));
  trace::appendU32(Bytes, static_cast<std::uint32_t>(Body.size()));
  Bytes.append(Body);

  std::string Path = tempTracePath("unknown_tag");
  writeFileBytes(Path, std::vector<unsigned char>(Bytes.begin(), Bytes.end()));
  TraceReader Reader;
  SessionError Err;
  EXPECT_TRUE(Reader.open(Path, Err)) << Err.message();
  EXPECT_EQ(Reader.info().Events, 0u);
}

TEST(TraceRobustnessTest, EndCountMismatchIsRejected) {
  // A corrupted-away event record cannot pass unnoticed: the End
  // record's declared counts are cross-checked against what was read.
  std::string Path = tempTracePath("endcount");
  writeTrace(Path, makeRichStream(4));
  std::vector<unsigned char> Bytes = readFileBytes(Path);
  // Overwrite the first event record's tag with an unknown one: the
  // record is skipped, so one fewer event is read than End declares.
  bool Patched = false;
  trace::ByteReader Cursor(Bytes.data(), Bytes.size());
  Cursor.skip(trace::HeaderSize);
  while (!Cursor.atEnd() && !Patched) {
    std::size_t RecordOffset = Cursor.pos();
    std::uint8_t Tag = 0;
    std::uint32_t Length = 0;
    ASSERT_TRUE(Cursor.readU8(Tag));
    ASSERT_TRUE(Cursor.readU32(Length));
    Cursor.skip(Length);
    if (static_cast<trace::RecordTag>(Tag) == trace::RecordTag::EventRecord) {
      Bytes[RecordOffset] = 0x7e;
      Patched = true;
    }
  }
  ASSERT_TRUE(Patched);
  writeFileBytes(Path, Bytes);

  TraceReader Reader;
  SessionError Err;
  EXPECT_FALSE(Reader.open(Path, Err));
  EXPECT_NE(Err.message().find("end-of-trace record declares"),
            std::string::npos)
      << Err.message();
}

TEST(TraceRobustnessTest, DanglingPayloadReferenceIsRejected) {
  // An event referencing a never-defined kernel id must fail the scan.
  std::string EventBody;
  trace::appendU8(EventBody, static_cast<std::uint8_t>(EventKind::KernelLaunch));
  trace::appendU8(EventBody, 0);     // vendor
  trace::appendI32(EventBody, 0);    // device
  trace::appendU32(EventBody, 0);    // stream
  trace::appendU64(EventBody, 0);    // timestamp
  trace::appendU64(EventBody, 0);    // address
  trace::appendU64(EventBody, 0);    // bytes
  trace::appendU8(EventBody, 0);     // managed
  trace::appendU8(EventBody, 0);     // direction
  trace::appendU64(EventBody, 1);    // grid id
  trace::appendU32(EventBody, 9);    // kernel ref -> undefined
  trace::appendU64(EventBody, 0);    // pool allocated
  trace::appendU64(EventBody, 0);    // pool reserved
  trace::appendU32(EventBody, 0);    // op name
  trace::appendU32(EventBody, 0);    // layer name
  trace::appendU8(EventBody, 0);     // phase
  trace::appendU32(EventBody, 0);    // stack
  trace::appendU8(EventBody, 0);     // tensor flag

  std::string EndBody;
  trace::appendU64(EndBody, 1);
  trace::appendU32(EndBody, 0);
  trace::appendU32(EndBody, 0);
  trace::appendU32(EndBody, 0);

  std::string Bytes;
  Bytes.append(trace::Magic, sizeof(trace::Magic));
  trace::appendU32(Bytes, trace::Version);
  trace::appendU32(Bytes, trace::HeaderFlags);
  trace::appendU8(Bytes,
                  static_cast<std::uint8_t>(trace::RecordTag::EventRecord));
  trace::appendU32(Bytes, static_cast<std::uint32_t>(EventBody.size()));
  Bytes.append(EventBody);
  trace::appendU8(Bytes, static_cast<std::uint8_t>(trace::RecordTag::End));
  trace::appendU32(Bytes, static_cast<std::uint32_t>(EndBody.size()));
  Bytes.append(EndBody);

  std::string Path = tempTracePath("dangling");
  writeFileBytes(Path, std::vector<unsigned char>(Bytes.begin(), Bytes.end()));
  TraceReader Reader;
  SessionError Err;
  EXPECT_FALSE(Reader.open(Path, Err));
  EXPECT_NE(Err.message().find("references unknown kernel id 9"),
            std::string::npos)
      << Err.message();
}

namespace {

/// Outcome of one decode: "" when accepted, else the diagnostic with
/// its "trace file '<path>': " / "trace stream: " prefix removed.
std::string fileVerdict(const std::string &Path,
                        const std::vector<unsigned char> &Bytes) {
  writeFileBytes(Path, Bytes);
  TraceReader Reader;
  SessionError Err;
  if (Reader.open(Path, Err))
    return std::string();
  std::string Prefix = "trace file '" + Path + "': ";
  EXPECT_EQ(Err.message().compare(0, Prefix.size(), Prefix), 0)
      << Err.message();
  return Err.message().substr(Prefix.size());
}

std::string streamVerdict(const std::vector<unsigned char> &Bytes,
                          std::size_t Chunk) {
  TraceStreamDecoder Decoder(nullptr);
  SessionError Err;
  bool Ok = true;
  for (std::size_t At = 0; Ok && At < Bytes.size(); At += Chunk)
    Ok = Decoder.feed(Bytes.data() + At, std::min(Chunk, Bytes.size() - At),
                      [](Event &) {}, Err);
  if (Ok && Decoder.finish(Err))
    return std::string();
  const std::string Prefix = "trace stream: ";
  EXPECT_EQ(Err.message().compare(0, Prefix.size(), Prefix), 0)
      << Err.message();
  return Err.message().substr(Prefix.size());
}

} // namespace

TEST(TraceRobustnessTest, EventBodyByteFlipsAgreeAcrossFileAndStream) {
  // The file reader and the stream decoder share one event-record
  // parser. Flip every byte of one event body — a record with a tensor
  // tail and one without — and both must accept or reject alike, with
  // the same diagnostic after their prefixes; the decoder must not care
  // how the bytes were chunked.
  std::string Path = tempTracePath("flip_src");
  writeTrace(Path, makeRichStream(8));
  std::vector<unsigned char> Pristine = readFileBytes(Path);

  // Locate the first event body of each shape.
  std::size_t WithTensor = 0, WithoutTensor = 0;
  std::uint32_t WithTensorLength = 0;
  trace::ByteReader Cursor(Pristine.data(), Pristine.size());
  Cursor.skip(trace::HeaderSize);
  while (!Cursor.atEnd()) {
    std::uint8_t Tag = 0;
    std::uint32_t Length = 0;
    ASSERT_TRUE(Cursor.readU8(Tag));
    ASSERT_TRUE(Cursor.readU32(Length));
    if (static_cast<trace::RecordTag>(Tag) == trace::RecordTag::EventRecord) {
      if (Length > trace::EventHead::Size && WithTensor == 0) {
        WithTensor = Cursor.pos();
        WithTensorLength = Length;
      }
      if (Length == trace::EventHead::Size && WithoutTensor == 0)
        WithoutTensor = Cursor.pos();
    }
    Cursor.skip(Length);
  }
  ASSERT_NE(WithTensor, 0u);
  ASSERT_NE(WithoutTensor, 0u);

  std::string Mutated = tempTracePath("flip_mut");
  std::size_t Rejected = 0;
  struct Body {
    std::size_t Offset;
    std::size_t Length;
  };
  for (Body Target : {Body{WithTensor, WithTensorLength},
                      Body{WithoutTensor, trace::EventHead::Size}}) {
    for (unsigned char Mask : {0xffu, 0x01u}) {
      for (std::size_t I = 0; I < Target.Length; ++I) {
        std::vector<unsigned char> Bytes = Pristine;
        Bytes[Target.Offset + I] ^= Mask;
        std::string File = fileVerdict(Mutated, Bytes);
        std::vector<unsigned char> Stream = Bytes;
        Stream[12] = static_cast<unsigned char>(trace::kFlagStreamed);
        std::string Whole = streamVerdict(Stream, Stream.size());
        std::string ByteWise = streamVerdict(Stream, 1);
        EXPECT_EQ(File, Whole) << "body byte " << I << " ^ " << int(Mask)
                               << " at offset " << Target.Offset;
        EXPECT_EQ(Whole, ByteWise) << "body byte " << I << " ^ "
                                   << int(Mask);
        Rejected += File.empty() ? 0 : 1;
      }
    }
  }
  // Flips of enum codes, payload ids and the tensor tail are rejected.
  EXPECT_GT(Rejected, 0u);
}

//===----------------------------------------------------------------------===//
// TraceReplayTest: capture -> replay determinism, per registered tool
//===----------------------------------------------------------------------===//

namespace {

struct SessionRunResult {
  std::string ReportsJson;
  std::uint64_t EventsProcessed = 0;
  SessionResult Result;
};

/// Runs one live session of \p ToolName on alexnet, capturing to
/// \p CapturePath, and returns its JSON reports + processor stats.
SessionRunResult runLive(const std::string &ToolName,
                         const std::string &CapturePath) {
  SessionRunResult R;
  SessionError Err;
  auto S = SessionBuilder()
               .tool(ToolName)
               .backend("none")
               .model("alexnet")
               .iterations(1)
               .capture(CapturePath)
               .build(Err);
  EXPECT_NE(S, nullptr) << ToolName << ": " << Err.message();
  if (!S)
    return R;
  R.Result = S->run();
  R.EventsProcessed = S->processor().stats().EventsProcessed;
  JsonReportSink Sink;
  S->writeReports(Sink);
  R.ReportsJson = Sink.str();
  return R;
}

/// Replays \p TracePath through the same tool (capturing again to
/// \p RecapturePath) and returns its JSON reports + processor stats.
SessionRunResult runReplay(const std::string &ToolName,
                           const std::string &TracePath,
                           const std::string &RecapturePath,
                           double Speed = 0.0) {
  SessionRunResult R;
  SessionError Err;
  auto S = SessionBuilder()
               .tool(ToolName)
               .backend("replay")
               .trace(TracePath)
               .capture(RecapturePath)
               .replaySpeed(Speed)
               .build(Err);
  EXPECT_NE(S, nullptr) << ToolName << ": " << Err.message();
  if (!S)
    return R;
  R.Result = S->run();
  R.EventsProcessed = S->processor().stats().EventsProcessed;
  JsonReportSink Sink;
  S->writeReports(Sink);
  R.ReportsJson = Sink.str();
  return R;
}

} // namespace

TEST(TraceReplayTest, EveryRegisteredToolRoundTripsByteIdentically) {
  tools::registerBuiltinTools();
  // Registry-created trace_capture instances read PASTA_CAPTURE; keep it
  // unset so the tool behaves identically in both sessions.
  setEnvOverride("PASTA_CAPTURE", "");
  for (const std::string &ToolName :
       ToolRegistry::instance().registeredNames()) {
    std::string TracePath = tempTracePath("live_" + ToolName);
    std::string RecapturePath = tempTracePath("replay_" + ToolName);

    SessionRunResult Live = runLive(ToolName, TracePath);
    ASSERT_FALSE(Live.ReportsJson.empty()) << ToolName;
    SessionRunResult Replayed =
        runReplay(ToolName, TracePath, RecapturePath);

    // Byte-identical reports: replaying a capture must be
    // indistinguishable from having been there live.
    EXPECT_EQ(Live.ReportsJson, Replayed.ReportsJson) << ToolName;
    // Identical dispatch accounting (both sessions run the same tool
    // set: the named tool + the capture tool).
    EXPECT_EQ(Live.EventsProcessed, Replayed.EventsProcessed) << ToolName;
    // A capture taken during replay is byte-identical to the original
    // trace — capture -> replay -> capture is a fixed point.
    EXPECT_EQ(readFileBytes(TracePath), readFileBytes(RecapturePath))
        << ToolName;
  }
}

TEST(TraceReplayTest, ReplayResultMirrorsTraceWindow) {
  std::string TracePath = tempTracePath("window");
  std::string RecapturePath = tempTracePath("window_re");
  SessionRunResult Live = runLive("kernel_frequency", TracePath);

  TraceReader Reader;
  SessionError Err;
  ASSERT_TRUE(Reader.open(TracePath, Err)) << Err.message();
  ASSERT_GT(Reader.info().Events, 0u);
  ASSERT_GT(Reader.info().KernelLaunches, 0u);

  SessionRunResult Replayed =
      runReplay("kernel_frequency", TracePath, RecapturePath);
  EXPECT_EQ(Replayed.Result.Stats.KernelsLaunched,
            Reader.info().KernelLaunches);
  EXPECT_EQ(Replayed.Result.ProgramKernels, Reader.info().KernelLaunches);
  EXPECT_EQ(Replayed.Result.Stats.StartTime, Reader.info().FirstTimestamp);
  EXPECT_EQ(Replayed.Result.Stats.EndTime, Reader.info().LastTimestamp);
  EXPECT_EQ(Live.Result.Stats.KernelsLaunched,
            Replayed.Result.Stats.KernelsLaunched);
}

TEST(TraceReplayTest, ScaledReplayIsStillDeterministic) {
  // --replay-speed changes pacing, never content: a heavily scaled
  // replay (1e6x faster than captured spacing, so the test stays fast)
  // produces the same reports as a full-speed one.
  std::string TracePath = tempTracePath("paced");
  runLive("kernel_frequency", TracePath);
  SessionRunResult FullSpeed = runReplay(
      "kernel_frequency", TracePath, tempTracePath("paced_full"), 0.0);
  SessionRunResult Scaled = runReplay(
      "kernel_frequency", TracePath, tempTracePath("paced_scaled"), 1e6);
  EXPECT_EQ(FullSpeed.ReportsJson, Scaled.ReportsJson);
}

TEST(TraceReplayTest, CaptureToolReportsItsCounters) {
  std::string TracePath = tempTracePath("counters");
  SessionError Err;
  auto S = SessionBuilder()
               .tool("kernel_frequency")
               .model("alexnet")
               .iterations(1)
               .capture(TracePath)
               .build(Err);
  ASSERT_NE(S, nullptr) << Err.message();
  S->run();
  auto *Capture = S->toolAs<tools::TraceCaptureTool>("trace_capture");
  ASSERT_NE(Capture, nullptr);
  EXPECT_GT(Capture->stats().Events, 0u);
  EXPECT_GT(Capture->stats().BytesWritten, trace::HeaderSize);
  EXPECT_GT(Capture->stats().PayloadHits, 0u);

  JsonReportSink Sink;
  S->writeReports(Sink);
  EXPECT_NE(Sink.str().find("trace_capture"), std::string::npos);
  EXPECT_NE(Sink.str().find("bytes_written"), std::string::npos);
  // The report must not leak the output path (live and replay captures
  // use different paths but must report identically).
  EXPECT_EQ(Sink.str().find(TracePath), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ReplaySessionTest: build-time validation and diagnostics
//===----------------------------------------------------------------------===//

TEST(ReplaySessionTest, ReplayWithoutTraceFailsWithUsageHint) {
  SessionError Err;
  auto S = SessionBuilder().backend("replay").build(Err);
  EXPECT_EQ(S, nullptr);
  EXPECT_NE(Err.message().find("--trace"), std::string::npos)
      << Err.message();
}

TEST(ReplaySessionTest, TraceWithOtherBackendFails) {
  SessionError Err;
  auto S = SessionBuilder().backend("cs-gpu").trace("/tmp/x.trace").build(Err);
  EXPECT_EQ(S, nullptr);
  EXPECT_NE(Err.message().find("--backend replay"), std::string::npos);
  EXPECT_NE(Err.message().find("cs-gpu"), std::string::npos);
}

TEST(ReplaySessionTest, NegativeReplaySpeedFails) {
  SessionError Err;
  auto S = SessionBuilder()
               .backend("replay")
               .trace("/tmp/x.trace")
               .replaySpeed(-1.0)
               .build(Err);
  EXPECT_EQ(S, nullptr);
  EXPECT_NE(Err.message().find("replay speed"), std::string::npos);
}

TEST(ReplaySessionTest, CorruptTraceFailsAtBuildTime) {
  std::string Path = tempTracePath("corrupt_build");
  writeFileBytes(Path, {'n', 'o', 't', 'a', 't', 'r', 'a', 'c', 'e'});
  SessionError Err;
  auto S = SessionBuilder().backend("replay").trace(Path).build(Err);
  EXPECT_EQ(S, nullptr);
  EXPECT_NE(Err.message().find(Path), std::string::npos) << Err.message();
}

TEST(ReplaySessionTest, RegistryListsReplayWithDescription) {
  registerBuiltinBackends();
  BackendRegistry &Registry = BackendRegistry::instance();
  std::vector<std::string> Names = Registry.registeredNames();
  EXPECT_NE(std::find(Names.begin(), Names.end(), "replay"), Names.end());
  EXPECT_NE(Registry.description("replay").find("--trace"),
            std::string::npos);
  // Every builtin backend carries a one-line description.
  for (const std::string &Name : Names)
    EXPECT_FALSE(Registry.description(Name).empty()) << Name;

  // Unknown-backend diagnostics list replay among the candidates.
  SessionError Err;
  auto B = Registry.create("warp-scope", sim::VendorKind::NVIDIA, Err);
  EXPECT_EQ(B, nullptr);
  EXPECT_NE(Err.message().find("replay"), std::string::npos);
}
