//===- pasta/TraceReader.cpp ----------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/TraceReader.h"

#include "pasta/Events.h"
#include "pasta/TraceEventHead.h"
#include "pasta/TraceFormat.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

using namespace pasta;
using namespace pasta::trace;

namespace {

std::string hex32(std::uint32_t Value) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "0x%x", Value);
  return Buf;
}

/// Decoded event-record fields before payload resolution. Ids are table
/// references (0 = absent); validity against the tables is checked by
/// the caller, which knows the current table sizes.
struct RawEvent {
  EventHead Head;
  /// The decoded tensor tail, built once as the shared descriptor the
  /// event adopts; null when the record has none.
  std::shared_ptr<const dl::TensorInfo> Tensor;
};

/// Parses one event-record body of \p Length bytes at \p Body. Returns
/// false (with \p Problem set) on any structural or range violation; the
/// caller prefixes file/offset.
bool parseEventBody(const unsigned char *Body, std::size_t Length,
                    RawEvent &Raw, std::string &Problem) {
  if (Length < EventHead::Size) {
    Problem = "event record body shorter than its fixed fields";
    return false;
  }
  EventHead &Head = Raw.Head;
  Head.load(Body);
  if (Head.Kind >= NumEventKinds) {
    Problem = "invalid event kind " + std::to_string(Head.Kind);
    return false;
  }
  if (Head.Vendor > 1) {
    Problem = "invalid vendor " + std::to_string(Head.Vendor);
    return false;
  }
  if (Head.Managed > 1) {
    Problem = "invalid managed flag " + std::to_string(Head.Managed);
    return false;
  }
  if (Head.Direction > 2) {
    Problem = "invalid copy direction " + std::to_string(Head.Direction);
    return false;
  }
  if (Head.Phase > 2) {
    Problem = "invalid exec phase " + std::to_string(Head.Phase);
    return false;
  }
  if (Head.HasTensor > 1) {
    Problem = "invalid tensor flag " + std::to_string(Head.HasTensor);
    return false;
  }
  ByteReader Cursor(Body + EventHead::Size, Length - EventHead::Size);
  if (Head.HasTensor == 1) {
    auto Tensor = std::make_shared<dl::TensorInfo>();
    std::uint64_t Id = 0;
    std::uint32_t Rank = 0;
    if (!Cursor.readU64(Id) || !Cursor.readString(Tensor->Name) ||
        !Cursor.readU32(Rank)) {
      Problem = "truncated tensor descriptor";
      return false;
    }
    std::vector<std::int64_t> Dims;
    // A corrupt rank must not size the allocation: only as many dims
    // as the body can hold are reserved.
    Dims.reserve(std::min<std::size_t>(Rank, Cursor.remaining() / 8));
    for (std::uint32_t I = 0; I < Rank; ++I) {
      std::int64_t Dim = 0;
      if (!Cursor.readI64(Dim)) {
        Problem = "truncated tensor shape";
        return false;
      }
      if (Dim < 0) {
        Problem = "negative tensor dimension " + std::to_string(Dim);
        return false;
      }
      Dims.push_back(Dim);
    }
    std::uint8_t Type = 0;
    std::uint8_t Role = 0;
    std::uint64_t Address = 0;
    std::int32_t DeviceIndex = 0;
    if (!Cursor.readU8(Type) || !Cursor.readU8(Role) ||
        !Cursor.readU64(Address) || !Cursor.readI32(DeviceIndex)) {
      Problem = "truncated tensor descriptor";
      return false;
    }
    if (Type > 2) {
      Problem = "invalid tensor data type " + std::to_string(Type);
      return false;
    }
    if (Role > 5) {
      Problem = "invalid tensor role " + std::to_string(Role);
      return false;
    }
    Tensor->Id = Id;
    Tensor->Shape = dl::TensorShape(std::move(Dims));
    Tensor->Type = static_cast<dl::DataType>(Type);
    Tensor->Role = static_cast<dl::TensorRole>(Role);
    Tensor->Address = Address;
    Tensor->DeviceIndex = DeviceIndex;
    Raw.Tensor = std::move(Tensor);
  }
  if (!Cursor.atEnd()) {
    Problem = "event record body longer than its fields";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Record-body decoders shared by the whole-file scan and the
// incremental stream decoder. Each returns "" on success, otherwise a
// complete diagnostic naming \p RecordOffset — identical wording on
// both paths, so a corrupt stream and the same bytes written to a file
// produce the same message.
//===----------------------------------------------------------------------===//

std::string decodeStringDef(const unsigned char *Body, std::uint32_t Length,
                            std::size_t NextId, std::size_t RecordOffset,
                            std::string &Content) {
  ByteReader Cursor(Body, Length);
  std::uint32_t Id = 0;
  if (!Cursor.readU32(Id))
    return "truncated string definition at offset " +
           std::to_string(RecordOffset);
  if (Id != NextId)
    return "non-sequential string id " + std::to_string(Id) + " at offset " +
           std::to_string(RecordOffset) + ": expected " +
           std::to_string(NextId);
  Content.assign(reinterpret_cast<const char *>(Body) + 4, Length - 4);
  return std::string();
}

std::string decodeStackDef(const unsigned char *Body, std::uint32_t Length,
                           std::size_t NextId, std::size_t RecordOffset,
                           PayloadStack::FrameList &Frames) {
  ByteReader Cursor(Body, Length);
  std::uint32_t Id = 0;
  std::uint32_t FrameCount = 0;
  if (!Cursor.readU32(Id) || !Cursor.readU32(FrameCount))
    return "truncated stack definition at offset " +
           std::to_string(RecordOffset);
  if (Id != NextId)
    return "non-sequential stack id " + std::to_string(Id) + " at offset " +
           std::to_string(RecordOffset) + ": expected " +
           std::to_string(NextId);
  // Each frame takes at least its u32 length: a corrupt count must not
  // size the allocation.
  Frames.reserve(std::min<std::size_t>(FrameCount, Cursor.remaining() / 4));
  for (std::uint32_t I = 0; I < FrameCount; ++I) {
    std::string Frame;
    if (!Cursor.readString(Frame))
      return "truncated stack definition at offset " +
             std::to_string(RecordOffset);
    Frames.push_back(std::move(Frame));
  }
  if (!Cursor.atEnd())
    return "oversized stack definition at offset " +
           std::to_string(RecordOffset);
  return std::string();
}

std::string decodeKernelDef(const unsigned char *Body, std::uint32_t Length,
                            std::size_t NextId, std::size_t RecordOffset,
                            sim::KernelDesc &Kernel) {
  ByteReader Cursor(Body, Length);
  std::uint32_t Id = 0;
  if (!Cursor.readU32(Id))
    return "truncated kernel definition at offset " +
           std::to_string(RecordOffset);
  if (Id != NextId)
    return "non-sequential kernel id " + std::to_string(Id) + " at offset " +
           std::to_string(RecordOffset) + ": expected " +
           std::to_string(NextId);
  std::uint32_t SegmentCount = 0;
  bool Ok = Cursor.readString(Kernel.Name) && Cursor.readU32(Kernel.Grid.X) &&
            Cursor.readU32(Kernel.Grid.Y) && Cursor.readU32(Kernel.Grid.Z) &&
            Cursor.readU32(Kernel.Block.X) && Cursor.readU32(Kernel.Block.Y) &&
            Cursor.readU32(Kernel.Block.Z) && Cursor.readF64(Kernel.Flops) &&
            Cursor.readF64(Kernel.ComputeInstrsPerAccess) &&
            Cursor.readU64(Kernel.StaticInstrs) &&
            Cursor.readU32(Kernel.BarriersPerBlock) &&
            Cursor.readU64(Kernel.SharedMemPerBlock) &&
            Cursor.readU32(SegmentCount);
  if (Ok) {
    // A segment is 26 bytes: a corrupt count must not size the
    // allocation.
    Kernel.Segments.reserve(
        std::min<std::size_t>(SegmentCount, Cursor.remaining() / 26));
    for (std::uint32_t I = 0; Ok && I < SegmentCount; ++I) {
      sim::AccessSegment Seg;
      std::uint8_t Kind = 0;
      std::uint8_t Space = 0;
      Ok = Cursor.readU64(Seg.Base) && Cursor.readU64(Seg.Extent) &&
           Cursor.readU64(Seg.AccessBytes) && Cursor.readU8(Kind) &&
           Cursor.readU8(Space);
      if (Ok && (Kind > 1 || Space > 1))
        return "invalid access segment in kernel definition at offset " +
               std::to_string(RecordOffset);
      Seg.Kind = static_cast<sim::AccessKind>(Kind);
      Seg.Space = static_cast<sim::MemSpace>(Space);
      Kernel.Segments.push_back(Seg);
    }
  }
  if (!Ok || !Cursor.atEnd())
    return "malformed kernel definition at offset " +
           std::to_string(RecordOffset);
  return std::string();
}

/// Declared table sizes from the End record.
struct EndCounts {
  std::uint64_t Events = 0;
  std::uint32_t Strings = 0;
  std::uint32_t Stacks = 0;
  std::uint32_t Kernels = 0;
};

std::string decodeEndBody(const unsigned char *Body, std::uint32_t Length,
                          std::size_t RecordOffset, EndCounts &Counts) {
  ByteReader Cursor(Body, Length);
  if (!Cursor.readU64(Counts.Events) || !Cursor.readU32(Counts.Strings) ||
      !Cursor.readU32(Counts.Stacks) || !Cursor.readU32(Counts.Kernels) ||
      !Cursor.atEnd())
    return "malformed end-of-trace record at offset " +
           std::to_string(RecordOffset);
  return std::string();
}

std::string endCountMismatch(const EndCounts &Counts, std::size_t Events,
                             std::size_t Strings, std::size_t Stacks,
                             std::size_t Kernels) {
  return "end-of-trace record declares " + std::to_string(Counts.Events) +
         " events / " + std::to_string(Counts.Strings) + " strings / " +
         std::to_string(Counts.Stacks) + " stacks / " +
         std::to_string(Counts.Kernels) + " kernels, but " +
         std::to_string(Events) + " / " + std::to_string(Strings) + " / " +
         std::to_string(Stacks) + " / " + std::to_string(Kernels) +
         " were read";
}

std::string checkEventRefs(const EventHead &Head, std::size_t NumStrings,
                           std::size_t NumStacks, std::size_t NumKernels,
                           std::size_t RecordOffset) {
  if (Head.KernelId > NumKernels)
    return "event at offset " + std::to_string(RecordOffset) +
           " references unknown kernel id " + std::to_string(Head.KernelId);
  if (Head.OpNameId > NumStrings || Head.LayerNameId > NumStrings)
    return "event at offset " + std::to_string(RecordOffset) +
           " references unknown string id " +
           std::to_string(Head.OpNameId > NumStrings ? Head.OpNameId
                                                     : Head.LayerNameId);
  if (Head.StackId > NumStacks)
    return "event at offset " + std::to_string(RecordOffset) +
           " references unknown stack id " + std::to_string(Head.StackId);
  return std::string();
}

/// Resolves a validated RawEvent against the payload tables. The
/// handles the tables hold are what the event carries — canonical
/// arena handles when the tables were interned — and the event adopts
/// the decoded tensor descriptor as it is.
Event materializeEvent(
    RawEvent &Raw, const std::vector<PayloadString> &Strings,
    const std::vector<PayloadStack> &Stacks,
    const std::vector<std::shared_ptr<const sim::KernelDesc>> &Kernels) {
  const EventHead &Head = Raw.Head;
  Event E;
  E.Kind = static_cast<EventKind>(Head.Kind);
  E.Vendor = static_cast<sim::VendorKind>(Head.Vendor);
  E.DeviceIndex = Head.DeviceIndex;
  E.Stream = Head.Stream;
  E.Timestamp = Head.Timestamp;
  E.Address = Head.Address;
  E.Bytes = Head.Bytes;
  E.Managed = Head.Managed == 1;
  E.Direction = static_cast<CopyDirection>(Head.Direction);
  E.GridId = Head.GridId;
  E.PoolAllocated = Head.PoolAllocated;
  E.PoolReserved = Head.PoolReserved;
  E.Phase = static_cast<dl::ExecPhase>(Head.Phase);
  if (Head.KernelId)
    E.adoptKernel(Kernels[Head.KernelId - 1]);
  if (Head.OpNameId)
    E.OpName = Strings[Head.OpNameId - 1];
  if (Head.LayerNameId)
    E.LayerName = Strings[Head.LayerNameId - 1];
  if (Head.StackId)
    E.PythonStack = Stacks[Head.StackId - 1];
  if (Raw.Tensor)
    E.adoptTensor(std::move(Raw.Tensor));
  return E;
}

/// Streams buffer whole records only up to this size; a hostile length
/// prefix must not make the aggregator buffer gigabytes for one
/// client. Capture files have no such cap (they are bounded by file
/// size up front).
constexpr std::uint32_t MaxStreamRecordBytes = 1u << 24;

} // namespace

bool TraceReader::fail(SessionError &Err, const std::string &Message) {
  Err.assign("trace file '" + FilePath + "': " + Message);
  Loaded = false;
  Info = TraceInfo();
  Buffer.clear();
  EventSpans.clear();
  StringTable.clear();
  StackTable.clear();
  KernelTable.clear();
  return false;
}

bool TraceReader::open(const std::string &Path, SessionError &Err) {
  FilePath = Path;
  Loaded = false;
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  if (!In) {
    Err.assign("cannot open trace file '" + Path +
               "': " + std::strerror(errno));
    return false;
  }
  Buffer.clear();
  unsigned char Chunk[1 << 16];
  std::size_t Got = 0;
  while ((Got = std::fread(Chunk, 1, sizeof(Chunk), In)) > 0)
    Buffer.insert(Buffer.end(), Chunk, Chunk + Got);
  bool ReadOk = std::ferror(In) == 0;
  std::fclose(In);
  if (!ReadOk)
    return fail(Err, "read error");
  return scan(Err);
}

bool TraceReader::scan(SessionError &Err) {
  Info = TraceInfo();
  EventSpans.clear();
  StringTable.clear();
  StackTable.clear();
  KernelTable.clear();
  Info.FileBytes = Buffer.size();

  if (Buffer.size() < HeaderSize)
    return fail(Err, "truncated header: " + std::to_string(Buffer.size()) +
                         " bytes, expected at least " +
                         std::to_string(HeaderSize) +
                         " (magic \"PASTATRC\" + version + flags)");
  if (std::memcmp(Buffer.data(), Magic, sizeof(Magic)) != 0)
    return fail(Err, "bad magic at offset 0: expected \"PASTATRC\"");

  ByteReader Header(Buffer.data() + sizeof(Magic), HeaderSize - sizeof(Magic));
  std::uint32_t FileVersion = 0;
  std::uint32_t FileFlags = 0;
  Header.readU32(FileVersion);
  Header.readU32(FileFlags);
  if (FileVersion != Version)
    return fail(Err, "unsupported version " + std::to_string(FileVersion) +
                         " at offset 8: expected version " +
                         std::to_string(Version));
  if ((FileFlags & ~KnownHeaderFlags) != 0)
    return fail(Err, "unknown header flags " +
                         hex32(FileFlags & ~KnownHeaderFlags) +
                         " at offset 12: this build knows " +
                         hex32(KnownHeaderFlags));
  if ((FileFlags & kFlagStreamed) != 0)
    return fail(Err, "streamed header flags " + hex32(FileFlags) +
                         " at offset 12: this is a socket-stream dump, not a "
                         "capture file (feed it to accelprof --serve)");

  ByteReader Cursor(Buffer.data(), Buffer.size());
  Cursor.skip(HeaderSize);
  bool SawEnd = false;
  std::uint64_t DeclaredEvents = 0;
  std::uint32_t DeclaredStrings = 0;
  std::uint32_t DeclaredStacks = 0;
  std::uint32_t DeclaredKernels = 0;

  while (!Cursor.atEnd()) {
    std::size_t RecordOffset = Cursor.pos();
    if (SawEnd)
      return fail(Err, "trailing data after end-of-trace record at offset " +
                           std::to_string(RecordOffset));
    std::uint8_t Tag = 0;
    std::uint32_t Length = 0;
    if (!Cursor.readU8(Tag) || !Cursor.readU32(Length) ||
        Cursor.remaining() < Length)
      return fail(Err,
                  "truncated record at offset " + std::to_string(RecordOffset));
    std::size_t BodyOffset = Cursor.pos();
    Cursor.skip(Length);

    switch (static_cast<RecordTag>(Tag)) {
    case RecordTag::StringDef: {
      std::string Content;
      std::string Problem =
          decodeStringDef(Buffer.data() + BodyOffset, Length,
                          StringTable.size() + 1, RecordOffset, Content);
      if (!Problem.empty())
        return fail(Err, Problem);
      StringTable.emplace_back(std::move(Content));
      break;
    }
    case RecordTag::StackDef: {
      PayloadStack::FrameList Frames;
      std::string Problem =
          decodeStackDef(Buffer.data() + BodyOffset, Length,
                         StackTable.size() + 1, RecordOffset, Frames);
      if (!Problem.empty())
        return fail(Err, Problem);
      StackTable.emplace_back(std::move(Frames));
      break;
    }
    case RecordTag::KernelDef: {
      auto Kernel = std::make_shared<sim::KernelDesc>();
      std::string Problem =
          decodeKernelDef(Buffer.data() + BodyOffset, Length,
                          KernelTable.size() + 1, RecordOffset, *Kernel);
      if (!Problem.empty())
        return fail(Err, Problem);
      KernelTable.push_back(std::move(Kernel));
      break;
    }
    case RecordTag::EventRecord: {
      RawEvent Raw;
      std::string Problem;
      if (!parseEventBody(Buffer.data() + BodyOffset, Length, Raw, Problem))
        return fail(Err, Problem + " in event record at offset " +
                             std::to_string(RecordOffset));
      Problem = checkEventRefs(Raw.Head, StringTable.size(),
                               StackTable.size(), KernelTable.size(),
                               RecordOffset);
      if (!Problem.empty())
        return fail(Err, Problem);
      if (EventSpans.empty())
        Info.FirstTimestamp = Raw.Head.Timestamp;
      Info.LastTimestamp = Raw.Head.Timestamp;
      if (static_cast<EventKind>(Raw.Head.Kind) == EventKind::KernelLaunch)
        ++Info.KernelLaunches;
      EventSpans.push_back({BodyOffset, Length});
      break;
    }
    case RecordTag::End: {
      EndCounts Counts;
      std::string Problem =
          decodeEndBody(Buffer.data() + BodyOffset, Length, RecordOffset,
                        Counts);
      if (!Problem.empty())
        return fail(Err, Problem);
      DeclaredEvents = Counts.Events;
      DeclaredStrings = Counts.Strings;
      DeclaredStacks = Counts.Stacks;
      DeclaredKernels = Counts.Kernels;
      SawEnd = true;
      break;
    }
    default:
      // Unknown tags are skippable by construction (length-prefixed) —
      // the in-version forward-compat rule. A corrupted tag cannot hide
      // an event: the End record's counts are cross-checked below.
      break;
    }
  }

  if (!SawEnd)
    return fail(Err, "truncated trace: missing end-of-trace record");
  if (DeclaredEvents != EventSpans.size() ||
      DeclaredStrings != StringTable.size() ||
      DeclaredStacks != StackTable.size() ||
      DeclaredKernels != KernelTable.size()) {
    EndCounts Counts;
    Counts.Events = DeclaredEvents;
    Counts.Strings = DeclaredStrings;
    Counts.Stacks = DeclaredStacks;
    Counts.Kernels = DeclaredKernels;
    return fail(Err, endCountMismatch(Counts, EventSpans.size(),
                                      StringTable.size(), StackTable.size(),
                                      KernelTable.size()));
  }

  Info.Events = EventSpans.size();
  Info.Strings = StringTable.size();
  Info.Stacks = StackTable.size();
  Info.Kernels = KernelTable.size();
  Loaded = true;
  return true;
}

void TraceReader::forEachEvent(EventArena *Arena,
                               const std::function<void(Event &)> &Fn) {
  if (!Loaded)
    return;

  // Re-intern the payload tables once, up front: internString/internStack
  // reuse the table handles' existing allocations, so from here on every
  // decoded event carries canonical arena handles and admission cost is
  // reference-count bumps.
  std::vector<PayloadString> Strings = StringTable;
  std::vector<PayloadStack> Stacks = StackTable;
  std::vector<std::shared_ptr<const sim::KernelDesc>> Kernels = KernelTable;
  if (Arena) {
    for (PayloadString &S : Strings)
      S = Arena->internString(S);
    for (PayloadStack &S : Stacks)
      S = Arena->internStack(S);
    for (std::shared_ptr<const sim::KernelDesc> &K : Kernels)
      K = Arena->internKernel(*K);
  }

  for (const EventSpan &Span : EventSpans) {
    RawEvent Raw;
    std::string Problem;
    // scan() already validated every record; a parse failure here would
    // mean the buffer changed underneath us.
    if (!parseEventBody(Buffer.data() + Span.Offset, Span.Length, Raw,
                        Problem))
      continue;
    Event E = materializeEvent(Raw, Strings, Stacks, Kernels);
    Fn(E);
  }
}

//===----------------------------------------------------------------------===//
// TraceStreamDecoder
//===----------------------------------------------------------------------===//

bool TraceStreamDecoder::fail(SessionError &Err, const std::string &Message) {
  Failed = true;
  Err.assign("trace stream: " + Message);
  return false;
}

bool TraceStreamDecoder::decodeRecord(std::uint8_t Tag,
                                      const unsigned char *Body,
                                      std::uint32_t Length,
                                      std::size_t RecordOffset,
                                      const std::function<void(Event &)> &Fn,
                                      SessionError &Err) {
  switch (static_cast<RecordTag>(Tag)) {
  case RecordTag::StringDef: {
    std::string Content;
    std::string Problem = decodeStringDef(Body, Length, Strings.size() + 1,
                                          RecordOffset, Content);
    if (!Problem.empty())
      return fail(Err, Problem);
    PayloadString Payload(std::move(Content));
    if (Arena)
      Payload = Arena->internString(Payload);
    Strings.push_back(std::move(Payload));
    ++Info.Strings;
    return true;
  }
  case RecordTag::StackDef: {
    PayloadStack::FrameList Frames;
    std::string Problem = decodeStackDef(Body, Length, Stacks.size() + 1,
                                         RecordOffset, Frames);
    if (!Problem.empty())
      return fail(Err, Problem);
    PayloadStack Payload(std::move(Frames));
    if (Arena)
      Payload = Arena->internStack(Payload);
    Stacks.push_back(std::move(Payload));
    ++Info.Stacks;
    return true;
  }
  case RecordTag::KernelDef: {
    auto Kernel = std::make_shared<sim::KernelDesc>();
    std::string Problem = decodeKernelDef(Body, Length, Kernels.size() + 1,
                                          RecordOffset, *Kernel);
    if (!Problem.empty())
      return fail(Err, Problem);
    std::shared_ptr<const sim::KernelDesc> Handle = std::move(Kernel);
    if (Arena)
      Handle = Arena->internKernel(*Handle);
    Kernels.push_back(std::move(Handle));
    ++Info.Kernels;
    return true;
  }
  case RecordTag::EventRecord: {
    RawEvent Raw;
    std::string Problem;
    if (!parseEventBody(Body, Length, Raw, Problem))
      return fail(Err, Problem + " in event record at offset " +
                           std::to_string(RecordOffset));
    Problem = checkEventRefs(Raw.Head, Strings.size(), Stacks.size(),
                             Kernels.size(), RecordOffset);
    if (!Problem.empty())
      return fail(Err, Problem);
    if (Info.Events == 0)
      Info.FirstTimestamp = Raw.Head.Timestamp;
    Info.LastTimestamp = Raw.Head.Timestamp;
    if (static_cast<EventKind>(Raw.Head.Kind) == EventKind::KernelLaunch)
      ++Info.KernelLaunches;
    ++Info.Events;
    Event E = materializeEvent(Raw, Strings, Stacks, Kernels);
    Fn(E);
    return true;
  }
  case RecordTag::End: {
    EndCounts Counts;
    std::string Problem = decodeEndBody(Body, Length, RecordOffset, Counts);
    if (!Problem.empty())
      return fail(Err, Problem);
    if (Counts.Events != Info.Events || Counts.Strings != Strings.size() ||
        Counts.Stacks != Stacks.size() || Counts.Kernels != Kernels.size())
      return fail(Err, endCountMismatch(Counts, Info.Events, Strings.size(),
                                        Stacks.size(), Kernels.size()));
    SawEnd = true;
    return true;
  }
  default:
    // In-version forward compat: unknown tags are skippable, exactly as
    // in the file reader. The End counts still cross-check the tables.
    return true;
  }
}

bool TraceStreamDecoder::feed(const unsigned char *Data, std::size_t Size,
                              const std::function<void(Event &)> &Fn,
                              SessionError &Err) {
  if (Failed) {
    Err.assign("trace stream: decoder already failed");
    return false;
  }
  Pending.insert(Pending.end(), Data, Data + Size);
  Info.FileBytes += Size;

  std::size_t Consumed = 0;
  bool Ok = true;
  while (Ok) {
    std::size_t Avail = Pending.size() - Consumed;
    if (!SawHeader) {
      if (Avail < HeaderSize)
        break;
      const unsigned char *Head = Pending.data() + Consumed;
      if (std::memcmp(Head, Magic, sizeof(Magic)) != 0) {
        Ok = fail(Err, "bad magic at offset 0: expected \"PASTATRC\"");
        break;
      }
      ByteReader Header(Head + sizeof(Magic), HeaderSize - sizeof(Magic));
      std::uint32_t StreamVersion = 0;
      std::uint32_t StreamFlags = 0;
      Header.readU32(StreamVersion);
      Header.readU32(StreamFlags);
      if (StreamVersion != Version) {
        Ok = fail(Err, "unsupported version " + std::to_string(StreamVersion) +
                           " at offset 8: expected version " +
                           std::to_string(Version));
        break;
      }
      if (StreamFlags != kFlagStreamed) {
        Ok = fail(Err, "unexpected stream header flags " + hex32(StreamFlags) +
                           " at offset 12: expected " + hex32(kFlagStreamed));
        break;
      }
      Consumed += HeaderSize;
      SawHeader = true;
      continue;
    }
    if (Avail < RecordPrefixSize)
      break;
    std::size_t RecordOffset = BaseOffset + Consumed;
    if (SawEnd) {
      Ok = fail(Err, "trailing data after end-of-trace record at offset " +
                         std::to_string(RecordOffset));
      break;
    }
    const unsigned char *Prefix = Pending.data() + Consumed;
    ByteReader PrefixCursor(Prefix, RecordPrefixSize);
    std::uint8_t Tag = 0;
    std::uint32_t Length = 0;
    PrefixCursor.readU8(Tag);
    PrefixCursor.readU32(Length);
    if (Length > MaxStreamRecordBytes) {
      Ok = fail(Err, "oversized record (" + std::to_string(Length) +
                         " bytes) at offset " + std::to_string(RecordOffset));
      break;
    }
    if (Avail < RecordPrefixSize + Length)
      break;
    Ok = decodeRecord(Tag, Prefix + RecordPrefixSize, Length, RecordOffset,
                      Fn, Err);
    if (Ok)
      Consumed += RecordPrefixSize + Length;
  }
  BaseOffset += Consumed;
  Pending.erase(Pending.begin(),
                Pending.begin() + static_cast<std::ptrdiff_t>(Consumed));
  return Ok;
}

bool TraceStreamDecoder::finish(SessionError &Err) {
  if (Failed) {
    Err.assign("trace stream: decoder already failed");
    return false;
  }
  if (!SawEnd) {
    if (!SawHeader)
      return fail(Err, "truncated stream: connection closed before a "
                       "complete header (" +
                           std::to_string(Pending.size()) + " of " +
                           std::to_string(HeaderSize) + " bytes)");
    return fail(Err,
                "truncated stream: missing end-of-trace record (connection "
                "closed at offset " +
                    std::to_string(BaseOffset + Pending.size()) + ")");
  }
  if (!Pending.empty())
    return fail(Err, "trailing data after end-of-trace record at offset " +
                         std::to_string(BaseOffset));
  return true;
}
