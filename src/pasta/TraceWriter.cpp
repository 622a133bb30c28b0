//===- pasta/TraceWriter.cpp ----------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/TraceWriter.h"

#include "pasta/Events.h"
#include "pasta/TraceEventHead.h"
#include "pasta/TraceFormat.h"

#include <cerrno>
#include <cstring>

using namespace pasta;
using namespace pasta::trace;

namespace {

/// Serialized KernelDesc body (without the table id): the KernelDef
/// layout. Two descriptors get one table entry iff kernelEqual holds,
/// which compares exactly the fields encoded here.
void encodeKernelBody(std::string &Out, const sim::KernelDesc &K) {
  appendString(Out, K.Name);
  appendU32(Out, K.Grid.X);
  appendU32(Out, K.Grid.Y);
  appendU32(Out, K.Grid.Z);
  appendU32(Out, K.Block.X);
  appendU32(Out, K.Block.Y);
  appendU32(Out, K.Block.Z);
  appendF64(Out, K.Flops);
  appendF64(Out, K.ComputeInstrsPerAccess);
  appendU64(Out, K.StaticInstrs);
  appendU32(Out, K.BarriersPerBlock);
  appendU64(Out, K.SharedMemPerBlock);
  appendU32(Out, static_cast<std::uint32_t>(K.Segments.size()));
  for (const sim::AccessSegment &Seg : K.Segments) {
    appendU64(Out, Seg.Base);
    appendU64(Out, Seg.Extent);
    appendU64(Out, Seg.AccessBytes);
    appendU8(Out, static_cast<std::uint8_t>(Seg.Kind));
    appendU8(Out, static_cast<std::uint8_t>(Seg.Space));
  }
}

/// The id in \p Ids under \p Hash whose payload \p Matches, or 0.
template <typename MatchFn>
std::uint32_t findId(const std::unordered_multimap<std::uint64_t,
                                                   std::uint32_t> &Ids,
                     std::uint64_t Hash, MatchFn Matches) {
  auto Range = Ids.equal_range(Hash);
  for (auto It = Range.first; It != Range.second; ++It)
    if (Matches(It->second))
      return It->second;
  return 0;
}

/// Bytes of the inline tensor tail after the fixed head: u64 id, name
/// string, u32 rank, i64 dims, u8 type, u8 role, u64 address, i32
/// device.
std::size_t tensorTailSize(const dl::TensorInfo &T) {
  return 8 + 4 + T.Name.size() + 4 + 8 * T.Shape.dims().size() + 1 + 1 +
         8 + 4;
}

void encodeTensorTail(unsigned char *P, const dl::TensorInfo &T) {
  storeLE<8>(P, T.Id);
  storeLE<4>(P + 8, T.Name.size());
  P += 12;
  std::memcpy(P, T.Name.data(), T.Name.size());
  P += T.Name.size();
  const std::vector<std::int64_t> &Dims = T.Shape.dims();
  storeLE<4>(P, Dims.size());
  P += 4;
  for (std::int64_t Dim : Dims) {
    storeLE<8>(P, static_cast<std::uint64_t>(Dim));
    P += 8;
  }
  storeLE<1>(P, static_cast<std::uint8_t>(T.Type));
  storeLE<1>(P + 1, static_cast<std::uint8_t>(T.Role));
  storeLE<8>(P + 2, T.Address);
  storeLE<4>(P + 10, static_cast<std::uint32_t>(T.DeviceIndex));
}

} // namespace

TraceWriter::~TraceWriter() {
  if (Out) {
    std::fclose(Out);
    Out = nullptr;
  }
}

bool TraceWriter::open(const std::string &Path, SessionError &Err) {
  if (isOpen()) {
    Err.assign("trace writer already open on '" + FilePath + "'");
    return false;
  }
  Out = std::fopen(Path.c_str(), "wb");
  if (!Out) {
    Err.assign("cannot open trace file '" + Path +
               "' for writing: " + std::strerror(errno));
    return false;
  }
  FilePath = Path;
  WriteFailed = false;
  std::string Header;
  Header.append(Magic, sizeof(Magic));
  appendU32(Header, Version);
  appendU32(Header, HeaderFlags);
  writeBytes(Header.data(), Header.size());
  if (WriteFailed) {
    Err.assign("cannot write trace header to '" + Path + "'");
    return false;
  }
  return true;
}

bool TraceWriter::openSink(TraceOutput &Dest, std::uint32_t Flags,
                           SessionError &Err) {
  if (isOpen()) {
    Err.assign("trace writer already open on '" + FilePath + "'");
    return false;
  }
  Sink = &Dest;
  FilePath = Dest.describe();
  WriteFailed = false;
  std::string Header;
  Header.append(Magic, sizeof(Magic));
  appendU32(Header, Version);
  appendU32(Header, Flags);
  writeBytes(Header.data(), Header.size());
  if (WriteFailed) {
    Err.assign("cannot write trace header to '" + FilePath + "'");
    Sink = nullptr;
    return false;
  }
  return true;
}

void TraceWriter::writeBytes(const char *Data, std::size_t Size) {
  if ((!Out && !Sink) || WriteFailed)
    return;
  bool Ok = Out ? std::fwrite(Data, 1, Size, Out) == Size
                : Sink->write(Data, Size);
  if (!Ok) {
    WriteFailed = true;
    return;
  }
  Stats.BytesWritten += Size;
}

void TraceWriter::beginRecord(std::uint8_t Tag) {
  Scratch.clear();
  appendU8(Scratch, Tag);
  appendU32(Scratch, 0);
}

void TraceWriter::finishRecord() {
  storeLE<4>(reinterpret_cast<unsigned char *>(&Scratch[1]),
             Scratch.size() - RecordPrefixSize);
  writeBytes(Scratch.data(), Scratch.size());
}

std::uint32_t TraceWriter::stringId(const PayloadString &S) {
  if (S.empty())
    return 0;
  ++Stats.PayloadRefs;
  std::uint64_t Hash = S.contentHash();
  if (std::uint32_t Id = findId(StringIds, Hash, [&](std::uint32_t Id) {
        return Strings[Id - 1] == S;
      })) {
    ++Stats.PayloadHits;
    return Id;
  }
  Strings.push_back(S);
  std::uint32_t Id = static_cast<std::uint32_t>(Strings.size());
  StringIds.emplace(Hash, Id);
  ++Stats.Strings;
  beginRecord(static_cast<std::uint8_t>(RecordTag::StringDef));
  appendU32(Scratch, Id);
  Scratch.append(S.str());
  finishRecord();
  return Id;
}

std::uint32_t TraceWriter::stackId(const PayloadStack &S) {
  if (S.empty())
    return 0;
  ++Stats.PayloadRefs;
  std::uint64_t Hash = S.contentHash();
  if (std::uint32_t Id = findId(StackIds, Hash, [&](std::uint32_t Id) {
        return Stacks[Id - 1] == S;
      })) {
    ++Stats.PayloadHits;
    return Id;
  }
  Stacks.push_back(S);
  std::uint32_t Id = static_cast<std::uint32_t>(Stacks.size());
  StackIds.emplace(Hash, Id);
  ++Stats.Stacks;
  beginRecord(static_cast<std::uint8_t>(RecordTag::StackDef));
  appendU32(Scratch, Id);
  appendU32(Scratch, static_cast<std::uint32_t>(S.size()));
  for (const std::string &Frame : S)
    appendString(Scratch, Frame);
  finishRecord();
  return Id;
}

std::uint32_t TraceWriter::kernelId(const sim::KernelDesc *K) {
  if (!K)
    return 0;
  ++Stats.PayloadRefs;
  if (LastKernelId != 0 && kernelEqual(Kernels[LastKernelId - 1], *K)) {
    ++Stats.PayloadHits;
    return LastKernelId;
  }
  std::uint64_t Hash = hashKernel(*K);
  if (std::uint32_t Id = findId(KernelIds, Hash, [&](std::uint32_t Id) {
        return kernelEqual(Kernels[Id - 1], *K);
      })) {
    ++Stats.PayloadHits;
    LastKernelId = Id;
    return Id;
  }
  Kernels.push_back(*K);
  std::uint32_t Id = static_cast<std::uint32_t>(Kernels.size());
  KernelIds.emplace(Hash, Id);
  LastKernelId = Id;
  ++Stats.Kernels;
  beginRecord(static_cast<std::uint8_t>(RecordTag::KernelDef));
  appendU32(Scratch, Id);
  encodeKernelBody(Scratch, *K);
  finishRecord();
  return Id;
}

void TraceWriter::append(const Event &E) {
  if ((!Out && !Sink) || WriteFailed)
    return;
  // Definitions must precede the first referencing event record.
  EventHead Head;
  Head.KernelId = kernelId(E.Kernel);
  Head.OpNameId = stringId(E.OpName);
  Head.LayerNameId = stringId(E.LayerName);
  Head.StackId = stackId(E.PythonStack);
  Head.Kind = static_cast<std::uint8_t>(E.Kind);
  Head.Vendor = static_cast<std::uint8_t>(E.Vendor);
  Head.DeviceIndex = E.DeviceIndex;
  Head.Stream = E.Stream;
  Head.Timestamp = E.Timestamp;
  Head.Address = E.Address;
  Head.Bytes = E.Bytes;
  Head.Managed = E.Managed ? 1 : 0;
  Head.Direction = static_cast<std::uint8_t>(E.Direction);
  Head.GridId = E.GridId;
  Head.PoolAllocated = E.PoolAllocated;
  Head.PoolReserved = E.PoolReserved;
  Head.Phase = static_cast<std::uint8_t>(E.Phase);
  Head.HasTensor = E.Tensor ? 1 : 0;

  // Prefix, head and tensor tail in one pass into one buffer.
  std::size_t BodySize =
      EventHead::Size + (E.Tensor ? tensorTailSize(*E.Tensor) : 0);
  Scratch.resize(RecordPrefixSize + BodySize);
  unsigned char *P = reinterpret_cast<unsigned char *>(&Scratch[0]);
  storeLE<1>(P, static_cast<std::uint8_t>(RecordTag::EventRecord));
  storeLE<4>(P + 1, BodySize);
  Head.store(P + RecordPrefixSize);
  if (E.Tensor)
    encodeTensorTail(P + RecordPrefixSize + EventHead::Size, *E.Tensor);
  writeBytes(Scratch.data(), Scratch.size());
  ++Stats.Events;
}

bool TraceWriter::finalize(SessionError &Err) {
  if (!Out && !Sink)
    return !WriteFailed;
  beginRecord(static_cast<std::uint8_t>(RecordTag::End));
  appendU64(Scratch, Stats.Events);
  appendU32(Scratch, static_cast<std::uint32_t>(Stats.Strings));
  appendU32(Scratch, static_cast<std::uint32_t>(Stats.Stacks));
  appendU32(Scratch, static_cast<std::uint32_t>(Stats.Kernels));
  finishRecord();
  bool CloseOk = true;
  if (Out) {
    CloseOk = std::fclose(Out) == 0;
    Out = nullptr;
  }
  Sink = nullptr;
  if (WriteFailed || !CloseOk) {
    WriteFailed = true;
    Err.assign("failed writing trace to '" + FilePath +
               "' (disk full or I/O error)");
    return false;
  }
  return true;
}
