//===- pasta/TraceEventHead.h - Fixed head of an event record ---*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed 78-byte head every EventRecord body starts with
/// (docs/TRACE_FORMAT.md, "Event record body"), encoded and decoded at
/// fixed offsets. TraceWriter stores it straight into the record it is
/// building, and TraceReader loads it after one length check that
/// covers every field. An optional tensor tail follows the head; it is
/// variable-length and each side encodes it itself.
///
/// This is part of trace format version 2: the bytes are pinned by the
/// checked-in corpus (trace_capture_gate re-captures it byte for byte,
/// trace_corpus_gate replays it), so any edit here that moves a field
/// is a format change and needs a trace::Version bump.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_TRACEEVENTHEAD_H
#define PASTA_PASTA_TRACEEVENTHEAD_H

#include <cstddef>
#include <cstdint>

namespace pasta {
namespace trace {

/// Little-endian store of the low \p Bytes bytes of \p Value at \p Out.
/// Compilers merge the byte stores into one store on little-endian
/// hosts.
template <std::size_t Bytes>
inline void storeLE(unsigned char *Out, std::uint64_t Value) {
  for (std::size_t I = 0; I < Bytes; ++I)
    Out[I] = static_cast<unsigned char>(Value >> (8 * I));
}

/// Little-endian load of \p Bytes bytes at \p In.
template <std::size_t Bytes>
inline std::uint64_t loadLE(const unsigned char *In) {
  std::uint64_t Value = 0;
  for (std::size_t I = 0; I < Bytes; ++I)
    Value |= static_cast<std::uint64_t>(In[I]) << (8 * I);
  return Value;
}

/// The fixed fields of one event record, as raw wire values: enums are
/// their u8 codes and payloads are table ids (0 = absent). Range checks
/// belong to the reader.
struct EventHead {
  /// Encoded size: every field below at its fixed offset.
  static constexpr std::size_t Size = 78;

  std::uint8_t Kind = 0;
  std::uint8_t Vendor = 0;
  std::int32_t DeviceIndex = 0;
  std::uint32_t Stream = 0;
  std::uint64_t Timestamp = 0;
  std::uint64_t Address = 0;
  std::uint64_t Bytes = 0;
  std::uint8_t Managed = 0;
  std::uint8_t Direction = 0;
  std::uint64_t GridId = 0;
  std::uint32_t KernelId = 0;
  std::uint64_t PoolAllocated = 0;
  std::uint64_t PoolReserved = 0;
  std::uint32_t OpNameId = 0;
  std::uint32_t LayerNameId = 0;
  std::uint8_t Phase = 0;
  std::uint32_t StackId = 0;
  std::uint8_t HasTensor = 0;

  /// Writes the Size encoded bytes at \p Out.
  void store(unsigned char *Out) const {
    storeLE<1>(Out + 0, Kind);
    storeLE<1>(Out + 1, Vendor);
    storeLE<4>(Out + 2, static_cast<std::uint32_t>(DeviceIndex));
    storeLE<4>(Out + 6, Stream);
    storeLE<8>(Out + 10, Timestamp);
    storeLE<8>(Out + 18, Address);
    storeLE<8>(Out + 26, Bytes);
    storeLE<1>(Out + 34, Managed);
    storeLE<1>(Out + 35, Direction);
    storeLE<8>(Out + 36, GridId);
    storeLE<4>(Out + 44, KernelId);
    storeLE<8>(Out + 48, PoolAllocated);
    storeLE<8>(Out + 56, PoolReserved);
    storeLE<4>(Out + 64, OpNameId);
    storeLE<4>(Out + 68, LayerNameId);
    storeLE<1>(Out + 72, Phase);
    storeLE<4>(Out + 73, StackId);
    storeLE<1>(Out + 77, HasTensor);
  }

  /// Reads the fields from the Size bytes at \p In (the caller checked
  /// that many are there).
  void load(const unsigned char *In) {
    Kind = static_cast<std::uint8_t>(loadLE<1>(In + 0));
    Vendor = static_cast<std::uint8_t>(loadLE<1>(In + 1));
    DeviceIndex = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(loadLE<4>(In + 2)));
    Stream = static_cast<std::uint32_t>(loadLE<4>(In + 6));
    Timestamp = loadLE<8>(In + 10);
    Address = loadLE<8>(In + 18);
    Bytes = loadLE<8>(In + 26);
    Managed = static_cast<std::uint8_t>(loadLE<1>(In + 34));
    Direction = static_cast<std::uint8_t>(loadLE<1>(In + 35));
    GridId = loadLE<8>(In + 36);
    KernelId = static_cast<std::uint32_t>(loadLE<4>(In + 44));
    PoolAllocated = loadLE<8>(In + 48);
    PoolReserved = loadLE<8>(In + 56);
    OpNameId = static_cast<std::uint32_t>(loadLE<4>(In + 64));
    LayerNameId = static_cast<std::uint32_t>(loadLE<4>(In + 68));
    Phase = static_cast<std::uint8_t>(loadLE<1>(In + 72));
    StackId = static_cast<std::uint32_t>(loadLE<4>(In + 73));
    HasTensor = static_cast<std::uint8_t>(loadLE<1>(In + 77));
  }
};

} // namespace trace
} // namespace pasta

#endif // PASTA_PASTA_TRACEEVENTHEAD_H
