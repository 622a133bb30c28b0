//===- pasta/EventArena.cpp -----------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Content-interning arena. Every payload's FNV-1a content hash keys the
// bucket tables; equality within a bucket confirms a hit.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventArena.h"

#include "pasta/Validate.h"

#include <cstring>
#include <ostream>
#include <utility>

using namespace pasta;

const std::string &PayloadString::emptyString() {
  static const std::string Empty;
  return Empty;
}

const PayloadStack::FrameList &PayloadStack::emptyFrames() {
  static const FrameList Empty;
  return Empty;
}

std::ostream &pasta::operator<<(std::ostream &Out, const PayloadString &S) {
  return Out << S.str();
}

namespace {

/// FNV-1a over 8-byte words, the content hash behind the intern tables
/// and TraceWriter's payload tables. Each
/// step folds in one host-order word (a short tail is zero-padded; the
/// callers hash lengths before variable-size data, so padding cannot
/// make two payloads collide). Only finalizeHash's output is used.
class ContentHash {
public:
  void bytes(const void *Data, std::size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (; Size >= 8; P += 8, Size -= 8) {
      std::uint64_t Word;
      std::memcpy(&Word, P, 8);
      step(Word);
    }
    if (Size != 0) {
      std::uint64_t Word = 0;
      std::memcpy(&Word, P, Size);
      step(Word);
    }
  }
  void u64(std::uint64_t Value) { bytes(&Value, sizeof(Value)); }
  void f64(double Value) { bytes(&Value, sizeof(Value)); }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  std::uint64_t value() const { return State; }

private:
  void step(std::uint64_t Word) { State = (State ^ Word) * 1099511628211ull; }

  std::uint64_t State = 14695981039346656037ull;
};

/// Murmur3-style avalanche over the raw FNV state. FNV-1a's low bits
/// diffuse poorly (bit k of a step depends only on bits 0..k of state
/// and input), and hash tables index by the low bits — payloads
/// differing in one digit would otherwise pile into a handful of
/// buckets.
std::uint64_t finalizeHash(std::uint64_t H) {
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return H;
}

std::uint64_t hashString(const std::string &S) {
  ContentHash H;
  H.str(S);
  return finalizeHash(H.value());
}

std::uint64_t hashFrames(const std::vector<std::string> &Frames) {
  ContentHash H;
  H.u64(Frames.size());
  for (const std::string &Frame : Frames)
    H.str(Frame);
  return finalizeHash(H.value());
}

bool dimEqual(const sim::Dim3 &A, const sim::Dim3 &B) {
  return A.X == B.X && A.Y == B.Y && A.Z == B.Z;
}

/// Bitwise double equality, matching the bitwise hash: NaN equals
/// itself here (a NaN-Flops descriptor must still intern to ONE entry,
/// or the table would grow per event) and +0.0 != -0.0 (they hash to
/// different buckets).
bool bitEqual(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool segmentEqual(const sim::AccessSegment &A,
                  const sim::AccessSegment &B) {
  return A.Base == B.Base && A.Extent == B.Extent &&
         A.AccessBytes == B.AccessBytes && A.Kind == B.Kind &&
         A.Space == B.Space;
}

} // namespace

std::uint64_t pasta::hashKernel(const sim::KernelDesc &K) {
  ContentHash H;
  H.str(K.Name);
  H.u64(K.Grid.count());
  H.u64(K.Block.count());
  H.f64(K.Flops);
  H.u64(K.Segments.size());
  for (const sim::AccessSegment &Seg : K.Segments) {
    H.u64(Seg.Base);
    H.u64(Seg.Extent);
    H.u64(Seg.AccessBytes);
  }
  return finalizeHash(H.value());
}

bool pasta::kernelEqual(const sim::KernelDesc &A, const sim::KernelDesc &B) {
  if (A.Name != B.Name || !dimEqual(A.Grid, B.Grid) ||
      !dimEqual(A.Block, B.Block) || !bitEqual(A.Flops, B.Flops) ||
      !bitEqual(A.ComputeInstrsPerAccess, B.ComputeInstrsPerAccess) ||
      A.StaticInstrs != B.StaticInstrs ||
      A.BarriersPerBlock != B.BarriersPerBlock ||
      A.SharedMemPerBlock != B.SharedMemPerBlock ||
      A.Segments.size() != B.Segments.size())
    return false;
  for (std::size_t I = 0; I < A.Segments.size(); ++I)
    if (!segmentEqual(A.Segments[I], B.Segments[I]))
      return false;
  return true;
}

namespace {

std::uint64_t stackBytes(const std::vector<std::string> &Frames) {
  std::uint64_t Total = Frames.size() * sizeof(std::string);
  for (const std::string &Frame : Frames)
    Total += Frame.size();
  return Total;
}

std::uint64_t kernelBytes(const sim::KernelDesc &K) {
  return sizeof(sim::KernelDesc) + K.Name.size() +
         K.Segments.size() * sizeof(sim::AccessSegment);
}

} // namespace

std::uint64_t PayloadString::contentHash() const {
  std::uint64_t Cached = HashCache.load(std::memory_order_relaxed);
  if (Cached != 0)
    return Cached;
  std::uint64_t Hash = hashString(str());
  HashCache.store(Hash, std::memory_order_relaxed);
  return Hash;
}

std::uint64_t PayloadStack::contentHash() const {
  std::uint64_t Cached = HashCache.load(std::memory_order_relaxed);
  if (Cached != 0)
    return Cached;
  std::uint64_t Hash = hashFrames(frames());
  HashCache.store(Hash, std::memory_order_relaxed);
  return Hash;
}

//===----------------------------------------------------------------------===//
// Interning
//===----------------------------------------------------------------------===//

PayloadString EventArena::internString(const PayloadString &S) {
  if (S.empty())
    return S;
  std::uint64_t Hash = S.contentHash();
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Bucket = Strings[Hash];
  for (const auto &Existing : Bucket)
    if (*Existing == S.str()) {
      ++Counters.Hits;
      PayloadString Canonical;
      Canonical.adopt(Existing);
      return Canonical;
    }
  // First sight: the payload's existing allocation becomes the
  // canonical resident one (no copy).
  Bucket.push_back(S.handle());
  ++Counters.Misses;
  ++Counters.Strings;
  Counters.Bytes += S.size();
  if (Val)
    Val->registerPayload(S.handle().get(), "string");
  return S;
}

PayloadStack EventArena::internStack(const PayloadStack &S) {
  if (S.empty())
    return S;
  std::uint64_t Hash = S.contentHash();
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Bucket = Stacks[Hash];
  for (const auto &Existing : Bucket)
    if (*Existing == S.frames()) {
      ++Counters.Hits;
      PayloadStack Canonical;
      Canonical.adopt(Existing);
      return Canonical;
    }
  Bucket.push_back(S.handle());
  ++Counters.Misses;
  ++Counters.Stacks;
  Counters.Bytes += stackBytes(S.frames());
  if (Val)
    Val->registerPayload(S.handle().get(), "stack");
  return S;
}

std::shared_ptr<const sim::KernelDesc>
EventArena::internKernel(const sim::KernelDesc &K) {
  std::uint64_t Hash = hashKernel(K);
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Bucket = Kernels[Hash];
  for (const auto &Existing : Bucket)
    if (kernelEqual(*Existing, K)) {
      ++Counters.Hits;
      return Existing;
    }
  auto Stored = std::make_shared<const sim::KernelDesc>(K);
  Bucket.push_back(Stored);
  ++Counters.Misses;
  ++Counters.Kernels;
  Counters.Bytes += kernelBytes(K);
  if (Val)
    Val->registerPayload(Stored.get(), "kernel");
  return Stored;
}

EventArenaStats EventArena::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}
