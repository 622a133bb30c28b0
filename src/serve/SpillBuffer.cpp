//===- serve/SpillBuffer.cpp ----------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/SpillBuffer.h"

using namespace pasta;
using namespace pasta::serve;

void SpillBuffer::configure(std::uint64_t NewMaxBytes) {
  MaxBytes = NewMaxBytes == 0 ? 1 : NewMaxBytes;
}

bool SpillBuffer::append(std::uint64_t Sequence, std::uint32_t LenWord,
                         const std::string &Payload) {
  // Make room by evicting acked frames, oldest first; unacked frames
  // are never evicted.
  while (TotalBytes + Payload.size() > MaxBytes && !Frames.empty() &&
         Frames.front().Sequence < AckWatermark) {
    TotalBytes -= Frames.front().Payload.size();
    Frames.pop_front();
  }
  if (TotalBytes + Payload.size() > MaxBytes)
    return false;
  Frames.push_back({Sequence, LenWord, Payload});
  TotalBytes += Payload.size();
  return true;
}

bool SpillBuffer::forEachFrom(
    std::uint64_t From,
    const std::function<bool(std::uint64_t, std::uint32_t,
                             const std::string &)> &Fn) const {
  for (const Frame &F : Frames)
    if (F.Sequence >= From && !Fn(F.Sequence, F.LenWord, F.Payload))
      return false;
  return true;
}

void SpillBuffer::clear() {
  Frames.clear();
  TotalBytes = 0;
}
