//===- serve/SpillBuffer.h - Retained-frame replay buffer -------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of exactly-once streaming (docs/SERVE.md): a bounded
/// in-memory FIFO of sent frames a TraceStreamSink retains so it can
/// replay them after a disconnect — or after a daemon restart that lost
/// all server state, which is why frames stay retained *past* their ack
/// watermark until the byte budget (--spill-max-bytes) forces eviction.
/// Eviction only ever removes acked frames, oldest first; when even
/// that cannot make room, the new frame is not retained and append()
/// returns false so the sink can latch that future resumes may fail
/// (the current connection is unaffected — the frame was already sent).
///
/// Single-threaded by design: the only caller is the forwarding tool's
/// Serial hooks.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_SERVE_SPILLBUFFER_H
#define PASTA_SERVE_SPILLBUFFER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

namespace pasta {
namespace serve {

/// Bounded FIFO of (sequence, frame) pairs.
class SpillBuffer {
public:
  /// Sets the byte budget before first use (0 is treated as 1).
  void configure(std::uint64_t MaxBytes);

  /// Retains one sent frame (\p LenWord may carry the meta bit). False
  /// when the frame cannot be retained without evicting unacked frames;
  /// the buffer is unchanged in that case apart from acked evictions.
  bool append(std::uint64_t Sequence, std::uint32_t LenWord,
              const std::string &Payload);

  /// Records the server watermark: frames below \p Watermark become
  /// eligible for eviction (they are kept while the budget allows, so
  /// a daemon restart can still replay from zero).
  void ack(std::uint64_t Watermark) {
    if (Watermark > AckWatermark)
      AckWatermark = Watermark;
  }

  /// Replays retained frames with sequence >= \p From in order. Stops
  /// early (returning false) when \p Fn returns false.
  bool forEachFrom(std::uint64_t From,
                   const std::function<bool(std::uint64_t, std::uint32_t,
                                            const std::string &)> &Fn) const;

  bool empty() const { return Frames.empty(); }
  /// Oldest retained sequence; \p NextSequence when nothing is
  /// retained (the resume token for an empty buffer).
  std::uint64_t firstRetained(std::uint64_t NextSequence) const {
    return Frames.empty() ? NextSequence : Frames.front().Sequence;
  }
  std::uint64_t bytesRetained() const { return TotalBytes; }
  /// The budget append() enforces (configure()'s value, 0 read as 1).
  std::uint64_t maxBytes() const { return MaxBytes; }
  std::uint64_t ackWatermark() const { return AckWatermark; }

  /// Drops every frame.
  void clear();

private:
  struct Frame {
    std::uint64_t Sequence = 0;
    std::uint32_t LenWord = 0;
    std::string Payload;
  };

  std::uint64_t MaxBytes = 64ull << 20;
  std::deque<Frame> Frames;
  std::uint64_t TotalBytes = 0;
  std::uint64_t AckWatermark = 0;
};

} // namespace serve
} // namespace pasta

#endif // PASTA_SERVE_SPILLBUFFER_H
