//===- pasta/TraceWriter.h - Binary trace capture ---------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes an admitted event stream into the PASTA binary trace
/// format (TraceFormat.h / docs/TRACE_FORMAT.md). The writer mirrors
/// the EventArena's content deduplication on disk: each distinct
/// string, Python stack and kernel descriptor is emitted once as a
/// payload-definition record, and events reference it by u32 id. Dedup
/// is keyed by *content* (not handle identity) so the writer is correct
/// for both arena-interned events and sync-mode events whose payloads
/// are per-event allocations — or one borrowed descriptor the producer
/// rewrites between launches. The id tables are keyed by the arena's
/// content hash (PayloadString/PayloadStack::contentHash, hashKernel)
/// and a hit is confirmed by equality against the writer's own copy, so
/// a payload is serialized only when it is new. Two payloads share an
/// id exactly when their definition records would be the same bytes.
///
/// Each record (prefix, body) is encoded in one pass into one buffer and
/// handed to the destination with one write.
///
/// Usage: open(), append() per admitted event, finalize() to emit the
/// required End record and close the file. All failures surface through
/// SessionError (no exceptions anywhere in PASTA).
///
/// The destination is pluggable: open() writes a capture file, while
/// openSink() writes the same byte stream into any TraceOutput — the
/// stream_forward tool points it at a TraceStreamSink socket connection
/// with the kFlagStreamed header flag, which is how a live session
/// ships its admitted stream to an `accelprof --serve` aggregator
/// (docs/SERVE.md).
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_TRACEWRITER_H
#define PASTA_PASTA_TRACEWRITER_H

#include "pasta/EventArena.h"
#include "pasta/SessionError.h"
#include "sim/Kernel.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace pasta {

struct Event;

/// Destination byte sink for TraceWriter: a capture file stays the
/// default, a TraceStreamSink socket connection is the streaming case.
/// write() returns false on a permanent failure; the writer then
/// latches failed and reports once, at finalize().
class TraceOutput {
public:
  virtual ~TraceOutput() = default;
  virtual bool write(const char *Data, std::size_t Size) = 0;
  /// Destination name for diagnostics ("file.trace", "socket:/run/x").
  virtual std::string describe() const = 0;
};

/// Capture-side counters (surfaced by the trace_capture tool's report).
struct TraceWriterStats {
  std::uint64_t Events = 0;
  /// Distinct payloads written to the definition tables, by kind.
  std::uint64_t Strings = 0;
  std::uint64_t Stacks = 0;
  std::uint64_t Kernels = 0;
  /// Payload references emitted in event records (id fields != 0).
  std::uint64_t PayloadRefs = 0;
  /// References resolved to an already-written definition — bytes the
  /// table encoding saved relative to inline payloads.
  std::uint64_t PayloadHits = 0;
  std::uint64_t BytesWritten = 0;
};

/// Streams Events into a binary trace file.
///
/// Not thread-safe: the intended producer is a Serial-lane tool
/// (trace_capture), which the dispatcher already serializes.
class TraceWriter {
public:
  TraceWriter() = default;
  ~TraceWriter();
  TraceWriter(const TraceWriter &) = delete;
  TraceWriter &operator=(const TraceWriter &) = delete;

  /// Creates \p Path (truncating) and writes the header with the
  /// capture-file flags word. False on failure with \p Err naming the
  /// file.
  bool open(const std::string &Path, SessionError &Err);

  /// Attaches \p Sink (not owned; must outlive the writer) and writes
  /// the header with \p Flags — trace::kFlagStreamed for socket
  /// streams. finalize() emits the End record but leaves the sink's
  /// lifecycle to its owner.
  bool openSink(TraceOutput &Sink, std::uint32_t Flags, SessionError &Err);

  bool isOpen() const { return Out != nullptr || Sink != nullptr; }
  const std::string &path() const { return FilePath; }

  /// Serializes one event, emitting definition records for any payload
  /// seen for the first time. Silently ignored when the writer is not
  /// open or a prior write failed (the failure is reported once, at
  /// finalize()).
  void append(const Event &E);

  /// Writes the End record, then closes the file (file mode) or
  /// detaches the sink (sink mode). Idempotent. False when any write
  /// (including earlier appends) failed, with \p Err naming the
  /// destination.
  bool finalize(SessionError &Err);

  const TraceWriterStats &stats() const { return Stats; }

private:
  /// Content hash -> ids of the payloads with that hash (almost always
  /// one); a candidate is confirmed against the writer's copy.
  using IdIndex = std::unordered_multimap<std::uint64_t, std::uint32_t>;

  std::uint32_t stringId(const PayloadString &S);
  std::uint32_t stackId(const PayloadStack &S);
  std::uint32_t kernelId(const sim::KernelDesc *K);
  /// Starts a record in Scratch: the tag and a length finishRecord()
  /// fills in once the body is appended.
  void beginRecord(std::uint8_t Tag);
  void finishRecord();
  void writeBytes(const char *Data, std::size_t Size);

  std::FILE *Out = nullptr;
  /// Non-null in sink mode (mutually exclusive with Out).
  TraceOutput *Sink = nullptr;
  std::string FilePath;
  bool WriteFailed = false;
  TraceWriterStats Stats;
  /// Id tables (ids start at 1; 0 means "absent"), bounded by distinct
  /// payloads. Strings and stacks keep a handle to the immutable payload
  /// they were defined from; kernels keep a copy, because an event may
  /// borrow a descriptor its producer rewrites for the next launch.
  IdIndex StringIds;
  IdIndex StackIds;
  IdIndex KernelIds;
  std::vector<PayloadString> Strings;
  std::vector<PayloadStack> Stacks;
  std::vector<sim::KernelDesc> Kernels;
  /// The last kernel id referenced: launch and complete events come in
  /// pairs, so it is checked before hashing.
  std::uint32_t LastKernelId = 0;
  /// Reused record buffer to keep append() allocation-free.
  std::string Scratch;
};

} // namespace pasta

#endif // PASTA_PASTA_TRACEWRITER_H
