//===- pasta/EventArena.h - Shared immutable event payloads -----*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared immutable event payloads and the intern table the trace
/// decoders canonicalize them into.
///
///  * PayloadString / PayloadStack — value types wrapping a refcounted
///    handle to an immutable payload. Copying one (and therefore copying
///    an Event) bumps a reference count instead of duplicating bytes.
///    Assignment from a plain string allocates once, at creation.
///
///  * EventArena — a content-deduplicating intern table: the thousandth
///    "aten::conv2d" resolves to the same allocation as the first, and
///    kernel descriptors resolve to shared, content-deduplicated copies.
///    The replay backend and the serve daemon's stream decoders
///    re-intern a trace's payload tables into their processor's arena
///    once, up front, so every decoded event shares canonical handles.
///    Live admission does not intern.
///
/// Ownership model: interned payloads are immutable and refcounted. The
/// arena keeps one reference for the dedup table (payloads are resident
/// for the arena's lifetime — bounded by the number of *distinct*
/// payloads, not the event volume); events and tools share further
/// references for free. A tool may keep any payload handle past
/// session teardown; the bytes stay alive until the last handle drops.
///
/// Thread safety: every EventArena method may be called concurrently
/// (one mutex guards the table; several connections decode into one
/// tenant's arena). PayloadString / PayloadStack are as thread-safe as
/// the shared_ptr they wrap: distinct copies may be read/written
/// concurrently, one instance must not be mutated while read.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_EVENTARENA_H
#define PASTA_PASTA_EVENTARENA_H

#include "sim/Kernel.h"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace pasta {

class Validator;

/// A shared immutable string payload. Behaves like a read-only
/// std::string (implicit conversion, comparisons, empty()/size()), but
/// copying is a reference-count bump, so copying an Event copies no
/// payload bytes. An empty value holds no allocation at all.
class PayloadString {
public:
  PayloadString() = default;
  PayloadString(const char *S) { assign(S ? std::string(S) : std::string()); }
  PayloadString(std::string S) { assign(std::move(S)); }
  PayloadString(const PayloadString &Other)
      : Handle(Other.Handle),
        HashCache(Other.HashCache.load(std::memory_order_relaxed)) {}
  PayloadString(PayloadString &&Other) noexcept
      : Handle(std::move(Other.Handle)),
        HashCache(Other.HashCache.load(std::memory_order_relaxed)) {}
  PayloadString &operator=(const PayloadString &Other) {
    Handle = Other.Handle;
    HashCache.store(Other.HashCache.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    return *this;
  }
  PayloadString &operator=(PayloadString &&Other) noexcept {
    Handle = std::move(Other.Handle);
    HashCache.store(Other.HashCache.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    return *this;
  }

  PayloadString &operator=(const char *S) {
    assign(S ? std::string(S) : std::string());
    return *this;
  }
  PayloadString &operator=(std::string S) {
    assign(std::move(S));
    return *this;
  }

  /// The payload text ("" when unset; never dangles).
  const std::string &str() const {
    return Handle ? *Handle : emptyString();
  }
  operator const std::string &() const { return str(); }
  const char *c_str() const { return str().c_str(); }
  bool empty() const { return !Handle || Handle->empty(); }
  std::size_t size() const { return Handle ? Handle->size() : 0; }

  friend bool operator==(const PayloadString &A, const PayloadString &B) {
    return A.Handle == B.Handle || A.str() == B.str();
  }
  friend bool operator!=(const PayloadString &A, const PayloadString &B) {
    return !(A == B);
  }
  friend bool operator==(const PayloadString &A, const char *B) {
    return A.str() == (B ? B : "");
  }
  friend bool operator==(const char *A, const PayloadString &B) {
    return B == A;
  }
  friend bool operator!=(const PayloadString &A, const char *B) {
    return !(A == B);
  }
  friend bool operator!=(const char *A, const PayloadString &B) {
    return !(B == A);
  }
  friend bool operator==(const PayloadString &A, const std::string &B) {
    return A.str() == B;
  }
  friend bool operator==(const std::string &A, const PayloadString &B) {
    return B == A;
  }
  friend bool operator!=(const PayloadString &A, const std::string &B) {
    return !(A == B);
  }
  friend bool operator!=(const std::string &A, const PayloadString &B) {
    return !(B == A);
  }
  friend bool operator<(const PayloadString &A, const PayloadString &B) {
    return A.str() < B.str();
  }

  /// The underlying refcounted handle (null when empty). Two values
  /// produced by the same arena compare equal on handle identity —
  /// tests use this to prove decoded events share storage.
  const std::shared_ptr<const std::string> &handle() const {
    return Handle;
  }
  /// Replaces the handle with \p H, which must reference *equal
  /// content* (the arena hands out canonical ones) — the cached content
  /// hash is deliberately kept.
  void adopt(std::shared_ptr<const std::string> H) {
    Handle = std::move(H);
  }
  /// True when both values share one allocation (not mere equality).
  bool sharesStorageWith(const PayloadString &Other) const {
    return Handle == Other.Handle;
  }

  /// The avalanched FNV-1a hash of the payload content, computed once
  /// per value and inherited by copies — so a handle reused across
  /// events (shared stack context, canonical arena handles) is never
  /// rehashed by the intern table or the trace writer. Thread-safe: a
  /// racing pair of readers fills the cache with the identical value.
  std::uint64_t contentHash() const;

private:
  void assign(std::string S) {
    Handle = S.empty() ? nullptr
                       : std::make_shared<const std::string>(std::move(S));
    HashCache.store(0, std::memory_order_relaxed);
  }
  static const std::string &emptyString();

  std::shared_ptr<const std::string> Handle;
  /// 0 = not yet computed (the hash itself is never 0 in practice; a
  /// collision with 0 merely recomputes).
  mutable std::atomic<std::uint64_t> HashCache{0};
};

std::ostream &operator<<(std::ostream &Out, const PayloadString &S);

/// A shared immutable Python-stack payload (frames innermost-first).
/// Same refcounted-copy semantics as PayloadString; iterable like the
/// std::vector<std::string> it replaced.
class PayloadStack {
public:
  using FrameList = std::vector<std::string>;

  PayloadStack() = default;
  PayloadStack(FrameList Frames) { assign(std::move(Frames)); }
  PayloadStack(std::initializer_list<std::string> Frames)
      : PayloadStack(FrameList(Frames)) {}
  PayloadStack(const PayloadStack &Other)
      : Handle(Other.Handle),
        HashCache(Other.HashCache.load(std::memory_order_relaxed)) {}
  PayloadStack(PayloadStack &&Other) noexcept
      : Handle(std::move(Other.Handle)),
        HashCache(Other.HashCache.load(std::memory_order_relaxed)) {}
  PayloadStack &operator=(const PayloadStack &Other) {
    Handle = Other.Handle;
    HashCache.store(Other.HashCache.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    return *this;
  }
  PayloadStack &operator=(PayloadStack &&Other) noexcept {
    Handle = std::move(Other.Handle);
    HashCache.store(Other.HashCache.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    return *this;
  }
  PayloadStack &operator=(FrameList Frames) {
    assign(std::move(Frames));
    return *this;
  }
  PayloadStack &operator=(std::initializer_list<std::string> Frames) {
    assign(FrameList(Frames));
    return *this;
  }

  /// The frames ([] when unset; never dangles).
  const FrameList &frames() const {
    return Handle ? *Handle : emptyFrames();
  }
  operator const FrameList &() const { return frames(); }
  bool empty() const { return !Handle || Handle->empty(); }
  std::size_t size() const { return Handle ? Handle->size() : 0; }
  FrameList::const_iterator begin() const { return frames().begin(); }
  FrameList::const_iterator end() const { return frames().end(); }
  const std::string &operator[](std::size_t I) const {
    return frames()[I];
  }

  friend bool operator==(const PayloadStack &A, const PayloadStack &B) {
    return A.Handle == B.Handle || A.frames() == B.frames();
  }
  friend bool operator!=(const PayloadStack &A, const PayloadStack &B) {
    return !(A == B);
  }

  const std::shared_ptr<const FrameList> &handle() const { return Handle; }
  /// \p H must reference equal content (see PayloadString::adopt).
  void adopt(std::shared_ptr<const FrameList> H) { Handle = std::move(H); }
  bool sharesStorageWith(const PayloadStack &Other) const {
    return Handle == Other.Handle;
  }

  /// Cached avalanched content hash (see PayloadString::contentHash).
  std::uint64_t contentHash() const;

private:
  void assign(FrameList Frames) {
    Handle = Frames.empty()
                 ? nullptr
                 : std::make_shared<const FrameList>(std::move(Frames));
    HashCache.store(0, std::memory_order_relaxed);
  }
  static const FrameList &emptyFrames();

  std::shared_ptr<const FrameList> Handle;
  mutable std::atomic<std::uint64_t> HashCache{0};
};

/// The avalanched content hash of a kernel descriptor (name, launch
/// sizes, FLOPs, segments) — the key of the arena's kernel tables and of
/// TraceWriter's KernelDef table. Equal descriptors hash equal; a match
/// is confirmed with kernelEqual.
std::uint64_t hashKernel(const sim::KernelDesc &K);

/// Field-for-field descriptor equality, doubles compared bitwise (a NaN
/// equals itself, +0.0 differs from -0.0), so it agrees with hashKernel.
bool kernelEqual(const sim::KernelDesc &A, const sim::KernelDesc &B);

/// Arena occupancy and effectiveness counters (snapshot via
/// EventArena::stats(); surfaced through ProcessorStats).
struct EventArenaStats {
  /// Distinct payloads resident, by kind. Tensor descriptors are
  /// deliberately absent: they are per-instance (id/address identity),
  /// so a dedup table would grow with event volume.
  std::uint64_t Strings = 0;
  std::uint64_t Stacks = 0;
  std::uint64_t Kernels = 0;
  /// Approximate bytes those payloads occupy — once, shared by every
  /// event and tool that references them.
  std::uint64_t Bytes = 0;
  /// Intern lookups resolved to an existing payload; each hit is an
  /// allocation avoided.
  std::uint64_t Hits = 0;
  /// Intern lookups that created a new resident payload.
  std::uint64_t Misses = 0;

  std::uint64_t payloads() const { return Strings + Stacks + Kernels; }
};

/// Content-deduplicating intern table for event payloads, one per
/// EventProcessor.
///
/// Payloads are resident until the arena dies (no eviction): occupancy
/// is bounded by the distinct operator names, layer paths, stacks and
/// kernel descriptors of the workload — profiling metadata, not event
/// volume.
class EventArena {
public:
  EventArena() = default;
  EventArena(const EventArena &) = delete;
  EventArena &operator=(const EventArena &) = delete;

  /// Returns the canonical handle for \p S's content, registering it on
  /// first sight (reuses \p S's existing allocation — no copy).
  PayloadString internString(const PayloadString &S);
  /// Stack-payload equivalent of internString.
  PayloadStack internStack(const PayloadStack &S);
  /// Returns the canonical shared descriptor equal to \p K, copying it
  /// into the arena on first sight.
  std::shared_ptr<const sim::KernelDesc>
  internKernel(const sim::KernelDesc &K);

  EventArenaStats stats() const;

  /// Wires the PASTA_VALIDATE payload ledger: every payload made
  /// resident is registered with \p V (canary-tracked; see
  /// pasta/Validate.h). Null detaches. The processor calls this once at
  /// construction, before any interning.
  void setValidator(Validator *V) { Val = V; }

private:
  /// Guards the tables and Counters.
  mutable std::mutex Mutex;
  /// Content-hash buckets; equality is verified within a bucket.
  std::unordered_map<std::uint64_t,
                     std::vector<std::shared_ptr<const std::string>>>
      Strings;
  std::unordered_map<std::uint64_t,
                     std::vector<std::shared_ptr<
                         const std::vector<std::string>>>>
      Stacks;
  std::unordered_map<std::uint64_t,
                     std::vector<std::shared_ptr<const sim::KernelDesc>>>
      Kernels;
  EventArenaStats Counters;
  /// PASTA_VALIDATE payload ledger (null when validation is off).
  /// Written once before any interning; read under Mutex on miss paths.
  Validator *Val = nullptr;
};

} // namespace pasta

#endif // PASTA_PASTA_EVENTARENA_H
