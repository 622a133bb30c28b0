//===- pasta/EventArena.cpp -----------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Sharded content-interning arena. Every payload's FNV-1a content hash
// does double duty: it picks the shard (hash % shard count) and keys
// both the shard's bucket table and the thread-local memo. The memo is
// a tiny direct-mapped cache per thread and payload kind, tagged with a
// process-unique arena id; a hit returns the canonical handle with zero
// lock acquisitions — the steady state for workloads that repeat the
// same operator names and Python stacks every training step.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventArena.h"

#include "pasta/Events.h"
#include "pasta/Validate.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <ostream>
#include <thread>
#include <unordered_map>
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

/// FNV-1a over 8-byte words, the content hash behind the sharded intern
/// tables, the thread-local memo and TraceWriter's payload tables. Each
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
/// and input), and both the memo sets and the shard index are taken
/// modulo small powers of two — payloads differing in one digit would
/// otherwise pile into a handful of sets/shards.
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

//===----------------------------------------------------------------------===//
// Thread-local intern memo
//===----------------------------------------------------------------------===//

/// One 2-way set-associative memo with LRU within each set (way 0 is
/// most recent): the last payloads seen per hash set. Two ways stop the
/// pair-thrash a direct map suffers when two hot payloads share a slot
/// — a training step's repeated working set then hits ~always. Entries
/// are tagged with the owning arena's process-unique id, so several
/// arenas (tests, multiple processors) share a thread's memo without
/// cross-talk; a dead arena's entries are purged on the thread's next
/// intern (ThreadMemos::purgeIfStale).
template <typename HandleT, std::size_t Sets> struct Memo {
  struct Entry {
    std::uint64_t ArenaId = 0;
    std::uint64_t Hash = 0;
    HandleT Handle;
  };
  std::array<Entry, 2 * Sets> Entries;

  Entry *set(std::uint64_t Hash) { return &Entries[2 * (Hash % Sets)]; }

  /// The cached canonical handle, or null when absent. The caller still
  /// verifies content equality (a 64-bit tag is not proof).
  const HandleT *lookup(std::uint64_t ArenaId, std::uint64_t Hash) {
    Entry *Way = set(Hash);
    if (Way[0].ArenaId == ArenaId && Way[0].Hash == Hash && Way[0].Handle)
      return &Way[0].Handle;
    if (Way[1].ArenaId == ArenaId && Way[1].Hash == Hash &&
        Way[1].Handle) {
      std::swap(Way[0], Way[1]); // promote to MRU
      return &Way[0].Handle;
    }
    return nullptr;
  }
  void install(std::uint64_t ArenaId, std::uint64_t Hash,
               HandleT Handle) {
    Entry *Way = set(Hash);
    if (!(Way[0].ArenaId == ArenaId && Way[0].Hash == Hash))
      std::swap(Way[0], Way[1]); // evict LRU, demote MRU
    Way[0] = Entry{ArenaId, Hash, std::move(Handle)};
  }
};

/// Bumped by every EventArena destructor; threads purge their memos on
/// the next intern when it moved (see ThreadMemos::purgeIfStale).
std::atomic<std::uint64_t> ArenaDeathEpoch{0};

struct ThreadMemos {
  Memo<std::shared_ptr<const std::string>, 64> Strings;
  Memo<std::shared_ptr<const std::vector<std::string>>, 32> Stacks;
  Memo<std::shared_ptr<const sim::KernelDesc>, 32> Kernels;
  std::uint64_t SeenDeathEpoch = 0;

  /// Drops every cached handle once any arena died since the last
  /// intern on this thread. Without this, a thread that interned once
  /// would pin a dead arena's payloads (up to the memo capacity) for
  /// its remaining lifetime; live arenas merely re-warm their entries.
  /// Cost when nothing died: one relaxed load per intern call.
  void purgeIfStale() {
    std::uint64_t Epoch = ArenaDeathEpoch.load(std::memory_order_relaxed);
    if (Epoch == SeenDeathEpoch)
      return;
    SeenDeathEpoch = Epoch;
    Strings = {};
    Stacks = {};
    Kernels = {};
  }
};

ThreadMemos &threadMemos() {
  thread_local ThreadMemos Memos;
  Memos.purgeIfStale();
  return Memos;
}

std::uint64_t nextArenaId() {
  static std::atomic<std::uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
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
// Shards
//===----------------------------------------------------------------------===//

/// One content-hash shard: its own mutex, bucket tables and counters.
/// All fields are guarded by Mutex; stats() walks the shards.
struct EventArena::Shard {
  std::mutex Mutex;
  /// Content-hash buckets; equality is verified within a bucket (the
  /// hash already routed to this shard, so buckets are per-shard).
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
};

std::size_t EventArena::defaultShardCount() {
  unsigned Hw = std::thread::hardware_concurrency();
  std::size_t Shards = 1;
  while (Shards < Hw && Shards < 16)
    Shards <<= 1;
  return Shards;
}

namespace {

std::size_t resolveShardCount(const EventArenaOptions &Opts) {
  if (Opts.Shards == 0)
    return EventArena::defaultShardCount();
  return std::min<std::size_t>(Opts.Shards, 64);
}

} // namespace

EventArena::EventArena() : EventArena(EventArenaOptions()) {}

EventArena::EventArena(const EventArenaOptions &Opts)
    : Opts(Opts), Id(nextArenaId()) {
  std::size_t Count = resolveShardCount(Opts);
  Shards.reserve(Count);
  for (std::size_t I = 0; I < Count; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

EventArena::~EventArena() {
  // Tell every thread's memo to drop cached handles on its next intern
  // — otherwise producer threads would pin this arena's payloads (up
  // to the memo capacity each) for their remaining lifetime.
  ArenaDeathEpoch.fetch_add(1, std::memory_order_relaxed);
}

std::unique_lock<std::mutex> EventArena::lockShard(Shard &S) {
  std::unique_lock<std::mutex> Lock(S.Mutex, std::try_to_lock);
  if (!Lock.owns_lock()) {
    // Another producer holds this shard: the contention the sharding
    // exists to minimize. Count it, then wait.
    Contention.fetch_add(1, std::memory_order_relaxed);
    Lock.lock();
  }
  return Lock;
}

//===----------------------------------------------------------------------===//
// Event-level interning
//===----------------------------------------------------------------------===//

void EventArena::intern(Event &E) {
  // Pin the tensor pointee outside any lock (no table involved).
  // Descriptors live on the producing callback's stack and die when it
  // returns; an admitted event outlives that frame. Skip when already
  // owned, so interning an event twice is a no-op.
  if (E.Tensor && !E.ownedTensor())
    E.adoptTensor(pinTensor(*E.Tensor));

  // Gather the payloads the memo cannot resolve, then visit each
  // involved shard exactly once. OpName/LayerName/Stack/Kernel is the
  // complete shardable payload set of an Event.
  enum PayloadKind : std::uint8_t { POpName, PLayerName, PStack, PKernel };
  struct PayloadOp {
    PayloadKind What;
    std::uint64_t Hash;
  };
  PayloadOp Ops[4];
  std::size_t NumOps = 0;
  ThreadMemos &Memos = threadMemos();
  const bool UseMemo = Opts.InternMemo;

  if (!E.OpName.empty()) {
    std::uint64_t Hash = E.OpName.contentHash();
    const auto *Cached =
        UseMemo ? Memos.Strings.lookup(Id, Hash) : nullptr;
    if (Cached && **Cached == E.OpName.str()) {
      E.OpName.adopt(*Cached);
      MemoHits.fetch_add(1, std::memory_order_relaxed);
    } else {
      Ops[NumOps++] = {POpName, Hash};
    }
  }
  if (!E.LayerName.empty()) {
    std::uint64_t Hash = E.LayerName.contentHash();
    const auto *Cached =
        UseMemo ? Memos.Strings.lookup(Id, Hash) : nullptr;
    if (Cached && **Cached == E.LayerName.str()) {
      E.LayerName.adopt(*Cached);
      MemoHits.fetch_add(1, std::memory_order_relaxed);
    } else {
      Ops[NumOps++] = {PLayerName, Hash};
    }
  }
  if (!E.PythonStack.empty()) {
    std::uint64_t Hash = E.PythonStack.contentHash();
    const auto *Cached =
        UseMemo ? Memos.Stacks.lookup(Id, Hash) : nullptr;
    if (Cached && **Cached == E.PythonStack.frames()) {
      E.PythonStack.adopt(*Cached);
      MemoHits.fetch_add(1, std::memory_order_relaxed);
    } else {
      Ops[NumOps++] = {PStack, Hash};
    }
  }
  if (E.Kernel) {
    std::uint64_t Hash = hashKernel(*E.Kernel);
    const auto *Cached =
        UseMemo ? Memos.Kernels.lookup(Id, Hash) : nullptr;
    if (Cached && kernelEqual(**Cached, *E.Kernel)) {
      E.adoptKernel(*Cached);
      MemoHits.fetch_add(1, std::memory_order_relaxed);
    } else {
      Ops[NumOps++] = {PKernel, Hash};
    }
  }
  if (NumOps == 0)
    return;

  // Group by shard: one lock acquisition per involved shard per event.
  bool Done[4] = {false, false, false, false};
  for (std::size_t I = 0; I < NumOps; ++I) {
    if (Done[I])
      continue;
    Shard &S = shardFor(Ops[I].Hash);
    std::unique_lock<std::mutex> Lock = lockShard(S);
    for (std::size_t J = I; J < NumOps; ++J) {
      if (Done[J] || &shardFor(Ops[J].Hash) != &S)
        continue;
      Done[J] = true;
      switch (Ops[J].What) {
      case POpName:
        E.OpName = internStringLocked(S, Ops[J].Hash, E.OpName);
        break;
      case PLayerName:
        E.LayerName = internStringLocked(S, Ops[J].Hash, E.LayerName);
        break;
      case PStack:
        E.PythonStack = internStackLocked(S, Ops[J].Hash, E.PythonStack);
        break;
      case PKernel:
        E.adoptKernel(internKernelLocked(S, Ops[J].Hash, *E.Kernel));
        break;
      }
    }
  }
  // Install the canonical results in the memo, outside any lock.
  if (UseMemo) {
    for (std::size_t I = 0; I < NumOps; ++I) {
      switch (Ops[I].What) {
      case POpName:
        if (E.OpName.handle())
          Memos.Strings.install(Id, Ops[I].Hash, E.OpName.handle());
        break;
      case PLayerName:
        if (E.LayerName.handle())
          Memos.Strings.install(Id, Ops[I].Hash, E.LayerName.handle());
        break;
      case PStack:
        if (E.PythonStack.handle())
          Memos.Stacks.install(Id, Ops[I].Hash, E.PythonStack.handle());
        break;
      case PKernel:
        if (E.ownedKernel())
          Memos.Kernels.install(Id, Ops[I].Hash, E.ownedKernel());
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Per-payload interning
//===----------------------------------------------------------------------===//

PayloadString EventArena::internString(const PayloadString &S) {
  if (S.empty())
    return S;
  std::uint64_t Hash = S.contentHash();
  ThreadMemos &Memos = threadMemos();
  if (Opts.InternMemo) {
    if (const auto *Cached = Memos.Strings.lookup(Id, Hash);
        Cached && **Cached == S.str()) {
      MemoHits.fetch_add(1, std::memory_order_relaxed);
      PayloadString Canonical;
      Canonical.adopt(*Cached);
      return Canonical;
    }
  }
  Shard &Sh = shardFor(Hash);
  PayloadString Result;
  {
    std::unique_lock<std::mutex> Lock = lockShard(Sh);
    Result = internStringLocked(Sh, Hash, S);
  }
  if (Opts.InternMemo && Result.handle())
    Memos.Strings.install(Id, Hash, Result.handle());
  return Result;
}

PayloadString EventArena::internStringLocked(Shard &S, std::uint64_t Hash,
                                             const PayloadString &Str) {
  auto &Bucket = S.Strings[Hash];
  for (const auto &Existing : Bucket)
    if (*Existing == Str.str()) {
      ++S.Counters.Hits;
      PayloadString Canonical;
      Canonical.adopt(Existing);
      return Canonical;
    }
  // First sight: the payload's existing allocation becomes the
  // canonical resident one (no copy).
  Bucket.push_back(Str.handle());
  ++S.Counters.Misses;
  ++S.Counters.Strings;
  S.Counters.Bytes += Str.size();
  if (Val)
    Val->registerPayload(Str.handle().get(), "string");
  return Str;
}

PayloadStack EventArena::internStack(const PayloadStack &S) {
  if (S.empty())
    return S;
  std::uint64_t Hash = S.contentHash();
  ThreadMemos &Memos = threadMemos();
  if (Opts.InternMemo) {
    if (const auto *Cached = Memos.Stacks.lookup(Id, Hash);
        Cached && **Cached == S.frames()) {
      MemoHits.fetch_add(1, std::memory_order_relaxed);
      PayloadStack Canonical;
      Canonical.adopt(*Cached);
      return Canonical;
    }
  }
  Shard &Sh = shardFor(Hash);
  PayloadStack Result;
  {
    std::unique_lock<std::mutex> Lock = lockShard(Sh);
    Result = internStackLocked(Sh, Hash, S);
  }
  if (Opts.InternMemo && Result.handle())
    Memos.Stacks.install(Id, Hash, Result.handle());
  return Result;
}

PayloadStack EventArena::internStackLocked(Shard &S, std::uint64_t Hash,
                                           const PayloadStack &Stack) {
  auto &Bucket = S.Stacks[Hash];
  for (const auto &Existing : Bucket)
    if (*Existing == Stack.frames()) {
      ++S.Counters.Hits;
      PayloadStack Canonical;
      Canonical.adopt(Existing);
      return Canonical;
    }
  Bucket.push_back(Stack.handle());
  ++S.Counters.Misses;
  ++S.Counters.Stacks;
  S.Counters.Bytes += stackBytes(Stack.frames());
  if (Val)
    Val->registerPayload(Stack.handle().get(), "stack");
  return Stack;
}

std::shared_ptr<const sim::KernelDesc>
EventArena::internKernel(const sim::KernelDesc &K) {
  std::uint64_t Hash = hashKernel(K);
  ThreadMemos &Memos = threadMemos();
  if (Opts.InternMemo) {
    if (const auto *Cached = Memos.Kernels.lookup(Id, Hash);
        Cached && kernelEqual(**Cached, K)) {
      MemoHits.fetch_add(1, std::memory_order_relaxed);
      return *Cached;
    }
  }
  Shard &Sh = shardFor(Hash);
  std::shared_ptr<const sim::KernelDesc> Result;
  {
    std::unique_lock<std::mutex> Lock = lockShard(Sh);
    Result = internKernelLocked(Sh, Hash, K);
  }
  if (Opts.InternMemo && Result)
    Memos.Kernels.install(Id, Hash, Result);
  return Result;
}

std::shared_ptr<const sim::KernelDesc>
EventArena::internKernelLocked(Shard &S, std::uint64_t Hash,
                               const sim::KernelDesc &K) {
  auto &Bucket = S.Kernels[Hash];
  for (const auto &Existing : Bucket)
    if (kernelEqual(*Existing, K)) {
      ++S.Counters.Hits;
      return Existing;
    }
  auto Stored = std::make_shared<const sim::KernelDesc>(K);
  Bucket.push_back(Stored);
  ++S.Counters.Misses;
  ++S.Counters.Kernels;
  S.Counters.Bytes += kernelBytes(K);
  if (Val)
    Val->registerPayload(Stored.get(), "kernel");
  return Stored;
}

std::shared_ptr<const dl::TensorInfo>
EventArena::pinTensor(const dl::TensorInfo &T) {
  // Deliberately not interned: tensor identity is per-instance (id,
  // allocator address), so a dedup table would grow with event volume.
  // The one shared copy is what every fan-out lane references; it dies
  // with the last event handle.
  return std::make_shared<const dl::TensorInfo>(T);
}

EventArenaStats EventArena::stats() const {
  EventArenaStats Total;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Total.Strings += S->Counters.Strings;
    Total.Stacks += S->Counters.Stacks;
    Total.Kernels += S->Counters.Kernels;
    Total.Bytes += S->Counters.Bytes;
    Total.Hits += S->Counters.Hits;
    Total.Misses += S->Counters.Misses;
  }
  // Memo hits are hits too: each one is an allocation (and its per-lane
  // copies) avoided, served without even a shard lock.
  Total.MemoHits = MemoHits.load(std::memory_order_relaxed);
  Total.Hits += Total.MemoHits;
  Total.ShardContention = Contention.load(std::memory_order_relaxed);
  Total.Shards = Shards.size();
  return Total;
}
