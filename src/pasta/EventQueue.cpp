//===- pasta/EventQueue.cpp -----------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ticketed MPSC ring. The admission fast path is lock-free: a producer
// claims a ticket (fetch-add when the admission cannot fail, a
// fullness-checked CAS for lossy policies), writes the event into the
// ticket's slot, and publishes it by storing ticket+1 into the slot's
// sequence number. The single consumer drains contiguously published
// slots in ticket order and frees them by storing ticket+ring-size.
//
// Parking is the only place a lock appears, and it is reached only when
// the ring is actually full (producers) or actually empty (consumer).
// Wakeups are targeted through waiter counters: the publishing /
// draining side first executes a seq_cst fence and then reads the
// counter — paired with the waiter's counter-increment + fence before
// its predicate check, this closes the classic store/load (SB) race
// without putting a seq_cst store on the per-event path.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventQueue.h"

#include "pasta/EventArena.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <thread>

using namespace pasta;

const char *pasta::overflowPolicyName(OverflowPolicy Policy) {
  switch (Policy) {
  case OverflowPolicy::Block:
    return "block";
  case OverflowPolicy::DropNewest:
    return "drop-newest";
  case OverflowPolicy::Sample:
    return "sample";
  }
  return "unknown";
}

std::optional<OverflowPolicy>
pasta::parseOverflowPolicy(const std::string &Name) {
  if (Name == "block")
    return OverflowPolicy::Block;
  if (Name == "drop" || Name == "drop-newest")
    return OverflowPolicy::DropNewest;
  if (Name == "sample")
    return OverflowPolicy::Sample;
  return std::nullopt;
}

std::size_t pasta::defaultQueueSpinIterations() {
  return std::thread::hardware_concurrency() > 1 ? 64 : 0;
}

namespace {

std::size_t roundUpPow2(std::size_t Value) {
  std::size_t Pow = 1;
  while (Pow < Value)
    Pow <<= 1;
  return Pow;
}

/// Queue ids are process-unique so a thread-local memo entry can never
/// mistake a new queue at a recycled address for the one it counted
/// overflow for (the EventArena intern-memo pattern).
std::atomic<std::uint64_t> NextQueueId{1};

/// Bumped by every ~EventQueue: a memo that last synced under an older
/// generation may hold entries for destroyed queues, so it drops them
/// all before serving (sampleMemoFor). Without this, the thread-local
/// entries outlive their queues — a workload that creates and destroys
/// many sessions on one thread accumulates dead cadence state that a
/// later id collision would resurrect mid-count instead of starting the
/// fresh queue's 1/N cadence at zero.
std::atomic<std::uint64_t> MemoGeneration{1};

/// Per-producer Sample-policy state: each producer thread counts the
/// overflow *it* sees for each queue, so the sampled-out fast path is
/// write-free outside the thread (only the SampledOut accounting counter
/// is shared, and only on the discard branch). Direct-mapped by queue
/// id; a collision between two live queues merely resets a count — the
/// sampling cadence restarts, accounting stays exact (every discarded
/// event still increments SampledOut).
struct SampleMemoEntry {
  std::uint64_t QueueId = 0;
  std::uint64_t Seen = 0;
};

constexpr std::size_t SampleMemoSlots = 16;

SampleMemoEntry &sampleMemoFor(std::uint64_t QueueId) {
  thread_local std::array<SampleMemoEntry, SampleMemoSlots> Memo;
  thread_local std::uint64_t SeenGeneration = 0;
  // Acquire pairs with the destructor's release bump: stale entries are
  // flushed before any queue constructed after a destruction is served.
  std::uint64_t Generation =
      MemoGeneration.load(std::memory_order_acquire);
  if (SeenGeneration != Generation) {
    SeenGeneration = Generation;
    Memo.fill(SampleMemoEntry{});
  }
  SampleMemoEntry &Entry = Memo[QueueId % SampleMemoSlots];
  if (Entry.QueueId != QueueId) {
    Entry.QueueId = QueueId;
    Entry.Seen = 0;
  }
  return Entry;
}

} // namespace

EventQueue::EventQueue(std::size_t Capacity, OverflowPolicy Policy,
                       std::uint64_t SampleEveryN,
                       std::size_t SpinIterations)
    : Capacity(std::min<std::size_t>(Capacity, MaxCapacity)),
      Policy(Policy), SampleEveryN(SampleEveryN),
      SpinIterations(SpinIterations),
      Id(NextQueueId.fetch_add(1, std::memory_order_relaxed)) {
  assert(Capacity > 0 && "queue depth must be positive");
  assert(SampleEveryN > 0 && "sample modulus must be positive");
  std::size_t RingSize = roundUpPow2(this->Capacity);
  RingMask = RingSize - 1;
  Ring = std::vector<Slot>(RingSize);
  // Seq == index marks every slot free for its first-lap ticket.
  for (std::size_t I = 0; I < RingSize; ++I)
    Ring[I].Seq.store(I, std::memory_order_relaxed);
}

EventQueue::~EventQueue() {
  // Invalidate every producer's thread-local Sample memo: entries for
  // this queue must not survive into a future queue's cadence.
  MemoGeneration.fetch_add(1, std::memory_order_release);
}

std::optional<std::uint64_t> EventQueue::claimTicket() {
  std::uint64_t Claim = Tail.fetch_add(1, std::memory_order_seq_cst);
  if (!isClosed(Claim))
    return Claim;
  // Closed before this claim in Tail's modification order: void it.
  // Repair the counter (void claims are exactly cancelled — once the
  // bit is set every later claim is void too), count the loss so
  // conservation invariants (enqueued + dropped + sampled-out == sent)
  // keep holding, and release any drain waiter watching the transient
  // inflation.
  Tail.fetch_sub(1, std::memory_order_seq_cst);
  Counters.Dropped.fetch_add(1, std::memory_order_relaxed);
  notifyDrainedIfIdle();
  return std::nullopt;
}

void EventQueue::enqueue(Event E, bool Critical,
                         EventArena *InternOnAdmit) {
  // Must-admit path (Block policy, critical events, and the admitted
  // 1/N of Sample's overflow): the claim cannot fail, so it is a plain
  // fetch-add ticket; if the ring is full the producer waits for space
  // *after* claiming — ticket order is what preserves per-producer FIFO.
  // Closure is checked on the claimed word itself (see claimTicket), so
  // an enqueue racing close() is either delivered or counted dropped —
  // never stranded.
  if (Critical || Policy == OverflowPolicy::Block) {
    std::optional<std::uint64_t> Ticket = claimTicket();
    if (!Ticket)
      return;
    if (*Ticket - Head.load(std::memory_order_seq_cst) >= Capacity)
      awaitSpace(*Ticket);
    publish(*Ticket, std::move(E), InternOnAdmit);
    return;
  }

  // Lossy policies: never claim a ticket the policy might discard — a
  // claimed-but-unpublished ticket would stall the in-order consumer.
  // The fullness check and the claim sit in one CAS loop, so a
  // successful claim implies the slot is already free (no waiting, which
  // is what keeps DropNewest non-blocking).
  std::uint64_t TailWord = Tail.load(std::memory_order_relaxed);
  for (;;) {
    if (isClosed(TailWord)) {
      Counters.Dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Signed distance: a stale ticket can sit *behind* Head (other
    // producers claimed past it and the consumer drained); that must
    // read as "not full" so the CAS below refreshes it, not as a bogus
    // wrapped-around overflow.
    std::int64_t Used = static_cast<std::int64_t>(
        TailWord - Head.load(std::memory_order_seq_cst));
    if (Used >= static_cast<std::int64_t>(Capacity)) {
      switch (Policy) {
      case OverflowPolicy::Block:
        break; // unreachable (handled above)
      case OverflowPolicy::DropNewest:
        Counters.Dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      case OverflowPolicy::Sample: {
        // The first N-1 of every N overflowing events are sampled out;
        // the Nth is admitted, waiting for space like Block. Sampling
        // before blocking means a stalled consumer still accumulates
        // sampled-out counts instead of wedging the producer on the
        // very first overflow. The modular counter is per producer
        // thread (see sampleMemoFor): each producer keeps 1/N of the
        // overflow it sees, with no shared write on the discard path
        // beyond the SampledOut accounting counter.
        std::uint64_t Seen = ++sampleMemoFor(Id).Seen;
        if (Seen % SampleEveryN != 0) {
          Counters.SampledOut.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        std::optional<std::uint64_t> Ticket = claimTicket();
        if (!Ticket)
          return;
        if (*Ticket - Head.load(std::memory_order_seq_cst) >= Capacity)
          awaitSpace(*Ticket);
        publish(*Ticket, std::move(E), InternOnAdmit);
        return;
      }
      }
    }
    if (Tail.compare_exchange_weak(TailWord, TailWord + 1,
                                   std::memory_order_seq_cst,
                                   std::memory_order_relaxed)) {
      // The expected word had no ClosedBit, so a close() sneaking in
      // between the check and the claim fails this CAS and the reloaded
      // word is handled above.
      publish(TailWord, std::move(E), InternOnAdmit);
      return;
    }
    // CAS failure refreshed TailWord with the current tail; re-check
    // closure and fullness against it.
  }
}

void EventQueue::awaitSpace(std::uint64_t Ticket) {
  Counters.Spins.fetch_add(1, std::memory_order_relaxed);
  auto HasSpace = [&] {
    return Ticket - Head.load(std::memory_order_seq_cst) < Capacity;
  };
  for (std::size_t I = 0; I < SpinIterations; ++I) {
    if (HasSpace())
      return;
    std::this_thread::yield();
  }
  Counters.Parks.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> Lock(WaitMutex);
  ParkedProducers.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Liveness: the consumer always consumes up to this ticket's lap
  // eventually (tickets are claimed and published in a total order), so
  // the predicate needs no Closed escape — close() keeps the consumer
  // draining until every claimed ticket is consumed.
  NotFull.wait(Lock, HasSpace);
  ParkedProducers.fetch_sub(1, std::memory_order_relaxed);
}

void EventQueue::publish(std::uint64_t Ticket, Event &&E,
                         EventArena *InternOnAdmit) {
  Slot &S = slot(Ticket);
  // The claim protocol guarantees the slot is free for this lap (the
  // fullness check precedes every claim); the loop is a defensive fence.
  while (S.Seq.load(std::memory_order_acquire) != Ticket)
    std::this_thread::yield();
  // The event is admitted. Lossy single-lane routes intern here — only
  // events that actually claimed a slot allocate or register arena
  // payloads (dropped/sampled events never do). Everything else arrives
  // already interned (InternOnAdmit null). Pinning the borrowed
  // kernel/tensor pointees is part of intern(): the producing callback's
  // frame is still live here, so the pointers are valid to copy from.
  if (InternOnAdmit)
    InternOnAdmit->intern(E);
  S.E = std::move(E);
  S.Seq.store(Ticket + 1, std::memory_order_release);
  // No admitted-events counter here: every claim publishes, so the
  // snapshot derives Enqueued from the ticket counter (one less atomic
  // on the per-event path).

  // Occupancy high-water mark. Head only advances, and every claim
  // checked Ticket - Head < Capacity, so the figure never exceeds the
  // logical capacity.
  std::uint64_t H = Head.load(std::memory_order_relaxed);
  std::uint64_t Depth = Ticket + 1 > H ? Ticket + 1 - H : 0;
  std::uint64_t Cur = Counters.MaxDepth.load(std::memory_order_relaxed);
  while (Depth > Cur && !Counters.MaxDepth.compare_exchange_weak(
                            Cur, Depth, std::memory_order_relaxed))
    ;

  // Targeted wakeup, twice over: only the producer whose ticket sits at
  // the consumer's head position can be the one unblocking a parked
  // consumer (it waits for that specific slot; later tickets change
  // nothing it can see), and even then the mutex is only taken when the
  // consumer actually parked. Steady-state publishes with a backlog
  // skip even the fence. A stale Head read here can at worst skip one
  // wake — the consumer's timed wait re-checks shortly after, so this
  // is a bounded latency blip, never a lost event.
  if (Ticket == Head.load(std::memory_order_seq_cst)) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (ConsumerParked.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> Lock(WaitMutex);
      NotEmpty.notify_one();
    }
  }
}

bool EventQueue::dequeueBatch(std::vector<Event> &Batch) {
  Batch.clear();
  // The previous batch is fully dispatched once the consumer re-enters.
  ConsumerIdle.store(true, std::memory_order_seq_cst);
  notifyDrainedIfIdle();

  std::uint64_t H = Head.load(std::memory_order_relaxed);
  auto Ready = [&] {
    // An event published at the head, or closed with every claimed
    // ticket consumed (a claimed-but-unpublished ticket keeps the
    // consumer alive until its producer publishes; a void claim's
    // transient inflation resolves within the timed wait below).
    if (slot(H).Seq.load(std::memory_order_acquire) == H + 1)
      return true;
    std::uint64_t TailWord = Tail.load(std::memory_order_seq_cst);
    return isClosed(TailWord) && ticketOf(TailWord) == H;
  };
  if (!Ready()) {
    bool Done = false;
    for (std::size_t I = 0; I < SpinIterations; ++I) {
      std::this_thread::yield();
      if ((Done = Ready()))
        break;
    }
    if (!Done) {
      std::unique_lock<std::mutex> Lock(WaitMutex);
      ConsumerParked.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      // Timed wait: the publish-side wake check is allowed to skip a
      // wake on a stale Head read (see publish()); the periodic
      // re-check turns that race into bounded latency instead of a
      // hang. While the queue is idle this costs one predicate probe
      // per millisecond.
      while (!NotEmpty.wait_for(Lock, std::chrono::milliseconds(1),
                                Ready))
        ;
      ConsumerParked.store(false, std::memory_order_relaxed);
    }
  }
  if (slot(H).Seq.load(std::memory_order_acquire) != H + 1)
    return false; // closed and drained

  ConsumerIdle.store(false, std::memory_order_seq_cst);
  // Drain every contiguously published slot (the double buffer: events
  // move out of the ring here and are dispatched lock-free by the
  // caller), freeing each slot for its next-lap producer.
  while (slot(H).Seq.load(std::memory_order_acquire) == H + 1) {
    Slot &S = slot(H);
    Batch.push_back(std::move(S.E));
    S.Seq.store(H + Ring.size(), std::memory_order_release);
    ++H;
  }
  Head.store(H, std::memory_order_seq_cst);
  Counters.Batches.fetch_add(1, std::memory_order_relaxed);

  // Targeted wakeup: only producers that actually parked are woken —
  // a batch drain with nobody parked costs two relaxed loads, not a
  // broadcast (the pre-ring queue notify_all'd every batch).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (ParkedProducers.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    NotFull.notify_all();
  }
  return true;
}

void EventQueue::notifyDrainedIfIdle() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (DrainWaiters.load(std::memory_order_relaxed) == 0)
    return;
  if (Head.load(std::memory_order_relaxed) !=
      ticketOf(Tail.load(std::memory_order_relaxed)))
    return;
  std::lock_guard<std::mutex> Lock(WaitMutex);
  Drained.notify_all();
}

void EventQueue::waitDrained() {
  // Head before ConsumerIdle: dequeueBatch stores ConsumerIdle = false
  // before it stores the Head that takes a batch, so a waiter that sees
  // that Head also sees the consumer busy until the batch is
  // dispatched. Loading ConsumerIdle first could pair an idle flag from
  // before the take with the Head from after it, and return while the
  // last batch is still being dispatched.
  auto DrainedNow = [&] {
    std::uint64_t Claimed = ticketOf(Tail.load(std::memory_order_seq_cst));
    return Head.load(std::memory_order_seq_cst) == Claimed &&
           ConsumerIdle.load(std::memory_order_seq_cst);
  };
  if (DrainedNow())
    return;
  std::unique_lock<std::mutex> Lock(WaitMutex);
  DrainWaiters.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  Drained.wait(Lock, DrainedNow);
  DrainWaiters.fetch_sub(1, std::memory_order_relaxed);
}

void EventQueue::close() {
  // One fetch_or makes closure atomic with ticket claims: every claim
  // is ordered before or after this in Tail's modification order, and
  // the after ones void themselves (claimTicket). Idempotent.
  Tail.fetch_or(ClosedBit, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> Lock(WaitMutex);
  NotEmpty.notify_all();
  NotFull.notify_all();
  Drained.notify_all();
}

EventQueueCounters EventQueue::counters() const {
  EventQueueCounters Snapshot;
  // Every claimed ticket is published: the tail IS the admitted-event
  // count (claimed-but-unpublished events are counted a moment early).
  Snapshot.Enqueued = ticketOf(Tail.load(std::memory_order_relaxed));
  Snapshot.Dropped = Counters.Dropped.load(std::memory_order_relaxed);
  Snapshot.SampledOut =
      Counters.SampledOut.load(std::memory_order_relaxed);
  Snapshot.MaxDepth = Counters.MaxDepth.load(std::memory_order_relaxed);
  Snapshot.Batches = Counters.Batches.load(std::memory_order_relaxed);
  Snapshot.Spins = Counters.Spins.load(std::memory_order_relaxed);
  Snapshot.Parks = Counters.Parks.load(std::memory_order_relaxed);
  return Snapshot;
}
