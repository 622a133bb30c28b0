//===- pasta/EventQueue.cpp -----------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ticketed MPSC ring. The admission fast path is lock-free: a producer
// claims a ticket with one fetch-add, waits only if the ring is full,
// writes the event into the ticket's slot, and publishes it by storing
// ticket+1 into the slot's sequence number. The single consumer drains
// contiguously published slots in ticket order and frees them by
// storing ticket+ring-size.
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

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

using namespace pasta;

namespace {

std::size_t roundUpPow2(std::size_t Value) {
  std::size_t Pow = 1;
  while (Pow < Value)
    Pow <<= 1;
  return Pow;
}

} // namespace

EventQueue::EventQueue(std::size_t Capacity)
    : Capacity(std::min<std::size_t>(Capacity, MaxCapacity)) {
  assert(Capacity > 0 && "queue depth must be positive");
  std::size_t RingSize = roundUpPow2(this->Capacity);
  RingMask = RingSize - 1;
  Ring = std::vector<Slot>(RingSize);
  // Seq == index marks every slot free for its first-lap ticket.
  for (std::size_t I = 0; I < RingSize; ++I)
    Ring[I].Seq.store(I, std::memory_order_relaxed);
}

std::optional<std::uint64_t> EventQueue::claimTicket() {
  std::uint64_t Claim = Tail.fetch_add(1, std::memory_order_seq_cst);
  if (!isClosed(Claim))
    return Claim;
  // Closed before this claim in Tail's modification order: void it.
  // Repair the counter (void claims are exactly cancelled — once the
  // bit is set every later claim is void too), count the loss so
  // enqueued + dropped == sent keeps holding, and release any drain
  // waiter whose target took in the transient inflation.
  Tail.fetch_sub(1, std::memory_order_seq_cst);
  Counters.Dropped.fetch_add(1, std::memory_order_relaxed);
  notifyDrainWaiters();
  return std::nullopt;
}

void EventQueue::enqueue(Event E) {
  // The claim cannot fail, so it is a plain fetch-add ticket; if the
  // ring is full the producer waits for space *after* claiming — ticket
  // order is what preserves per-producer FIFO. Closure is checked on the
  // claimed word itself (see claimTicket), so an enqueue racing close()
  // is either delivered or counted dropped — never stranded.
  std::optional<std::uint64_t> Ticket = claimTicket();
  if (!Ticket)
    return;
  if (*Ticket - Head.load(std::memory_order_seq_cst) >= Capacity)
    awaitSpace(*Ticket);
  publish(*Ticket, std::move(E));
}

void EventQueue::awaitSpace(std::uint64_t Ticket) {
  Counters.Spins.fetch_add(1, std::memory_order_relaxed);
  auto HasSpace = [&] {
    return Ticket - Head.load(std::memory_order_seq_cst) < Capacity;
  };
  std::unique_lock<std::mutex> Lock(WaitMutex);
  ParkedProducers.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Liveness: the consumer always consumes up to this ticket's lap
  // eventually (tickets are claimed and published in a total order), so
  // the predicate needs no Closed escape — close() keeps the consumer
  // draining until every claimed ticket is consumed.
  if (!HasSpace()) {
    Counters.Parks.fetch_add(1, std::memory_order_relaxed);
    NotFull.wait(Lock, HasSpace);
  }
  ParkedProducers.fetch_sub(1, std::memory_order_relaxed);
}

void EventQueue::publish(std::uint64_t Ticket, Event &&E) {
  Slot &S = slot(Ticket);
  // The claim protocol guarantees the slot is free for this lap (the
  // fullness check precedes every publish); the loop is a defensive
  // fence.
  while (S.Seq.load(std::memory_order_acquire) != Ticket)
    std::this_thread::yield();
  S.E = std::move(E);
  S.Seq.store(Ticket + 1, std::memory_order_release);
  // No admitted-events counter here: every claim publishes, so the
  // snapshot derives Enqueued from the ticket counter (one less atomic
  // on the per-event path).

  // Occupancy high-water mark. Head only advances, and every publish
  // follows a Ticket - Head < Capacity check, so the figure never
  // exceeds the logical capacity.
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
  // The previous batch is fully dispatched once the consumer re-enters:
  // every ticket below its head is done.
  std::uint64_t H = Head.load(std::memory_order_relaxed);
  Dispatched.store(H, std::memory_order_seq_cst);
  notifyDrainWaiters();

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
    std::unique_lock<std::mutex> Lock(WaitMutex);
    ConsumerParked.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Timed wait: the publish-side wake check is allowed to skip a wake
    // on a stale Head read (see publish()); the periodic re-check turns
    // that race into bounded latency instead of a hang. While the queue
    // is idle this costs one predicate probe per millisecond.
    while (!NotEmpty.wait_for(Lock, std::chrono::milliseconds(1), Ready))
      ;
    ConsumerParked.store(false, std::memory_order_relaxed);
  }
  if (slot(H).Seq.load(std::memory_order_acquire) != H + 1)
    return false; // closed and drained

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

void EventQueue::notifyDrainWaiters() {
  // Waiters hold different targets, so any advance may release one;
  // with nobody waiting this is a fence and a load.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (DrainWaiters.load(std::memory_order_relaxed) == 0)
    return;
  std::lock_guard<std::mutex> Lock(WaitMutex);
  Drained.notify_all();
}

void EventQueue::waitDrained() {
  // The target is the tail on entry: tickets claimed later do not hold
  // this barrier, however long their producers keep admitting. A claim
  // voided by close() inflates the tail until claimTicket repairs it,
  // and its ticket is never consumed, so the target is capped by the
  // current tail.
  const std::uint64_t Target = ticketOf(Tail.load(std::memory_order_seq_cst));
  auto DrainedNow = [&] {
    std::uint64_t Claimed = ticketOf(Tail.load(std::memory_order_seq_cst));
    return Dispatched.load(std::memory_order_seq_cst) >=
           std::min(Target, Claimed);
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
  Snapshot.MaxDepth = Counters.MaxDepth.load(std::memory_order_relaxed);
  Snapshot.Batches = Counters.Batches.load(std::memory_order_relaxed);
  Snapshot.Spins = Counters.Spins.load(std::memory_order_relaxed);
  Snapshot.Parks = Counters.Parks.load(std::memory_order_relaxed);
  return Snapshot;
}
