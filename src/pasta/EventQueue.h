//===- pasta/EventQueue.h - Ticketed MPSC ring queue ------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The buffer between event collection and tool analysis (paper §III-B's
/// dispatch unit, made concurrent): a bounded multi-producer /
/// single-consumer *ring* of normalized Events. The processor runs one
/// queue per dispatch lane; producers are the runtime/handler threads
/// calling EventProcessor::process(), the single consumer is the owning
/// lane's thread, which drains whole batches at a time. Events arrive
/// with arena-interned payloads, so buffering and batching shuffle
/// refcounted handles, not payload bytes.
///
/// Admission is lossless: a full ring back-pressures its producer, which
/// waits for space, so every event handed to enqueue() before close()
/// is delivered. The protocol (the low-contention producer path):
///
///  * Producers *claim* a slot by taking a ticket — one atomic fetch-add
///    on the tail. No lock is taken on the admission fast path.
///  * If the claimed slot is still a lap ahead of the consumer (the ring
///    is full), the producer spins briefly and then parks on a
///    futex-style waiter (mutex+condvar, entered only on this slow
///    path). The consumer wakes parked producers only when someone is
///    actually parked (see counters Spins/Parks).
///  * A claimed slot is *published* by storing the ticket+1 into the
///    slot's sequence number (release); the consumer recognizes
///    published slots by that sequence and frees them by storing
///    ticket+ring-size after moving the event out. Per-producer FIFO
///    order follows from ticket order.
///
/// The consumer drains double-buffered batches: dequeueBatch moves
/// every contiguously published slot into the caller's vector and
/// dispatches it lock-free; waitDrained() synchronizes on "ring empty
/// and the consumer between batches".
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_EVENTQUEUE_H
#define PASTA_PASTA_EVENTQUEUE_H

#include "pasta/Events.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace pasta {

/// Default spin window before a full-ring producer (or empty-ring
/// consumer) parks: 64 iterations on multi-core hosts, 0 on single-core
/// ones — spinning there only delays the thread that would free the
/// ring.
std::size_t defaultQueueSpinIterations();

/// Monotonic counters; snapshot via EventQueue::counters().
struct EventQueueCounters {
  std::uint64_t Enqueued = 0;
  /// Enqueues that arrived after close() and were discarded.
  std::uint64_t Dropped = 0;
  /// High-water mark of occupied ring slots.
  std::uint64_t MaxDepth = 0;
  /// Batches handed to the consumer.
  std::uint64_t Batches = 0;
  /// Enqueues that found the ring full and entered the spin window.
  std::uint64_t Spins = 0;
  /// Enqueues that exhausted the spin window and parked on the waiter.
  std::uint64_t Parks = 0;
};

/// Bounded ticketed MPSC ring with batched, double-buffered consumption.
class EventQueue {
public:
  /// The ring preallocates its slots (unlike the old growable buffer),
  /// so the capacity is clamped to this many events (65536; ~tens of MB
  /// per lane) — capacity() reports the clamped figure. Depths past a
  /// few thousand showed no benefit in bench_ablation_async_queue long
  /// before this bound.
  static constexpr std::size_t MaxCapacity = std::size_t(1) << 16;

  /// \p Capacity bounds the number of buffered events (> 0, clamped to
  /// MaxCapacity; the backing ring rounds up to a power of two but
  /// admission enforces the exact figure). \p SpinIterations is how long
  /// a full-ring producer (or an empty-ring consumer) spins before
  /// parking; 0 parks immediately — the right call on single-core hosts.
  explicit EventQueue(
      std::size_t Capacity,
      std::size_t SpinIterations = defaultQueueSpinIterations());

  EventQueue(const EventQueue &) = delete;
  EventQueue &operator=(const EventQueue &) = delete;

  /// Producer side: claims a ticket, waits while the ring is full, and
  /// publishes \p E. Events arriving after close() are discarded and
  /// counted as dropped.
  void enqueue(Event E);

  /// Consumer side: moves every contiguously published event into
  /// \p Batch, blocking until events are available. Returns false when
  /// the queue is closed and fully drained. Calling dequeueBatch also
  /// marks the previous batch as fully dispatched (the consumer is
  /// "idle" while blocked here), which is what waitDrained()
  /// synchronizes on.
  bool dequeueBatch(std::vector<Event> &Batch);

  /// Blocks until every claimed event has been dispatched (ring empty
  /// AND the consumer is between batches). Producer-side flush barrier.
  void waitDrained();

  /// Ends the stream: the consumer drains what is claimed, then
  /// dequeueBatch returns false. Idempotent. Producers parked for space
  /// at close time still publish (their events are delivered rather
  /// than torn out of the ticket sequence); enqueues *arriving* after
  /// close are discarded and counted.
  void close();

  std::size_t capacity() const { return Capacity; }
  EventQueueCounters counters() const;

  /// Validation accessors (PASTA_VALIDATE flush-barrier assertions).
  /// Tickets claimed by producers so far; monotonic.
  std::uint64_t admittedTickets() const {
    return ticketOf(Tail.load(std::memory_order_acquire));
  }
  /// Tickets fully consumed (dispatched) so far; monotonic, so a
  /// barrier check against a pre-barrier admitted snapshot is race-free
  /// even with concurrent producers.
  std::uint64_t consumedTickets() const {
    return Head.load(std::memory_order_acquire);
  }

private:
  /// One ring slot. Seq encodes the publication protocol: == ticket
  /// means free for that ticket's producer, == ticket+1 means published,
  /// == ticket+RingSize means consumed (free for the next lap).
  struct Slot {
    std::atomic<std::uint64_t> Seq{0};
    Event E;
  };

  Slot &slot(std::uint64_t Ticket) {
    return Ring[static_cast<std::size_t>(Ticket) & RingMask];
  }

  /// Claims the next ticket with a fetch-add; nullopt when the queue
  /// was closed before the claim (the increment is repaired and the
  /// event counted as dropped).
  std::optional<std::uint64_t> claimTicket();

  /// Publishes \p E into the slot claimed by \p Ticket and wakes a
  /// parked consumer.
  void publish(std::uint64_t Ticket, Event &&E);

  /// Spin-then-park until \p Ticket's slot has space
  /// (Ticket - Head < Capacity). Slow path only.
  void awaitSpace(std::uint64_t Ticket);

  /// Wakes drain waiters if the queue is drained and anyone waits.
  void notifyDrainedIfIdle();

  const std::size_t Capacity;
  const std::size_t SpinIterations;
  std::size_t RingMask = 0;
  /// The ring storage (power-of-two sized, >= Capacity).
  std::vector<Slot> Ring;

  /// close() sets this bit in Tail with one fetch_or, making closure
  /// atomic with ticket claims in Tail's modification order: a claim
  /// either precedes the close (its event is delivered before the
  /// consumer can observe closed-and-drained) or observes the bit and
  /// voids itself (counted dropped, increment repaired). Without this,
  /// an enqueue racing close() could publish into a ring whose consumer
  /// already exited — losing the event and hanging waitDrained().
  static constexpr std::uint64_t ClosedBit = std::uint64_t(1) << 63;

  static bool isClosed(std::uint64_t TailWord) {
    return (TailWord & ClosedBit) != 0;
  }
  static std::uint64_t ticketOf(std::uint64_t TailWord) {
    return TailWord & ~ClosedBit;
  }

  /// Next ticket to claim (plus ClosedBit once closed).
  std::atomic<std::uint64_t> Tail{0};
  /// First unconsumed ticket; published by the consumer after freeing a
  /// batch's slots.
  std::atomic<std::uint64_t> Head{0};
  /// True while the consumer is between batches (blocked in
  /// dequeueBatch); waitDrained synchronizes on it.
  std::atomic<bool> ConsumerIdle{true};
  /// True while the consumer is parked on NotEmpty — producers only
  /// take the wait mutex to wake it when it actually is.
  std::atomic<bool> ConsumerParked{false};
  /// Producers parked on NotFull / threads parked in waitDrained.
  /// Wakeups are targeted: the consumer skips the mutex+notify entirely
  /// when these are zero (the common case), so batch drains no longer
  /// thundering-herd empty waiter lists.
  std::atomic<std::uint32_t> ParkedProducers{0};
  std::atomic<std::uint32_t> DrainWaiters{0};

  /// Enqueued is not here: it is derived from Tail (every claim
  /// publishes), keeping the admission fast path at one atomic RMW.
  struct {
    std::atomic<std::uint64_t> Dropped{0};
    std::atomic<std::uint64_t> MaxDepth{0};
    std::atomic<std::uint64_t> Batches{0};
    std::atomic<std::uint64_t> Spins{0};
    std::atomic<std::uint64_t> Parks{0};
  } Counters;

  /// Slow-path parking only; never taken on the admission fast path.
  std::mutex WaitMutex;
  std::condition_variable NotEmpty; ///< parked consumer
  std::condition_variable NotFull;  ///< producers parked on a full ring
  std::condition_variable Drained;  ///< waitDrained() waiters
};

} // namespace pasta

#endif // PASTA_PASTA_EVENTQUEUE_H
