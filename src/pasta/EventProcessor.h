//===- pasta/EventProcessor.h - Preprocess + dispatch -----------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PASTA event processor (paper §III-B): CPU preprocessing of coarse
/// events, GPU-accelerated in-situ analysis of fine-grained device
/// records, and the dispatch unit routing preprocessed data to the active
/// tools. It implements sim::TraceSink so vendor profiling layers stream
/// device records straight into it.
///
/// Dispatch is subscription-driven: each tool's declared Subscription
/// (EventKind mask + fine-grained interests + concurrency contract) is
/// compiled into an immutable, epoch-versioned RoutingTable, so an event
/// only reaches the tools that asked for its kind — including the
/// generic onEvent hook, which non-subscribers never see.
///
/// The dispatch unit runs in one of two modes:
///
///  * synchronous (default): process() preprocesses and dispatches on the
///    caller's thread — the application pays tool-analysis cost inline.
///  * asynchronous: process() admits the event into the bounded MPSC
///    queues of one or more dispatch *lanes* and returns; each lane's
///    thread drains its queue in batches and runs tool dispatch off the
///    application's critical path. An event is routed to the pinned lane
///    of every Serial subscriber, plus — when it has ShardByDevice or
///    Concurrent subscribers — the event's home lane (DeviceIndex modulo
///    the lane count), so per-device ordering holds for sharded tools and
///    Serial tools keep today's exactly-one-thread contract. The lane
///    count is fixed at construction (ProcessorOptions::DispatchThreads).
///
///    Admission is lossless: a full lane queue back-pressures the
///    producer until the lane catches up, so every admitted event is
///    delivered. Synchronization events, TraceSink record deliveries and
///    finish() are hard flush barriers across all lanes; with Serial-
///    contract tools, async reports are byte-identical to synchronous
///    ones.
///
///    Preprocessing (range filtering, Python-stack context) runs at
///    admission on the producer's thread; each lane additionally keeps
///    its own CallStackBuilder fed in lane order, so callStacks() from
///    a tool hook resolves to a context consistent with that lane's
///    event stream. Context updates fan out only to lanes hosting tools
///    whose Subscription declares CapturesStacks — stack-indifferent
///    lanes never pay context-only deliveries.
///
///    Zero-copy fan-out: once routing determines an event reaches at
///    least one lane, its payloads (operator/layer names, Python
///    stacks, kernel/tensor descriptors) are interned into the
///    processor's EventArena on the producer's thread, once, before
///    any lane's queue sees it. Per-lane Event copies share refcounted
///    immutable payloads instead of duplicating them, so fan-out cost
///    no longer scales with the subscriber count, and unrouted events
///    never touch the arena. The arena's occupancy and hit counters
///    surface through stats() and the event_pipeline report (arena.*
///    metrics).
///
/// Live reconfiguration (epoch-swapped routing tables): the tool set is
/// NOT sealed at the first admitted event. Every producer admits under
/// the routing table published by the RoutingEpoch (a single acquire
/// load on the event path); addTool()/removeTool()/clearTools() flush
/// the draining epoch through every lane (so every event admitted under
/// epoch N is fully dispatched under epoch N's table), then build and
/// publish table N+1. Retired tables stay resident until the processor
/// is destroyed, so a reader that loaded table N is always safe to
/// finish with it. Serial tools are re-pinned round-robin over the
/// lanes only at this barrier (detaching an earlier-pinned Serial tool
/// moves the later ones) — the sanctioned-migration point
/// PASTA_VALIDATE's lane-affinity checker is taught about.
///
/// Reconfiguration contract: addTool()/removeTool()/clearTools() run
/// only while no process() call or record delivery on this processor is
/// in flight. The caller ensures it — the serve daemon reconfigures a
/// tenant under the tenant lock that also serializes that tenant's
/// admission, and Session::run() admits on its calling thread. flush()
/// may still run concurrently, and admission itself stays safe from any
/// number of producer threads. Nothing inside the processor waits for
/// admissions to leave; PASTA_VALIDATE reports a swap that overlaps one
/// (reconfigure-during-admission).
///
/// Reconfiguration entry points must not be called from a dispatch-lane
/// thread or from a tool hook running inline (synchronous dispatch,
/// record deliveries): the calling hook is an admission in flight, so
/// the call is rejected with a diagnostic (the same rule flush()
/// enforces for lane threads).
///
/// The GPU-resident collect-and-analyze model (paper Fig. 2b): tools
/// returning a DeviceAnalysis get each record batch reduced by one
/// processRecords call on the delivering thread, while the *simulated*
/// cost of the device-side reduction was already charged by the device's
/// cost model.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_EVENTPROCESSOR_H
#define PASTA_PASTA_EVENTPROCESSOR_H

#include "pasta/CallStack.h"
#include "pasta/EventArena.h"
#include "pasta/EventQueue.h"
#include "pasta/Events.h"
#include "pasta/RangeFilter.h"
#include "pasta/Tool.h"
#include "sim/Trace.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace pasta {

class ReportSink;
class Validator;

/// Compile-time default for ProcessorOptions::Validate: the
/// -DPASTA_VALIDATE=ON build flips every processor to validating unless
/// a caller opts out explicitly.
constexpr bool validateDefault() {
#ifdef PASTA_VALIDATE_DEFAULT_ON
  return true;
#else
  return false;
#endif
}

/// Processor-side counters (tests assert on them). In asynchronous mode
/// the snapshot returned by stats() merges the per-lane counters; it is
/// only stable after flush() or a finished session.
struct ProcessorStats {
  /// Dispatch passes that delivered an event to at least one tool
  /// (summed across lanes in asynchronous mode; an event fanned out to
  /// two lanes counts one pass per lane).
  std::uint64_t EventsProcessed = 0;
  std::uint64_t EventsFiltered = 0;
  std::uint64_t RecordBatches = 0;
  std::uint64_t RecordsDelivered = 0;
  std::uint64_t DeviceAnalyzedRecords = 0;
  std::uint64_t HostAnalyzedRecords = 0;
  /// Async pipeline: enqueues that arrived after teardown closed a
  /// lane's queue (admission is otherwise lossless).
  std::uint64_t EventsDropped = 0;
  /// Always 0: nothing samples events out any more. Kept because
  /// pastabench and the stream meta frames still read it; it goes with
  /// the next change to the benchmark.
  std::uint64_t EventsSampledOut = 0;
  /// Async pipeline: high-water mark over every lane's queue.
  std::uint64_t MaxQueueDepth = 0;
  /// Hard flush barriers taken (Synchronization events, record
  /// deliveries, annotation toggles, finish).
  std::uint64_t FlushCount = 0;
  /// Dispatch lanes (0 = synchronous inline dispatch).
  std::uint64_t DispatchLanes = 0;
  /// Routing-table swaps published so far (tool attach/detach/clear;
  /// the initial empty table does not count).
  std::uint64_t Reconfigurations = 0;
  /// Async pipeline: enqueues that found a lane's ring full (summed over
  /// lanes); the stream meta frames and pastabench read it under this
  /// name.
  std::uint64_t QueueSpins = 0;
  /// Async pipeline: of those, enqueues that still found the ring full
  /// under the queue's waiter lock and slept (back-pressure actually
  /// blocking a producer).
  std::uint64_t QueueParks = 0;
  /// Event arena (async mode): distinct payloads resident — strings,
  /// stacks, kernel/tensor descriptors interned once and shared by
  /// every lane.
  std::uint64_t ArenaPayloads = 0;
  /// Event arena: approximate bytes those payloads occupy, once.
  std::uint64_t ArenaBytes = 0;
  /// Event arena: intern lookups that found an existing payload — each
  /// one an allocation (and its per-lane copies) avoided.
  std::uint64_t ArenaHits = 0;
  /// Event arena: subset of ArenaHits served by the thread-local memo
  /// with zero lock acquisitions.
  std::uint64_t ArenaMemoHits = 0;
  /// Event arena: shard lock acquisitions that found the lock held.
  std::uint64_t ArenaShardContention = 0;
  /// Event arena: content-hash shards the intern tables split into.
  std::uint64_t ArenaShards = 0;
};

/// Per-lane counter snapshot (merged into ProcessorStats by stats()).
struct DispatchLaneStats {
  std::uint64_t EventsDispatched = 0;
  std::uint64_t Enqueued = 0;
  std::uint64_t Dropped = 0;
  std::uint64_t MaxQueueDepth = 0;
};

/// Dispatch-unit configuration.
struct ProcessorOptions {
  /// Ignored: device analysis runs on the delivering thread. Kept
  /// because pastabench still sets it; it goes with the next change to
  /// the benchmark.
  std::size_t AnalysisThreads = 0;
  /// Decouple event collection from tool analysis on dispatch lanes.
  bool AsyncEvents = false;
  /// Bounded per-lane queue capacity between producers and dispatch; a
  /// producer that finds its lane's queue full waits for space.
  std::size_t QueueDepth = 4096;
  /// Dispatch lanes when AsyncEvents is on (clamped to [1, 64]), fixed
  /// for the processor's lifetime. Serial tools are pinned round-robin;
  /// ShardByDevice/Concurrent tools run on each event's home lane.
  std::size_t DispatchThreads = 1;
  /// Content-hash shards for the payload arena's intern tables (0 =
  /// hardware-concurrency-derived default, which sessions use; set to
  /// measure, as the admission bench's baseline arm does).
  std::size_t ArenaShards = 0;
  /// Thread-local intern memo in front of the arena shards (disable to
  /// measure or to cap per-thread state).
  bool ArenaMemo = true;
  /// Runtime contract validation (see pasta/Validate.h): Serial
  /// overlap/lane-affinity watchdogs, subscription-mask and -drift
  /// checks, arena payload canaries, flush-barrier assertions. Off by
  /// default (one null check per dispatch); --validate and the
  /// -DPASTA_VALIDATE=ON build flip it.
  bool Validate = validateDefault();
};

/// One tool as compiled into a routing table.
struct ToolRouteEntry {
  Tool *T = nullptr;
  Subscription Sub;
  /// Pinned lane for Serial contracts (0 in synchronous mode).
  std::size_t Lane = 0;
};

/// Per-kind routing: which entries to invoke, split by placement.
struct KindRoute {
  /// Serial subscribers — invoked on their pinned lane.
  std::vector<std::uint32_t> Pinned;
  /// ShardByDevice/Concurrent subscribers — invoked on the event's
  /// home lane.
  std::vector<std::uint32_t> Floating;
  /// Bitmask of lanes with pinned subscribers (fan-out set).
  std::uint64_t PinnedLaneMask = 0;
};

/// One immutable, epoch-versioned compilation of the attached tools'
/// subscriptions. Producers and lanes read it lock-free through the
/// RoutingEpoch; it is never mutated after publication, and retired
/// tables outlive every reader (they are retained until the processor
/// is destroyed).
struct RoutingTable {
  /// Publication sequence number (0 = the initial empty table).
  std::uint64_t Epoch = 0;
  std::vector<ToolRouteEntry> Entries;
  std::array<KindRoute, NumEventKinds> Routes;
  /// Lanes hosting stack-capturing tools (Subscription::CapturesStacks):
  /// the pinned lane of each capturing Serial tool, widened to every
  /// lane when a capturing ShardByDevice/Concurrent tool exists (any
  /// lane can be its home lane). Python-stack context updates fan out
  /// to exactly this set.
  std::uint64_t StackLaneMask = 0;
  /// Entry indices with fine-grained interests (record batches,
  /// instruction mixes, per-launch trace breakdowns).
  std::vector<std::uint32_t> RecordEntries;
  std::vector<std::uint32_t> MixEntries;
  std::vector<std::uint32_t> TraceEntries;
};

/// The single authorized window onto the current routing table. Every
/// reader MUST go through current() — pasta-lint's routing-epoch rule
/// rejects any other reference to the underlying pointer — so the
/// acquire/release pairing that makes table publication safe cannot be
/// bypassed by a relaxed load sneaking into a hot path.
class RoutingEpoch {
public:
  /// The currently published table (acquire: a reader sees every write
  /// that built the table it observes).
  const RoutingTable *current() const {
    return EpochTablePtr.load(std::memory_order_acquire);
  }
  /// Publishes \p Table (release). Caller owns quiescence: the
  /// reconfiguration contract guarantees no producer is mid-admission,
  /// and the swap has drained every lane of the previous epoch.
  void publish(const RoutingTable *Table) {
    EpochTablePtr.store(Table, std::memory_order_release);
  }

private:
  std::atomic<const RoutingTable *> EpochTablePtr{nullptr};
};

/// Preprocessing + dispatch layer between the event handler and tools.
class EventProcessor : public sim::TraceSink {
public:
  explicit EventProcessor(const ProcessorOptions &Opts = {});
  ~EventProcessor() override;

  /// Adds a tool (not owned) and publishes a new routing-table epoch —
  /// on a live pipeline this drains every lane and swaps tables, so the
  /// tool sees exactly the events admitted after the call returns. The
  /// caller must ensure no process() call or record delivery is in
  /// flight meanwhile (see the reconfiguration contract above). Returns
  /// false (without mutating) only when called from a dispatch-lane
  /// thread or from a tool hook running inline.
  bool addTool(Tool *T);
  /// Detaches \p T from the routing tables at an epoch boundary: events
  /// admitted after the call returns never reach it, and every event
  /// admitted before is fully delivered first. Same contract as addTool;
  /// false when \p T is not attached or under the same dispatch-context
  /// rule.
  bool removeTool(Tool *T);
  /// Removes every tool. Same contract and rule as addTool.
  bool clearTools();
  const std::vector<Tool *> &tools() const { return Tools; }
  /// The subscription \p T was attached with (as compiled into the
  /// current routing table); nullopt when \p T is not attached.
  std::optional<Subscription> subscriptionOf(const Tool *T) const;

  RangeFilter &rangeFilter() { return Filter; }
  /// The shared immutable payload arena events are interned into at
  /// admission (asynchronous mode). Exposed for tests and benches that
  /// assert on interning behavior.
  EventArena &arena() { return Arena; }
  /// The cross-layer stack context for the calling thread: dispatch-lane
  /// threads get their lane's builder (fed in lane order), every other
  /// thread the shared builder updated at admission.
  CallStackBuilder &callStacks();
  /// Counter snapshot, merged across the dispatch lanes. Safe to call
  /// concurrently with a running pipeline (each counter is read
  /// atomically), but only quiescent pipelines (after flush()/finish,
  /// or in synchronous mode) yield a mutually consistent snapshot.
  ProcessorStats stats() const;
  /// Per-lane snapshots (empty in synchronous mode).
  std::vector<DispatchLaneStats> laneStats() const;
  bool asyncEvents() const { return !Lanes.empty(); }
  /// Dispatch lanes (0 in synchronous mode), fixed at construction.
  std::size_t laneCount() const { return Lanes.size(); }
  /// The runtime contract validator, or null when validation is off
  /// (ProcessorOptions::Validate). Tests install collecting handlers
  /// and drive the payload ledger through this.
  Validator *validator() const { return Val.get(); }

  /// Admits one coarse event (called by the event handler). Synchronous
  /// mode preprocesses + dispatches inline; asynchronous mode routes the
  /// event to its subscribers' lanes and returns, except for
  /// Synchronization events which flush the pipeline before returning
  /// (hard barrier).
  void process(Event E);

  /// Blocks until every admitted event has been dispatched on every
  /// lane. No-op in synchronous mode (everything already was). Must not
  /// be called from a tool hook — a dispatch lane cannot wait on itself.
  void flush();

  /// Annotation toggles (pasta.start/stop). Flush first so the region
  /// boundary falls between the same events as in synchronous mode.
  void annotationStart();
  void annotationStop();

  /// Emits the dispatch-unit counters as an "event_pipeline" report
  /// section (does not close \p Sink). Multi-lane pipelines include a
  /// per-lane breakdown.
  void reportPipeline(ReportSink &Sink) const;

  //===--------------------------------------------------------------------===
  // sim::TraceSink — fine-grained device records
  //===--------------------------------------------------------------------===
  // Record batches reference transient device buffers and are analyzed
  // inline on the delivering thread, one batch at a time: a tool's
  // onAccessBatch or its DeviceAnalysis::processRecords gets the whole
  // batch in one call. In async mode each delivery first flushes every
  // lane so records never observe tool state older than the coarse
  // events preceding them. Only tools whose subscription declares the
  // matching interest are invoked. A delivery is an admission in
  // flight: the reconfiguration contract keeps swaps out of it.
  void onKernelBegin(const sim::LaunchInfo &Info) override;
  void onAccessBatch(const sim::LaunchInfo &Info,
                     const sim::MemAccessRecord *Records,
                     std::size_t Count) override;
  void onInstrMix(const sim::LaunchInfo &Info,
                  const sim::InstrMix &Mix) override;
  void onKernelEnd(const sim::LaunchInfo &Info,
                   const sim::TraceTimeBreakdown &Breakdown) override;

private:
  /// One dispatch lane: bounded queue, draining thread, lane-local
  /// stack context and counters. The lane vector is sized once at
  /// construction and never reallocated, so stats()/laneStats()/
  /// callStacks() never race a vector resize.
  struct Lane {
    std::unique_ptr<EventQueue> Queue;
    std::thread Thread;
    CallStackBuilder Stacks;
    std::atomic<std::uint64_t> Dispatched{0};
  };

  /// True when the calling thread must not reconfigure this processor:
  /// it is a dispatch-lane thread, or it runs this processor's tool
  /// hooks inline (synchronous dispatch, record delivery).
  bool inDispatchContext() const;

  /// Bitmask of the first \p Count lanes.
  static std::uint64_t lanesMask(std::size_t Count) {
    return Count >= 64 ? ~std::uint64_t(0)
                       : (std::uint64_t(1) << Count) - 1;
  }

  /// Admission-side preprocessing on the producer's thread: range
  /// filtering and shared Python-stack context. False when filtered.
  bool admit(Event &E);

  /// Compiles the attached tools into a fresh routing table (caller
  /// holds AttachMutex).
  std::unique_ptr<RoutingTable> buildTable();

  /// The epoch swap (caller holds AttachMutex, and no admission is in
  /// flight): drain every lane (flushing epoch N completely under table
  /// N), register the new contracts with the validator, publish table
  /// N+1.
  void swapTable();

  /// Waits until every lane has dispatched everything admitted so far
  /// (the barrier flush() and swapTable() share). Checks the barrier's
  /// ordering when validating.
  void drainLanes();

  /// The lane an event's ShardByDevice/Concurrent subscribers run on.
  std::size_t homeLane(const Event &E) const {
    return Lanes.size() <= 1
               ? 0
               : static_cast<std::size_t>(E.DeviceIndex) % Lanes.size();
  }

  /// Dispatch-unit core: routes \p E to the hooks of every subscriber
  /// \p Table places on \p LaneIndex. Returns true when any tool was
  /// invoked.
  bool dispatchOn(const Event &E, std::size_t LaneIndex,
                  const RoutingTable &Table);

  /// Calls the kind-specific hook, then the generic hook.
  static void invoke(Tool &T, const Event &E);

  /// Lane thread main: drains the lane's queue until close().
  void laneLoop(std::size_t LaneIndex);

  /// Attached tools in attach order (mutated under AttachMutex; the
  /// compiled per-epoch view lives in the routing tables).
  std::vector<Tool *> Tools;
  /// Every routing table ever published, oldest first; the current one
  /// is Tables.back(). Retired tables are deliberately retained (a few
  /// KB each) so readers that loaded an old epoch are always safe —
  /// reclamation would need hazard tracking on the per-event path.
  std::vector<std::unique_ptr<const RoutingTable>> Tables;
  /// The published-table window every reader goes through.
  RoutingEpoch Epoch;

  RangeFilter Filter;
  /// Shared immutable payload arena; producers intern admitted events'
  /// payloads here so lane fan-out is zero-copy.
  EventArena Arena;
  /// Shared stack context: written at admission, read by synchronous
  /// dispatch and the record-delivery path.
  CallStackBuilder SharedStacks;
  /// Core counters live as atomics: dispatch lanes increment them while
  /// producers may snapshot via stats() (e.g. a monitor polling queue
  /// counters mid-run).
  struct {
    std::atomic<std::uint64_t> EventsProcessed{0};
    std::atomic<std::uint64_t> EventsFiltered{0};
    std::atomic<std::uint64_t> RecordBatches{0};
    std::atomic<std::uint64_t> RecordsDelivered{0};
    std::atomic<std::uint64_t> DeviceAnalyzedRecords{0};
    std::atomic<std::uint64_t> HostAnalyzedRecords{0};
    std::atomic<std::uint64_t> FlushCount{0};
    std::atomic<std::uint64_t> Reconfigurations{0};
  } Core;
  std::vector<std::unique_ptr<Lane>> Lanes;

  /// Serializes tool-set reconfigurations against each other; never
  /// taken on the steady-state event path.
  std::mutex AttachMutex;

  /// Runtime contract checks (null when ProcessorOptions::Validate is
  /// off — the entire validation plane then costs one null test per
  /// dispatch).
  std::unique_ptr<Validator> Val;
  /// One-shot guard for the callStacks()-without-CapturesStacks
  /// diagnostic.
  std::atomic<bool> StaleStackWarned{false};
};

} // namespace pasta

#endif // PASTA_PASTA_EVENTPROCESSOR_H
