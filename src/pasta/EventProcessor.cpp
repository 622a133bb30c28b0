//===- pasta/EventProcessor.cpp -------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Live reconfiguration mechanics (see the header overview): producers
// admit under the routing table published by the RoutingEpoch. The
// caller keeps reconfiguration out of every process() call and record
// delivery, so a swap only drains every lane — the old epoch is fully
// dispatched under its own table — then builds, registers, and
// publishes the next table.
//
//===----------------------------------------------------------------------===//

#include "pasta/EventProcessor.h"

#include "pasta/Validate.h"
#include "support/Logging.h"
#include "support/ReportSink.h"

#include <algorithm>
#include <utility>

using namespace pasta;

namespace {

/// Identifies the dispatch lane the current thread is running, so
/// callStacks() can resolve to the lane-local builder. Keyed by owner
/// pointer — tests run several processors in one process.
struct LaneTag {
  const EventProcessor *Owner = nullptr;
  std::size_t Lane = 0;
};
thread_local LaneTag CurrentLane;

/// The processor the current thread is admitting into (a process() call
/// or a record delivery), so a tool hook that runs there inline —
/// synchronous dispatch, record hooks — cannot reconfigure it. Lane
/// threads are told apart by CurrentLane.
thread_local const EventProcessor *InlineDispatch = nullptr;

/// One process() call or record delivery on \p P: marks the thread in
/// InlineDispatch (restoring the outer marker on exit, so a hook may
/// admit into another processor) and, when validating, counts the
/// admission as in flight so a swap that overlaps it is reported.
class AdmissionScope {
public:
  explicit AdmissionScope(const EventProcessor &P)
      : Val(P.validator()), Saved(InlineDispatch) {
    InlineDispatch = &P;
    if (Val)
      Val->beginAdmission();
  }
  ~AdmissionScope() {
    InlineDispatch = Saved;
    if (Val)
      Val->endAdmission();
  }
  AdmissionScope(const AdmissionScope &) = delete;
  AdmissionScope &operator=(const AdmissionScope &) = delete;

private:
  Validator *Val;
  const EventProcessor *Saved;
};

ProcessorOptions withAnalysisThreads(std::size_t Threads) {
  ProcessorOptions Opts;
  Opts.AnalysisThreads = Threads;
  return Opts;
}

EventArenaOptions arenaOptionsOf(const ProcessorOptions &Opts) {
  EventArenaOptions ArenaOpts;
  ArenaOpts.Shards = Opts.ArenaShards;
  ArenaOpts.InternMemo = Opts.ArenaMemo;
  return ArenaOpts;
}

} // namespace

bool EventProcessor::inDispatchContext() const {
  return CurrentLane.Owner == this || InlineDispatch == this;
}

EventProcessor::EventProcessor(std::size_t DeviceAnalysisThreads)
    : EventProcessor(withAnalysisThreads(DeviceAnalysisThreads)) {}

EventProcessor::EventProcessor(const ProcessorOptions &Opts)
    : Arena(arenaOptionsOf(Opts)), AnalysisThreads(Opts.AnalysisThreads) {
  if (Opts.Validate) {
    Val = std::make_unique<Validator>();
    Arena.setValidator(Val.get());
  }
  if (Opts.AsyncEvents) {
    // Sized once: a fixed lane vector means stats()/laneStats()/
    // callStacks() never race a reallocation.
    std::size_t LaneCount = std::min<std::size_t>(
        std::max<std::size_t>(Opts.DispatchThreads, 1), 64);
    for (std::size_t I = 0; I < LaneCount; ++I) {
      auto L = std::make_unique<Lane>();
      L->Queue = std::make_unique<EventQueue>(
          std::max<std::size_t>(Opts.QueueDepth, 1));
      Lanes.push_back(std::move(L));
    }
  }
  Tables.push_back(buildTable());
  Epoch.publish(Tables.back().get());
  for (std::size_t I = 0; I < Lanes.size(); ++I)
    Lanes[I]->Thread = std::thread([this, I] { laneLoop(I); });
}

EventProcessor::~EventProcessor() {
  for (auto &L : Lanes)
    L->Queue->close();
  for (auto &L : Lanes)
    L->Thread.join();
}

bool EventProcessor::addTool(Tool *T) {
  if (inDispatchContext()) {
    logWarning("EventProcessor: addTool('" + T->name() +
               "') called from a dispatch-lane thread or a tool hook; "
               "rejected (the caller is an admission in flight — "
               "reconfigure from outside the pipeline)");
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(AttachMutex);
    Tools.push_back(T);
    swapTable();
  }
  T->onAttach(*this);
  return true;
}

bool EventProcessor::removeTool(Tool *T) {
  if (inDispatchContext()) {
    logWarning("EventProcessor: removeTool('" + T->name() +
               "') called from a dispatch-lane thread or a tool hook; "
               "rejected");
    return false;
  }
  std::lock_guard<std::mutex> Lock(AttachMutex);
  auto It = std::find(Tools.begin(), Tools.end(), T);
  if (It == Tools.end())
    return false;
  Tools.erase(It);
  swapTable();
  return true;
}

bool EventProcessor::clearTools() {
  if (inDispatchContext()) {
    logWarning("EventProcessor: clearTools() called from a "
               "dispatch-lane thread or a tool hook; rejected");
    return false;
  }
  std::lock_guard<std::mutex> Lock(AttachMutex);
  Tools.clear();
  swapTable();
  return true;
}

std::optional<Subscription>
EventProcessor::subscriptionOf(const Tool *T) const {
  const RoutingTable *Table = Epoch.current();
  for (const ToolRouteEntry &Entry : Table->Entries)
    if (Entry.T == T)
      return Entry.Sub;
  return std::nullopt;
}

std::unique_ptr<RoutingTable> EventProcessor::buildTable() {
  auto Table = std::make_unique<RoutingTable>();
  Table->Epoch = Tables.size();
  const std::size_t LaneCount = std::max<std::size_t>(Lanes.size(), 1);

  // Serial tools are pinned round-robin across the lanes in attach
  // order — recomputed per table, so a session that reaches a tool set
  // through any sequence of reconfigurations pins exactly like a
  // session built with that set from the start. Sharded and concurrent
  // tools float to each event's home lane.
  std::size_t NextSerialLane = 0;
  Table->Entries.reserve(Tools.size());
  for (Tool *T : Tools) {
    ToolRouteEntry Entry;
    Entry.T = T;
    Entry.Sub = T->subscription();
    Entry.Lane = Entry.Sub.Model == ExecutionModel::Serial
                     ? NextSerialLane++ % LaneCount
                     : 0;
    Table->Entries.push_back(std::move(Entry));
  }

  for (std::uint32_t I = 0; I < Table->Entries.size(); ++I) {
    ToolRouteEntry &Entry = Table->Entries[I];
    if (Entry.Sub.CapturesStacks)
      Table->StackLaneMask |= Entry.Sub.Model == ExecutionModel::Serial
                                  ? std::uint64_t(1) << Entry.Lane
                                  : lanesMask(LaneCount);
    for (std::size_t K = 0; K < NumEventKinds; ++K) {
      if (!Entry.Sub.Kinds.has(static_cast<EventKind>(K)))
        continue;
      KindRoute &Route = Table->Routes[K];
      if (Entry.Sub.Model == ExecutionModel::Serial) {
        Route.Pinned.push_back(I);
        Route.PinnedLaneMask |= std::uint64_t(1) << Entry.Lane;
      } else {
        Route.Floating.push_back(I);
      }
    }
    if (Entry.Sub.AccessRecords || Entry.T->deviceAnalysis())
      Table->RecordEntries.push_back(I);
    if (Entry.Sub.InstrMix)
      Table->MixEntries.push_back(I);
    if (Entry.Sub.KernelTrace)
      Table->TraceEntries.push_back(I);
  }
  return Table;
}

void EventProcessor::swapTable() {
  // The validator's bracket spans the drain: an admission overlapping
  // the swap is most likely seen as the swap begins, since a producer
  // that keeps admitting also keeps the drain waiting.
  if (Val)
    Val->beginReconfiguration();

  // Flush the draining epoch: with no admission in flight (the caller's
  // side of the contract), every ticket in every ring was admitted under
  // the old table, and the lanes read the epoch once per batch —
  // waitDrained() returns once a lane's dispatched watermark covers
  // every ticket, which the lane stores only when it is back between
  // batches, so publication below cannot land mid-batch.
  // Not counted in FlushCount: that metric tracks event-plane barriers,
  // reconfigurations have their own.
  drainLanes();

  std::unique_ptr<RoutingTable> Table = buildTable();

  // Mirror the new contracts into the validator. Tools that survive
  // the swap keep their state (a changed pinned lane is counted as a
  // sanctioned migration, not a lane-affinity violation); tools absent
  // from the new table are retired.
  if (Val) {
    for (const ToolRouteEntry &Entry : Table->Entries)
      Val->registerTool(*Entry.T, Entry.Sub, Entry.Lane);
    Val->endReconfiguration();
  }

  // Seed every lane's stack context from the admission-time shared
  // context, so a lane newly targeted by this epoch resolves the same
  // Python stack a from-start pipeline would have routed to it.
  PayloadStack Context = SharedStacks.pythonStack();
  for (auto &L : Lanes)
    L->Stacks.setPythonStack(Context);

  Tables.push_back(std::move(Table));
  Epoch.publish(Tables.back().get());
  Core.Reconfigurations.fetch_add(1, std::memory_order_relaxed);
}

CallStackBuilder &EventProcessor::callStacks() {
  if (CurrentLane.Owner == this) {
    // A capture from a lane hosting no stack-capturing subscriber sees
    // a stale (typically empty) context: context updates are routed by
    // Subscription::CapturesStacks. Warn once instead of failing
    // silently — the usual cause is a tool with an explicit
    // subscription() that forgot to declare the bit.
    const RoutingTable &Table = *Epoch.current();
    if (!(Table.StackLaneMask & (std::uint64_t(1) << CurrentLane.Lane)) &&
        !StaleStackWarned.exchange(true, std::memory_order_relaxed))
      logWarning("EventProcessor::callStacks() called from a dispatch "
                 "lane hosting no stack-capturing tool; declare "
                 "Subscription::CapturesStacks so Python-stack context "
                 "is routed to this lane (the context captured here may "
                 "be stale or empty)");
    return Lanes[CurrentLane.Lane]->Stacks;
  }
  return SharedStacks;
}

bool EventProcessor::admit(Event &E) {
  // Range filtering: kernel-scoped events outside the analysis window are
  // dropped; resource/DL bookkeeping events always pass so tools keep a
  // consistent view of allocations.
  bool KernelScoped = E.Kind == EventKind::KernelLaunch ||
                      E.Kind == EventKind::KernelComplete;
  if (KernelScoped && !Filter.kernelActive(E.GridId)) {
    Core.EventsFiltered.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (eventLevel(E.Kind) == EventLevel::DlFramework &&
      !Filter.regionActive() && E.Kind != EventKind::TensorAlloc &&
      E.Kind != EventKind::TensorReclaim) {
    Core.EventsFiltered.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // CPU preprocessing: keep the shared cross-layer stack context
  // current (the record-delivery path and synchronous dispatch read it;
  // capturing lanes maintain their own handle in lane order, fed during
  // routing). Sharing the handle is a refcount bump; interning happens
  // later, and only for events that actually fan out.
  if (E.Kind == EventKind::OperatorStart && !E.PythonStack.empty())
    SharedStacks.setPythonStack(E.PythonStack);
  return true;
}

void EventProcessor::process(Event E) {
  // No swap overlaps this call (the reconfiguration contract), so the
  // table loaded below stays current until the event is enqueued, and a
  // later swap's drain barrier delivers it under that table.
  AdmissionScope Scope(*this);
  if (!admit(E))
    return;
  const RoutingTable &Table = *Epoch.current();

  if (Lanes.empty()) {
    // Same semantics as the lanes: only passes that reached a tool
    // count, so events_processed stays comparable across modes.
    if (dispatchOn(E, 0, Table))
      Core.EventsProcessed.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Synchronization is a hard barrier: the application expects every
  // preceding effect to be visible when the sync call returns, so the
  // matching analysis must be complete too (and reports deterministic).
  bool Barrier = E.Kind == EventKind::Synchronization;
  const KindRoute &Route = Table.Routes[static_cast<std::size_t>(E.Kind)];
  std::uint64_t LaneMask = Route.PinnedLaneMask;
  if (!Route.Floating.empty())
    LaneMask |= std::uint64_t(1) << homeLane(E);
  // Python-context updates ride only to the lanes hosting tools that
  // declared CapturesStacks — their builders must stay consistent with
  // their own event order; every other lane's builder is unreachable
  // from its tools, so feeding it would be pure fan-out overhead.
  if (E.Kind == EventKind::OperatorStart && !E.PythonStack.empty())
    LaneMask |= Table.StackLaneMask;

  if (LaneMask != 0) {
    // Intern once, up front, so the per-lane Event copies below share
    // refcounted immutable payloads (strings, stacks, pinned
    // kernel/tensor descriptors) instead of deep-copying them. Pinning
    // the borrowed pointees happens here, while the producing callback's
    // frame is still live. Unrouted events (LaneMask == 0) never touch
    // the arena at all.
    Arena.intern(E);
    for (std::size_t L = 0; LaneMask != 0; ++L) {
      std::uint64_t Bit = std::uint64_t(1) << L;
      if (!(LaneMask & Bit))
        continue;
      LaneMask &= ~Bit;
      // The last lane takes the event itself; the others get copies.
      if (LaneMask == 0)
        Lanes[L]->Queue->enqueue(std::move(E));
      else
        Lanes[L]->Queue->enqueue(E);
    }
  }
  if (Barrier)
    flush();
}

bool EventProcessor::dispatchOn(const Event &E, std::size_t LaneIndex,
                                const RoutingTable &Table) {
  const KindRoute &Route = Table.Routes[static_cast<std::size_t>(E.Kind)];
  bool Delivered = false;
  // Synchronous dispatch runs on the producer's thread outside any
  // lane; the validator's lane-affinity checks don't apply there.
  const std::size_t ValidateLane =
      Lanes.empty() ? Validator::InlineDelivery : LaneIndex;
  for (std::uint32_t I : Route.Pinned) {
    if (Table.Entries[I].Lane != LaneIndex)
      continue;
    if (Val) {
      Val->beforeDelivery(*Table.Entries[I].T, E, ValidateLane);
      invoke(*Table.Entries[I].T, E);
      Val->afterDelivery(*Table.Entries[I].T);
    } else {
      invoke(*Table.Entries[I].T, E);
    }
    Delivered = true;
  }
  if (!Route.Floating.empty() && LaneIndex == homeLane(E)) {
    for (std::uint32_t I : Route.Floating) {
      if (Val) {
        Val->beforeDelivery(*Table.Entries[I].T, E, ValidateLane);
        invoke(*Table.Entries[I].T, E);
        Val->afterDelivery(*Table.Entries[I].T);
      } else {
        invoke(*Table.Entries[I].T, E);
      }
    }
    Delivered = true;
  }
  return Delivered;
}

void EventProcessor::invoke(Tool &T, const Event &E) {
  switch (E.Kind) {
  case EventKind::KernelLaunch:
    T.onKernelLaunch(E);
    break;
  case EventKind::KernelComplete:
    T.onKernelComplete(E);
    break;
  case EventKind::MemoryAlloc:
    T.onMemoryAlloc(E);
    break;
  case EventKind::MemoryFree:
    T.onMemoryFree(E);
    break;
  case EventKind::MemoryCopy:
    T.onMemoryCopy(E);
    break;
  case EventKind::MemorySet:
    T.onMemorySet(E);
    break;
  case EventKind::Synchronization:
    T.onSynchronization(E);
    break;
  case EventKind::BatchMemoryOp:
    T.onBatchMemoryOp(E);
    break;
  case EventKind::OperatorStart:
    T.onOperatorStart(E);
    break;
  case EventKind::OperatorEnd:
    T.onOperatorEnd(E);
    break;
  case EventKind::TensorAlloc:
    T.onTensorAlloc(E);
    break;
  case EventKind::TensorReclaim:
    T.onTensorReclaim(E);
    break;
  case EventKind::DriverFunction:
  case EventKind::RuntimeFunction:
  case EventKind::StreamCreate:
  case EventKind::StreamDestroy:
  case EventKind::ThreadBlockEntry:
  case EventKind::ThreadBlockExit:
  case EventKind::BarrierInstruction:
  case EventKind::DeviceMalloc:
  case EventKind::DeviceFree:
  case EventKind::LayerBoundary:
  case EventKind::FwdBwdBoundary:
  case EventKind::CustomRegion:
    break; // only the generic hook sees these
  }
  T.onEvent(E);
}

void EventProcessor::laneLoop(std::size_t LaneIndex) {
  CurrentLane = {this, LaneIndex};
  Lane &L = *Lanes[LaneIndex];
  std::vector<Event> Batch;
  while (L.Queue->dequeueBatch(Batch)) {
    // One epoch read per batch: a table swap can only happen while this
    // consumer is between batches (the swap's drain barrier waits for
    // the dispatched watermark, stored only here between batches, to
    // cover every ticket), so every event in this batch was admitted —
    // and is dispatched — under this table.
    const RoutingTable &Table = *Epoch.current();
    for (Event &E : Batch) {
      // Lane-local stack context, updated in this lane's event order so
      // Serial tools capture the same stacks as synchronous dispatch.
      if (E.Kind == EventKind::OperatorStart && !E.PythonStack.empty())
        L.Stacks.setPythonStack(E.PythonStack);
      if (dispatchOn(E, LaneIndex, Table)) {
        Core.EventsProcessed.fetch_add(1, std::memory_order_relaxed);
        L.Dispatched.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void EventProcessor::flush() {
  // A dispatch-lane thread waiting for its own queue to drain is a
  // deadlock (the tool hook that called us is the work being waited
  // on). Validation reports the contract break and skips the wait so
  // the collecting-handler test path survives.
  if (Val && CurrentLane.Owner == this) {
    Val->onFlushFromLane();
    return;
  }
  // FlushCount counts actual drain barriers; synchronous dispatch has
  // nothing to drain, so the metric stays 0 and comparable across modes.
  if (Lanes.empty())
    return;
  Core.FlushCount.fetch_add(1, std::memory_order_relaxed);
  drainLanes();
}

void EventProcessor::drainLanes() {
  if (!Val) {
    for (auto &L : Lanes)
      L->Queue->waitDrained();
    return;
  }
  // Barrier-ordering assertion: every ticket admitted before the
  // barrier began must be consumed when waitDrained returns. The
  // consumed counter is monotonic, so the check stays race-free even
  // with other producers admitting concurrently.
  std::vector<std::uint64_t> Admitted(Lanes.size());
  for (std::size_t I = 0; I < Lanes.size(); ++I)
    Admitted[I] = Lanes[I]->Queue->admittedTickets();
  for (std::size_t I = 0; I < Lanes.size(); ++I) {
    Lanes[I]->Queue->waitDrained();
    Val->onFlushBarrier(I, Admitted[I], Lanes[I]->Queue->consumedTickets());
  }
}

void EventProcessor::annotationStart() {
  flush();
  Filter.annotationStart();
}

void EventProcessor::annotationStop() {
  flush();
  Filter.annotationStop();
}

ProcessorStats EventProcessor::stats() const {
  ProcessorStats Snapshot;
  Snapshot.EventsProcessed =
      Core.EventsProcessed.load(std::memory_order_relaxed);
  Snapshot.EventsFiltered =
      Core.EventsFiltered.load(std::memory_order_relaxed);
  Snapshot.RecordBatches =
      Core.RecordBatches.load(std::memory_order_relaxed);
  Snapshot.RecordsDelivered =
      Core.RecordsDelivered.load(std::memory_order_relaxed);
  Snapshot.DeviceAnalyzedRecords =
      Core.DeviceAnalyzedRecords.load(std::memory_order_relaxed);
  Snapshot.HostAnalyzedRecords =
      Core.HostAnalyzedRecords.load(std::memory_order_relaxed);
  Snapshot.FlushCount = Core.FlushCount.load(std::memory_order_relaxed);
  Snapshot.Reconfigurations =
      Core.Reconfigurations.load(std::memory_order_relaxed);
  Snapshot.DispatchLanes = laneCount();
  EventArenaStats ArenaSnapshot = Arena.stats();
  Snapshot.ArenaPayloads = ArenaSnapshot.payloads();
  Snapshot.ArenaBytes = ArenaSnapshot.Bytes;
  Snapshot.ArenaHits = ArenaSnapshot.Hits;
  Snapshot.ArenaMemoHits = ArenaSnapshot.MemoHits;
  Snapshot.ArenaShardContention = ArenaSnapshot.ShardContention;
  Snapshot.ArenaShards = ArenaSnapshot.Shards;
  for (const auto &L : Lanes) {
    EventQueueCounters Counters = L->Queue->counters();
    Snapshot.EventsDropped += Counters.Dropped;
    Snapshot.QueueSpins += Counters.Spins;
    Snapshot.QueueParks += Counters.Parks;
    Snapshot.MaxQueueDepth =
        std::max(Snapshot.MaxQueueDepth, Counters.MaxDepth);
  }
  return Snapshot;
}

std::vector<DispatchLaneStats> EventProcessor::laneStats() const {
  std::vector<DispatchLaneStats> Out;
  Out.reserve(Lanes.size());
  for (const auto &L : Lanes) {
    EventQueueCounters Counters = L->Queue->counters();
    DispatchLaneStats Stats;
    Stats.EventsDispatched = L->Dispatched.load(std::memory_order_relaxed);
    Stats.Enqueued = Counters.Enqueued;
    Stats.Dropped = Counters.Dropped;
    Stats.MaxQueueDepth = Counters.MaxDepth;
    Out.push_back(Stats);
  }
  return Out;
}

void EventProcessor::reportPipeline(ReportSink &Sink) const {
  ProcessorStats Snapshot = stats();
  Sink.beginReport("event_pipeline");
  Sink.metric("mode", std::string(Lanes.empty() ? "sync" : "async"));
  if (!Lanes.empty()) {
    Sink.metric("queue_depth",
                static_cast<std::uint64_t>(Lanes.front()->Queue->capacity()));
    Sink.metric("dispatch_lanes", Snapshot.DispatchLanes);
    Sink.metric("reconfigurations", Snapshot.Reconfigurations);
  }
  Sink.metric("events_processed", Snapshot.EventsProcessed);
  Sink.metric("events_filtered", Snapshot.EventsFiltered);
  Sink.metric("events_dropped", Snapshot.EventsDropped);
  Sink.metric("max_queue_depth", Snapshot.MaxQueueDepth);
  Sink.metric("flush_count", Snapshot.FlushCount);
  if (!Lanes.empty()) {
    // Admission-path pressure: spins count enqueues that found the ring
    // full, parks those that still found it full under the waiter's
    // lock and blocked.
    Sink.metric("queue.spins", Snapshot.QueueSpins);
    Sink.metric("queue.parks", Snapshot.QueueParks);
    // The shared payload arena only runs in async mode; its hit count
    // is the number of payload allocations (and their per-lane copies)
    // the interning avoided.
    Sink.metric("arena.payloads", Snapshot.ArenaPayloads);
    Sink.metric("arena.bytes", Snapshot.ArenaBytes);
    Sink.metric("arena.hits", Snapshot.ArenaHits);
    Sink.metric("arena.memo_hits", Snapshot.ArenaMemoHits);
    Sink.metric("arena.shards", Snapshot.ArenaShards);
    Sink.metric("arena.shard_contention", Snapshot.ArenaShardContention);
  }
  if (Lanes.size() > 1) {
    std::vector<DispatchLaneStats> PerLane = laneStats();
    for (std::size_t I = 0; I < PerLane.size(); ++I) {
      std::string Prefix = "lane" + std::to_string(I);
      Sink.metric(Prefix + ".dispatched", PerLane[I].EventsDispatched);
      Sink.metric(Prefix + ".enqueued", PerLane[I].Enqueued);
      Sink.metric(Prefix + ".max_queue_depth", PerLane[I].MaxQueueDepth);
    }
  }
  Sink.endReport();
}

void EventProcessor::onKernelBegin(const sim::LaunchInfo &Info) {
  (void)Info;
  flush();
}

void EventProcessor::onAccessBatch(const sim::LaunchInfo &Info,
                                   const sim::MemAccessRecord *Records,
                                   std::size_t Count) {
  // The scope spans the whole delivery: record routing reads the
  // current table, and the tools' record hooks run inline on this
  // thread.
  AdmissionScope Scope(*this);
  flush(); // records must not run ahead of their coarse events
  if (!Filter.kernelActive(Info.GridId))
    return;
  Core.RecordBatches.fetch_add(1, std::memory_order_relaxed);
  Core.RecordsDelivered.fetch_add(Count, std::memory_order_relaxed);

  const RoutingTable &Table = *Epoch.current();
  for (std::uint32_t I : Table.RecordEntries) {
    Tool *T = Table.Entries[I].T;
    if (DeviceAnalysis *Analysis = T->deviceAnalysis()) {
      // GPU-resident model: reduce the batch concurrently on the device
      // analysis threads (paper Fig. 2b).
      AnalysisThreads.parallelFor(
          Count, [&](std::size_t Begin, std::size_t End) {
            Analysis->processRecords(Info, Records + Begin, End - Begin);
          });
      Core.DeviceAnalyzedRecords.fetch_add(Count, std::memory_order_relaxed);
    } else {
      // Conventional host-side model: one thread sees the whole batch.
      T->onAccessBatch(Info, Records, Count);
      Core.HostAnalyzedRecords.fetch_add(Count, std::memory_order_relaxed);
    }
  }
}

void EventProcessor::onInstrMix(const sim::LaunchInfo &Info,
                                const sim::InstrMix &Mix) {
  AdmissionScope Scope(*this);
  flush();
  if (!Filter.kernelActive(Info.GridId))
    return;
  const RoutingTable &Table = *Epoch.current();
  for (std::uint32_t I : Table.MixEntries)
    Table.Entries[I].T->onInstrMix(Info, Mix);
}

void EventProcessor::onKernelEnd(const sim::LaunchInfo &Info,
                                 const sim::TraceTimeBreakdown &Breakdown) {
  AdmissionScope Scope(*this);
  flush();
  if (!Filter.kernelActive(Info.GridId))
    return;
  const RoutingTable &Table = *Epoch.current();
  for (std::uint32_t I : Table.TraceEntries)
    Table.Entries[I].T->onKernelTraceEnd(Info, Breakdown);
}
