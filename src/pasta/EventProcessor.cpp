//===- pasta/EventProcessor.cpp -------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Synchronous dispatch under one mutex (see the header overview): every
// admission, record delivery and reconfiguration holds DispatchMutex, so
// the routing table is read and rebuilt without any further protocol.
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

/// The innermost dispatch on the current thread; each scope links to
/// the one it interrupted (a hook may admit into another processor).
struct DispatchScope;
thread_local const DispatchScope *CurrentDispatch = nullptr;

/// One process() call or record delivery on \p P, entered with P's
/// dispatch mutex held: marks the thread as running P's hooks, so a hook
/// that calls back into P is told apart from another thread waiting for
/// the mutex.
struct DispatchScope {
  explicit DispatchScope(const EventProcessor &P)
      : Processor(&P), Outer(CurrentDispatch) {
    CurrentDispatch = this;
  }
  ~DispatchScope() { CurrentDispatch = Outer; }
  DispatchScope(const DispatchScope &) = delete;
  DispatchScope &operator=(const DispatchScope &) = delete;

  const EventProcessor *Processor;
  const DispatchScope *Outer;
};

} // namespace

bool EventProcessor::inDispatchContext() const {
  for (const DispatchScope *S = CurrentDispatch; S; S = S->Outer)
    if (S->Processor == this)
      return true;
  return false;
}

void EventProcessor::rejectReentrantAdmission(const char *What) {
  // This thread already holds DispatchMutex, so the counter is ours.
  bump(Core.EventsDropped);
  logWarning(std::string("EventProcessor: ") + What +
             " called from one of this processor's tool hooks; the "
             "admission was dropped (the hook runs under the dispatch "
             "mutex, so dispatching it would deadlock)");
}

EventProcessor::EventProcessor(const ProcessorOptions &Opts) {
  if (Opts.Validate) {
    Val = std::make_unique<Validator>();
    Arena.setValidator(Val.get());
  }
}

EventProcessor::~EventProcessor() = default;

bool EventProcessor::addTool(Tool *T) {
  if (inDispatchContext()) {
    logWarning("EventProcessor: addTool('" + T->name() +
               "') called from a tool hook; rejected (the hook runs "
               "under the dispatch mutex — reconfigure from outside the "
               "pipeline)");
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(DispatchMutex);
    Tools.push_back(T);
    rebuildTable();
  }
  T->onAttach(*this);
  return true;
}

bool EventProcessor::removeTool(Tool *T) {
  if (inDispatchContext()) {
    logWarning("EventProcessor: removeTool('" + T->name() +
               "') called from a tool hook; rejected");
    return false;
  }
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  auto It = std::find(Tools.begin(), Tools.end(), T);
  if (It == Tools.end())
    return false;
  Tools.erase(It);
  rebuildTable();
  return true;
}

bool EventProcessor::clearTools() {
  if (inDispatchContext()) {
    logWarning("EventProcessor: clearTools() called from a tool hook; "
               "rejected");
    return false;
  }
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  Tools.clear();
  rebuildTable();
  return true;
}

std::optional<Subscription>
EventProcessor::subscriptionOf(const Tool *T) const {
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  for (const ToolRouteEntry &Entry : Table.Entries)
    if (Entry.T == T)
      return Entry.Sub;
  return std::nullopt;
}

void EventProcessor::rebuildTable() {
  RoutingTable Next;
  Next.Entries.reserve(Tools.size());
  for (Tool *T : Tools)
    Next.Entries.push_back({T, T->subscription()});

  // Serial subscribers run before the others, attach order holding
  // within each group: the delivery order the report goldens were
  // captured with.
  for (bool Serial : {true, false})
    for (std::uint32_t I = 0; I < Next.Entries.size(); ++I) {
      const Subscription &Sub = Next.Entries[I].Sub;
      if ((Sub.Model == ExecutionModel::Serial) != Serial)
        continue;
      for (std::size_t K = 0; K < NumEventKinds; ++K)
        if (Sub.Kinds.has(static_cast<EventKind>(K)))
          Next.Routes[K].push_back(I);
    }
  for (std::uint32_t I = 0; I < Next.Entries.size(); ++I) {
    const ToolRouteEntry &Entry = Next.Entries[I];
    if (Entry.Sub.AccessRecords || Entry.T->deviceAnalysis())
      Next.RecordEntries.push_back(I);
    if (Entry.Sub.InstrMix)
      Next.MixEntries.push_back(I);
    if (Entry.Sub.KernelTrace)
      Next.TraceEntries.push_back(I);
  }

  // Mirror the new contracts into the validator: tools that survive
  // keep their state, tools absent from the new table are retired.
  if (Val) {
    Val->beginReconfiguration();
    for (const ToolRouteEntry &Entry : Next.Entries)
      Val->registerTool(*Entry.T, Entry.Sub);
    Val->endReconfiguration();
  }

  Table = std::move(Next);
  bump(Core.Reconfigurations);
}

bool EventProcessor::admit(Event &E) {
  // Range filtering: kernel-scoped events outside the analysis window are
  // dropped; resource/DL bookkeeping events always pass so tools keep a
  // consistent view of allocations.
  bool KernelScoped = E.Kind == EventKind::KernelLaunch ||
                      E.Kind == EventKind::KernelComplete;
  if (KernelScoped && !Filter.kernelActive(E.GridId)) {
    bump(Core.EventsFiltered);
    return false;
  }
  if (eventLevel(E.Kind) == EventLevel::DlFramework &&
      !Filter.regionActive() && E.Kind != EventKind::TensorAlloc &&
      E.Kind != EventKind::TensorReclaim) {
    bump(Core.EventsFiltered);
    return false;
  }

  // CPU preprocessing: keep the cross-layer stack context current for
  // the hooks that capture stacks.
  if (E.Kind == EventKind::OperatorStart && !E.PythonStack.empty())
    Stacks.setPythonStack(E.PythonStack);
  return true;
}

void EventProcessor::process(Event E) {
  if (inDispatchContext()) {
    rejectReentrantAdmission("process()");
    return;
  }
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  DispatchScope Scope(*this);
  // Only passes that reached a tool count.
  if (admit(E) && dispatch(E))
    bump(Core.EventsProcessed);
}

bool EventProcessor::dispatch(const Event &E) {
  const std::vector<std::uint32_t> &Route =
      Table.Routes[static_cast<std::size_t>(E.Kind)];
  for (std::uint32_t I : Route) {
    Tool &T = *Table.Entries[I].T;
    if (Val) {
      Val->beforeDelivery(T, E);
      invoke(T, E);
      Val->afterDelivery(T);
    } else {
      invoke(T, E);
    }
  }
  return !Route.empty();
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

void EventProcessor::annotationStart() {
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  Filter.annotationStart();
}

void EventProcessor::annotationStop() {
  std::lock_guard<std::mutex> Lock(DispatchMutex);
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
  Snapshot.EventsDropped = Core.EventsDropped.load(std::memory_order_relaxed);
  Snapshot.Reconfigurations =
      Core.Reconfigurations.load(std::memory_order_relaxed);
  EventArenaStats ArenaSnapshot = Arena.stats();
  Snapshot.ArenaPayloads = ArenaSnapshot.payloads();
  Snapshot.ArenaBytes = ArenaSnapshot.Bytes;
  Snapshot.ArenaHits = ArenaSnapshot.Hits;
  return Snapshot;
}

void EventProcessor::reportPipeline(ReportSink &Sink) const {
  ProcessorStats Snapshot = stats();
  Sink.beginReport("event_pipeline");
  Sink.metric("events_processed", Snapshot.EventsProcessed);
  Sink.metric("events_filtered", Snapshot.EventsFiltered);
  Sink.metric("events_dropped", Snapshot.EventsDropped);
  Sink.metric("reconfigurations", Snapshot.Reconfigurations);
  Sink.endReport();
}

void EventProcessor::onAccessBatch(const sim::LaunchInfo &Info,
                                   const sim::MemAccessRecord *Records,
                                   std::size_t Count) {
  if (inDispatchContext()) {
    rejectReentrantAdmission("onAccessBatch()");
    return;
  }
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  DispatchScope Scope(*this);
  if (!Filter.kernelActive(Info.GridId))
    return;
  bump(Core.RecordBatches);
  bump(Core.RecordsDelivered, Count);

  for (std::uint32_t I : Table.RecordEntries) {
    Tool *T = Table.Entries[I].T;
    if (DeviceAnalysis *Analysis = T->deviceAnalysis()) {
      // GPU-resident model (paper Fig. 2b): the tool's in-situ reducer
      // takes the whole batch; the device's cost model charged it.
      Analysis->processRecords(Info, Records, Count);
      bump(Core.DeviceAnalyzedRecords, Count);
    } else {
      // Conventional host-side model: one thread sees the whole batch.
      T->onAccessBatch(Info, Records, Count);
      bump(Core.HostAnalyzedRecords, Count);
    }
  }
}

void EventProcessor::onInstrMix(const sim::LaunchInfo &Info,
                                const sim::InstrMix &Mix) {
  if (inDispatchContext()) {
    rejectReentrantAdmission("onInstrMix()");
    return;
  }
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  DispatchScope Scope(*this);
  if (!Filter.kernelActive(Info.GridId))
    return;
  for (std::uint32_t I : Table.MixEntries)
    Table.Entries[I].T->onInstrMix(Info, Mix);
}

void EventProcessor::onKernelEnd(const sim::LaunchInfo &Info,
                                 const sim::TraceTimeBreakdown &Breakdown) {
  if (inDispatchContext()) {
    rejectReentrantAdmission("onKernelEnd()");
    return;
  }
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  DispatchScope Scope(*this);
  if (!Filter.kernelActive(Info.GridId))
    return;
  for (std::uint32_t I : Table.TraceEntries)
    Table.Entries[I].T->onKernelTraceEnd(Info, Breakdown);
}
