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
/// compiled into one RoutingTable, so an event only reaches the tools
/// that asked for its kind — including the generic onEvent hook, which
/// non-subscribers never see.
///
/// Dispatch is synchronous, under one dispatch mutex: process() and the
/// TraceSink record deliveries run admission (range filtering, the
/// shared Python-stack context) and the tool hooks on the caller's
/// thread while holding it. Any number of producer threads may admit
/// concurrently; their events are dispatched one at a time, each before
/// its process() call returns, so a Serial tool's hooks never overlap
/// and every producer's events reach each tool in that producer's order.
/// The application pays tool-analysis cost inline; measured against the
/// former lane threads, that was the cheaper side on every model-zoo run
/// (ROADMAP item 3).
///
/// Live reconfiguration: addTool()/removeTool()/clearTools() rebuild the
/// routing table under the same mutex, so a reconfiguration falls
/// between two admissions and callers need no lock of their own. A tool
/// sees exactly the events admitted after addTool() returns and none
/// admitted after removeTool() returns.
///
/// A tool hook runs with the dispatch mutex held, so it must not call
/// back into its own processor's admission or reconfiguration entry
/// points: reconfiguration is rejected with a diagnostic, and a re-entrant
/// admission is diagnosed and dropped (counted in EventsDropped) instead
/// of deadlocking. flush() is a no-op and safe from anywhere; stats() and
/// callStacks() take no dispatch lock.
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

/// Processor-side counters (tests assert on them). The fields marked
/// "always 0" describe the deleted lane pipeline; they stay because
/// pastabench and the stream meta frames still read them, and go with
/// the next change to the benchmark.
struct ProcessorStats {
  /// Dispatch passes that delivered an event to at least one tool.
  std::uint64_t EventsProcessed = 0;
  std::uint64_t EventsFiltered = 0;
  std::uint64_t RecordBatches = 0;
  std::uint64_t RecordsDelivered = 0;
  std::uint64_t DeviceAnalyzedRecords = 0;
  std::uint64_t HostAnalyzedRecords = 0;
  /// Admissions (process() calls and record deliveries) rejected because
  /// a tool hook made them into its own processor; admission is
  /// otherwise lossless.
  std::uint64_t EventsDropped = 0;
  /// Always 0.
  std::uint64_t EventsSampledOut = 0;
  /// Always 0.
  std::uint64_t MaxQueueDepth = 0;
  /// Always 0.
  std::uint64_t FlushCount = 0;
  /// Routing-table rebuilds so far (tool attach/detach/clear; the
  /// initial empty table does not count).
  std::uint64_t Reconfigurations = 0;
  /// Always 0.
  std::uint64_t QueueSpins = 0;
  /// Always 0.
  std::uint64_t QueueParks = 0;
  /// Event arena: distinct payloads resident. Only the replay and serve
  /// decoders intern into it; live admission does not.
  std::uint64_t ArenaPayloads = 0;
  /// Event arena: approximate bytes those payloads occupy, once.
  std::uint64_t ArenaBytes = 0;
  /// Event arena: intern lookups that found an existing payload.
  std::uint64_t ArenaHits = 0;
  /// Always 0.
  std::uint64_t ArenaMemoHits = 0;
  /// Always 0.
  std::uint64_t ArenaShardContention = 0;
};

/// Dispatch-unit configuration.
struct ProcessorOptions {
  /// Ignored: device analysis runs on the delivering thread.
  std::size_t AnalysisThreads = 0;
  /// Ignored: dispatch is always synchronous.
  bool AsyncEvents = false;
  /// Ignored: there is no event queue.
  std::size_t QueueDepth = 4096;
  /// Ignored: there are no dispatch lanes.
  std::size_t DispatchThreads = 1;
  // The four fields above stay only because pastabench still sets them;
  // they go with the next change to the benchmark.
  /// Runtime contract validation (see pasta/Validate.h): the Serial
  /// overlap watchdog, subscription-mask and -drift checks and the
  /// arena payload canaries. Off by default (one null check per
  /// dispatch); --validate and the -DPASTA_VALIDATE=ON build flip it.
  bool Validate = validateDefault();
};

/// Preprocessing + dispatch layer between the event handler and tools.
class EventProcessor : public sim::TraceSink {
public:
  explicit EventProcessor(const ProcessorOptions &Opts = {});
  ~EventProcessor() override;

  /// Adds a tool (not owned) and rebuilds the routing table under the
  /// dispatch mutex: the tool sees exactly the events admitted after the
  /// call returns. Returns false (without mutating) when called from one
  /// of this processor's tool hooks.
  bool addTool(Tool *T);
  /// Detaches \p T: events admitted after the call returns never reach
  /// it. False when \p T is not attached or under the same hook rule as
  /// addTool.
  bool removeTool(Tool *T);
  /// Removes every tool. Same rule as addTool.
  bool clearTools();
  /// Attached tools in attach order. Not synchronized with a concurrent
  /// reconfiguration.
  const std::vector<Tool *> &tools() const { return Tools; }
  /// The subscription \p T was attached with (as compiled into the
  /// routing table); nullopt when \p T is not attached. Takes the
  /// dispatch mutex, so not from a tool hook.
  std::optional<Subscription> subscriptionOf(const Tool *T) const;

  RangeFilter &rangeFilter() { return Filter; }
  /// The payload arena the replay and serve decoders intern into.
  EventArena &arena() { return Arena; }
  /// The cross-layer stack context, updated at admission. Takes no
  /// dispatch lock (hooks call it).
  CallStackBuilder &callStacks() { return Stacks; }
  /// Counter snapshot. Takes no dispatch lock: each counter is read
  /// atomically, so a monitor may poll it mid-run, but only a quiescent
  /// processor yields a mutually consistent snapshot.
  ProcessorStats stats() const;
  /// The runtime contract validator, or null when validation is off
  /// (ProcessorOptions::Validate). Tests install collecting handlers
  /// and drive the payload ledger through this.
  Validator *validator() const { return Val.get(); }

  /// Admits one coarse event (called by the event handler):
  /// preprocesses and dispatches it under the dispatch mutex.
  void process(Event E);

  /// No-op: every admitted event was dispatched before its process()
  /// call returned. Kept because pastabench still calls it.
  void flush() {}

  /// Annotation toggles (pasta.start/stop), applied between admissions
  /// (they take the dispatch mutex, so not from a tool hook).
  void annotationStart();
  void annotationStop();

  /// Emits the dispatch-unit counters as an "event_pipeline" report
  /// section (does not close \p Sink).
  void reportPipeline(ReportSink &Sink) const;

  //===--------------------------------------------------------------------===
  // sim::TraceSink — fine-grained device records
  //===--------------------------------------------------------------------===
  // Record batches reference transient device buffers and are analyzed
  // inline on the delivering thread under the dispatch mutex, one batch
  // at a time: a tool's onAccessBatch or its
  // DeviceAnalysis::processRecords gets the whole batch in one call,
  // after every coarse event admitted before it. Only tools whose
  // subscription declares the matching interest are invoked.
  void onAccessBatch(const sim::LaunchInfo &Info,
                     const sim::MemAccessRecord *Records,
                     std::size_t Count) override;
  void onInstrMix(const sim::LaunchInfo &Info,
                  const sim::InstrMix &Mix) override;
  void onKernelEnd(const sim::LaunchInfo &Info,
                   const sim::TraceTimeBreakdown &Breakdown) override;

private:
  /// One tool as compiled into the routing table.
  struct ToolRouteEntry {
    Tool *T = nullptr;
    Subscription Sub;
  };

  /// The attached tools' subscriptions, compiled. Rebuilt under the
  /// dispatch mutex on every reconfiguration and read under it on every
  /// dispatch.
  struct RoutingTable {
    std::vector<ToolRouteEntry> Entries;
    /// Per event kind, the entry indices to invoke: Serial subscribers
    /// first, then the others, each in attach order.
    std::array<std::vector<std::uint32_t>, NumEventKinds> Routes;
    /// Entry indices with fine-grained interests (record batches,
    /// instruction mixes, per-launch trace breakdowns).
    std::vector<std::uint32_t> RecordEntries;
    std::vector<std::uint32_t> MixEntries;
    std::vector<std::uint32_t> TraceEntries;
  };

  /// True when the calling thread runs one of this processor's tool
  /// hooks, i.e. already holds DispatchMutex.
  bool inDispatchContext() const;

  /// Diagnoses an admission made from one of this processor's own hooks
  /// and counts it as dropped (taking the mutex again would deadlock).
  void rejectReentrantAdmission(const char *What);

  /// Admission-side preprocessing: range filtering and the shared
  /// Python-stack context. False when filtered.
  bool admit(Event &E);

  /// Compiles the attached tools into Table and registers the contracts
  /// with the validator (caller holds DispatchMutex).
  void rebuildTable();

  /// Routes \p E to the hooks of every subscriber. Returns true when any
  /// tool was invoked.
  bool dispatch(const Event &E);

  /// Calls the kind-specific hook, then the generic hook.
  static void invoke(Tool &T, const Event &E);

  /// Adds \p N to \p Counter. Callers hold DispatchMutex, so a relaxed
  /// load and store replace the read-modify-write; stats() reads
  /// without the lock.
  static void bump(std::atomic<std::uint64_t> &Counter, std::uint64_t N = 1) {
    Counter.store(Counter.load(std::memory_order_relaxed) + N,
                  std::memory_order_relaxed);
  }

  /// Serializes admission, dispatch and reconfiguration.
  mutable std::mutex DispatchMutex;
  /// Attached tools in attach order (mutated under DispatchMutex).
  std::vector<Tool *> Tools;
  /// The compiled subscriptions (guarded by DispatchMutex).
  RoutingTable Table;

  RangeFilter Filter;
  /// Payload arena for the replay and serve decoders.
  EventArena Arena;
  /// Cross-layer stack context, written at admission.
  CallStackBuilder Stacks;
  /// Written under DispatchMutex, read by stats() without it.
  struct {
    std::atomic<std::uint64_t> EventsProcessed{0};
    std::atomic<std::uint64_t> EventsFiltered{0};
    std::atomic<std::uint64_t> RecordBatches{0};
    std::atomic<std::uint64_t> RecordsDelivered{0};
    std::atomic<std::uint64_t> DeviceAnalyzedRecords{0};
    std::atomic<std::uint64_t> HostAnalyzedRecords{0};
    std::atomic<std::uint64_t> EventsDropped{0};
    std::atomic<std::uint64_t> Reconfigurations{0};
  } Core;

  /// Runtime contract checks (null when ProcessorOptions::Validate is
  /// off — the entire validation plane then costs one null test per
  /// dispatch).
  std::unique_ptr<Validator> Val;
};

} // namespace pasta

#endif // PASTA_PASTA_EVENTPROCESSOR_H
