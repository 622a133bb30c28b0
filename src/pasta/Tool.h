//===- pasta/Tool.h - Analysis tool template --------------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PASTA tool collection template (paper §III-B). Custom analyses
/// derive from Tool and override only the hooks they need — the paper's
/// "create custom analyses by simply overriding functions in the tool
/// collection template". Tools that want GPU-resident analysis (Fig. 2b)
/// return a DeviceAnalysis; its processRecords runs concurrently on the
/// processor's device-analysis threads and must be thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_TOOL_H
#define PASTA_PASTA_TOOL_H

#include "pasta/Capabilities.h"
#include "pasta/Events.h"
#include "pasta/SessionError.h"
#include "sim/Trace.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pasta {

class EventProcessor;
class ReportSink;

/// Concurrency contract a tool declares for its coarse-event hooks. The
/// dispatch unit uses it to decide which dispatch lane(s) may invoke the
/// tool, turning the "is this tool thread-safe?" audit into an
/// attach-time property instead of a code-review question.
enum class ExecutionModel : std::uint8_t {
  /// All hooks run on one pinned dispatch lane (today's contract; the
  /// safe default for tools with unsynchronized state).
  Serial,
  /// Hooks for different devices may run concurrently on different
  /// lanes; events for one device are always delivered in order on one
  /// lane. The tool must only share state across devices under a lock.
  ShardByDevice,
  /// The tool is internally synchronized; any lane may invoke any hook
  /// at any time.
  Concurrent,
};

/// Stable lower-case name ("serial", "shard-by-device", "concurrent").
const char *executionModelName(ExecutionModel Model);

/// Value-type bitmask over EventKind — the "which discrete events do I
/// consume" half of a Subscription.
class EventKindMask {
public:
  constexpr EventKindMask() = default;
  constexpr EventKindMask(std::initializer_list<EventKind> Kinds) {
    for (EventKind Kind : Kinds)
      Bits |= bit(Kind);
  }

  static constexpr EventKindMask all() {
    EventKindMask Mask;
    Mask.Bits = (std::uint64_t(1) << NumEventKinds) - 1;
    return Mask;
  }
  static constexpr EventKindMask none() { return EventKindMask(); }

  constexpr bool has(EventKind Kind) const {
    return (Bits & bit(Kind)) != 0;
  }
  constexpr bool empty() const { return Bits == 0; }

  constexpr EventKindMask &operator|=(EventKindMask Other) {
    Bits |= Other.Bits;
    return *this;
  }
  friend constexpr EventKindMask operator|(EventKindMask A,
                                           EventKindMask B) {
    return A |= B;
  }
  friend constexpr bool operator==(EventKindMask A, EventKindMask B) {
    return A.Bits == B.Bits;
  }
  friend constexpr bool operator!=(EventKindMask A, EventKindMask B) {
    return A.Bits != B.Bits;
  }

  /// "KernelLaunch|MemoryAlloc" style rendering; "all" / "none" for the
  /// two extremes.
  std::string str() const;

private:
  static constexpr std::uint64_t bit(EventKind Kind) {
    return std::uint64_t(1) << static_cast<unsigned>(Kind);
  }
  std::uint64_t Bits = 0;
};

/// What a tool declares it consumes, and under which concurrency
/// contract — the attach-time replacement for "every tool virtually
/// receives every event". The dispatch unit builds its per-kind routing
/// tables from these, so non-subscribers never pay a virtual call (the
/// generic onEvent hook included), and capability negotiation derives
/// requirements() from the same declaration.
struct Subscription {
  /// Discrete event kinds delivered to the kind-specific hooks and the
  /// generic onEvent hook.
  EventKindMask Kinds;
  /// Fine-grained record batches (onAccessBatch / deviceAnalysis()).
  bool AccessRecords = false;
  /// Dynamic instruction mixes (onInstrMix).
  bool InstrMix = false;
  /// Per-launch instrumentation breakdowns (onKernelTraceEnd).
  bool KernelTrace = false;
  /// Unified-memory counters.
  bool UvmCounters = false;
  /// The tool captures cross-layer call stacks — it calls
  /// EventProcessor::callStacks() from a hook (or from onFinish). The
  /// dispatch unit routes Python-stack context updates only to the lanes
  /// hosting declaring tools, so lanes full of stack-indifferent tools
  /// never see context-only fan-out. A tool that captures without
  /// declaring this observes a stale (empty) context on its lane.
  bool CapturesStacks = false;
  /// Concurrency contract for the coarse-event hooks above.
  ExecutionModel Model = ExecutionModel::Serial;

  /// The capability set this subscription negotiates for. CoarseEvents
  /// is always included: every backend has the cheap callbacks.
  CapabilitySet requiredCapabilities() const;
};

/// Thread-safe reducer for fine-grained device records (the tool-supplied
/// __device__ helper of the paper's GPU-resident model).
class DeviceAnalysis {
public:
  virtual ~DeviceAnalysis();

  /// Reduces one chunk of records in-situ. Called concurrently from the
  /// device-analysis thread pool.
  virtual void processRecords(const sim::LaunchInfo &Info,
                              const sim::MemAccessRecord *Records,
                              std::size_t Count) = 0;
};

/// Base class for all PASTA tools.
class Tool {
public:
  virtual ~Tool();

  virtual std::string name() const = 0;

  /// Declares what this tool consumes and under which concurrency
  /// contract. The dispatch unit routes only the declared event kinds to
  /// the tool (kind hook and generic onEvent hook alike) and uses the
  /// ExecutionModel to place the tool on its dispatch lanes. Every tool
  /// declares one: event hooks the subscription does not name are never
  /// called.
  virtual Subscription subscription() = 0;

  /// Event classes this tool consumes; sessions enable only the matching
  /// backend instrumentation (capability negotiation). The default is
  /// subscription().requiredCapabilities(), plus AccessRecords when
  /// deviceAnalysis() is non-null. Override only when the negotiated set
  /// must differ from the declared subscription.
  virtual CapabilitySet requirements();

  /// Lifecycle: called when the session activates / deactivates the tool.
  virtual void onStart() {}
  virtual void onFinish() {}
  /// Called when the tool joins an event processor; tools that capture
  /// cross-layer call stacks keep the pointer.
  virtual void onAttach(EventProcessor &Processor) { (void)Processor; }

  //===--------------------------------------------------------------------===
  // Coarse host-API events (CPU-preprocessed by the event processor)
  //===--------------------------------------------------------------------===
  /// Generic hook: receives every event after the specific hook.
  virtual void onEvent(const Event &E) { (void)E; }
  virtual void onKernelLaunch(const Event &E) { (void)E; }
  virtual void onKernelComplete(const Event &E) { (void)E; }
  virtual void onMemoryAlloc(const Event &E) { (void)E; }
  virtual void onMemoryFree(const Event &E) { (void)E; }
  virtual void onMemoryCopy(const Event &E) { (void)E; }
  virtual void onMemorySet(const Event &E) { (void)E; }
  virtual void onSynchronization(const Event &E) { (void)E; }
  virtual void onBatchMemoryOp(const Event &E) { (void)E; }

  //===--------------------------------------------------------------------===
  // High-level DL framework events
  //===--------------------------------------------------------------------===
  virtual void onOperatorStart(const Event &E) { (void)E; }
  virtual void onOperatorEnd(const Event &E) { (void)E; }
  virtual void onTensorAlloc(const Event &E) { (void)E; }
  virtual void onTensorReclaim(const Event &E) { (void)E; }

  //===--------------------------------------------------------------------===
  // Fine-grained device operations
  //===--------------------------------------------------------------------===
  /// Host-side path (Fig. 2a): raw record batches on one thread.
  virtual void onAccessBatch(const sim::LaunchInfo &Info,
                             const sim::MemAccessRecord *Records,
                             std::size_t Count) {
    (void)Info;
    (void)Records;
    (void)Count;
  }
  /// Device-resident path (Fig. 2b): non-null enables in-situ analysis.
  virtual DeviceAnalysis *deviceAnalysis() { return nullptr; }
  /// Instruction mix (full-coverage NVBit backend only).
  virtual void onInstrMix(const sim::LaunchInfo &Info,
                          const sim::InstrMix &Mix) {
    (void)Info;
    (void)Mix;
  }
  /// Per-launch instrumentation cost breakdown (Fig. 10's components).
  virtual void onKernelTraceEnd(const sim::LaunchInfo &Info,
                                const sim::TraceTimeBreakdown &Breakdown) {
    (void)Info;
    (void)Breakdown;
  }

  /// Writes the tool's report (benches call this at run end).
  /// \deprecated Prefer report(ReportSink&), which also carries structured
  /// metrics; this remains the text body of the default report().
  virtual void writeReport(std::FILE *Out) { (void)Out; }

  /// Emits the tool's report into \p Sink. The default wraps the legacy
  /// writeReport text in one begin/end section; tools with structured
  /// results override this and add metric() calls.
  virtual void report(ReportSink &Sink);

protected:
  /// Renders writeReport(FILE*) into a string (for report() overrides
  /// that want the text body alongside their metrics).
  std::string renderTextReport();
};

/// Factory registry so tools can be selected by name via the PASTA_TOOL
/// environment variable or a command-line option (paper §III-C).
class ToolRegistry {
public:
  using Factory = std::function<std::unique_ptr<Tool>()>;

  /// Global registry instance.
  static ToolRegistry &instance();

  void registerTool(const std::string &Name, Factory MakeTool);
  /// Creates a registered tool; null when unknown.
  std::unique_ptr<Tool> create(const std::string &Name) const;
  /// Diagnostic variant: on unknown \p Name, fills \p Err with the sorted
  /// list of registered names instead of failing silently.
  std::unique_ptr<Tool> create(const std::string &Name,
                               SessionError &Err) const;
  /// Names in sorted order.
  std::vector<std::string> registeredNames() const;

private:
  std::map<std::string, Factory> Factories;
};

} // namespace pasta

#endif // PASTA_PASTA_TOOL_H
