//===- pasta/Validate.h - Runtime contract validation -----------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PASTA_VALIDATE — the runtime half of the contract-enforcement layer
/// (pasta-lint is the static half; docs/VALIDATION.md is the narrative
/// spec). The dispatch pipeline declares contracts the type system
/// cannot enforce: a Serial tool's hooks never overlap and stay on
/// their pinned lane, events reach a tool only inside its declared
/// EventKindMask, arena payload handles are never used after release,
/// flush barriers actually drain. TSan cannot see most of these — a
/// Serial tool migrated between threads *with* happens-before is not a
/// data race, but it is a broken contract — so a Validator checks them
/// dynamically.
///
/// Cost model: validation is a per-processor opt-in (ProcessorOptions::
/// Validate / SessionBuilder::validate() / accelprof --validate /
/// -DPASTA_VALIDATE=ON build default). When off, the pipeline carries
/// one null-pointer test per admission and per dispatch and nothing
/// else — the Validator object does not exist. When on, every delivery
/// takes a short mutex-protected ledger/state path; this is a debugging
/// build mode, not a production default.
///
/// Violations route through a handler: the default prints the
/// diagnostic and aborts (a broken contract means tool state is already
/// corrupt); tests install a collecting handler instead.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_VALIDATE_H
#define PASTA_PASTA_VALIDATE_H

#include "pasta/Events.h"
#include "pasta/Tool.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace pasta {

/// One detected contract violation.
struct ValidationViolation {
  enum class Kind : std::uint8_t {
    /// Two hook invocations of a Serial tool overlapped in time
    /// (reentrancy or unserialized concurrent producers).
    SerialOverlap,
    /// A Serial tool was delivered an event on a lane other than the
    /// one it was pinned to at attach — a routing-table bug.
    SerialLaneMigration,
    /// An event outside the tool's declared EventKindMask reached it —
    /// a routing-table compilation bug.
    SubscriptionMask,
    /// subscription() no longer returns what was compiled at attach:
    /// the routing tables and the tool disagree about the contract.
    SubscriptionDrift,
    /// A tool was delivered an event without ever being registered —
    /// the routing tables reference a tool the validator never saw.
    UnregisteredTool,
    /// releasePayload() on a handle already released (refcount would
    /// go below zero).
    PayloadDoubleRelease,
    /// releasePayload() on a pointer the ledger never saw (underflow
    /// of an untracked count, or a stray pointer).
    PayloadUnknownRelease,
    /// A delivered event still references a payload whose ledger entry
    /// was released (the handle outlived its registration).
    PayloadUseAfterRelease,
    /// A ledger entry's canary word was overwritten — memory corruption
    /// in or around the payload bookkeeping.
    PayloadCanaryStomp,
    /// flush() entered from a dispatch-lane thread: a lane cannot wait
    /// for itself to drain (deadlock; validation skips the wait).
    FlushFromLane,
    /// After a flush barrier, a lane had consumed fewer tickets than
    /// were admitted when the barrier began — waitDrained() returned
    /// without the drain it promises.
    FlushNotDrained,
    /// A routing-table swap (addTool/removeTool/clearTools) ran while a
    /// process() call or record delivery was in flight on the same
    /// processor: the caller broke the reconfiguration contract.
    ReconfigureDuringAdmission,
  };

  Kind What = Kind::SerialOverlap;
  std::string Message;
};

/// Stable name for a violation kind ("serial-overlap", ...).
const char *validationViolationName(ValidationViolation::Kind K);

/// Validator activity counters (tests assert the checks actually ran).
struct ValidatorStats {
  std::uint64_t DeliveriesChecked = 0;
  std::uint64_t PayloadsTracked = 0;
  std::uint64_t Violations = 0;
  /// Serial tools whose pinned lane legitimately changed across an
  /// epoch swap (beginReconfiguration/endReconfiguration bracket). Not
  /// violations: a detach re-pins the remaining Serial tools round-robin
  /// at the epoch boundary, which is the sanctioned way one moves.
  std::uint64_t SanctionedMigrations = 0;
};

/// The runtime contract checker. One Validator per EventProcessor,
/// created only when validation is enabled; every hook below is invoked
/// behind a null check, so a validation-off pipeline never pays more
/// than that test. All methods are thread-safe (deliveries arrive from
/// any lane, payload registration from any producer).
class Validator {
public:
  using Handler = std::function<void(const ValidationViolation &)>;

  Validator();
  ~Validator();

  /// Installs \p H as the violation handler (replacing print-and-abort).
  /// The handler may be invoked concurrently from any pipeline thread.
  void setHandler(Handler H);

  /// Emits one violation through the handler.
  void report(ValidationViolation::Kind What, std::string Message);

  /// The lane value for deliveries outside any dispatch lane
  /// (synchronous inline dispatch); lane-affinity checks don't apply.
  static constexpr std::size_t InlineDelivery = ~std::size_t(0);

  //===--------------------------------------------------------------------===
  // Tool contracts
  //===--------------------------------------------------------------------===

  /// (Re)registers \p T with the subscription the routing tables were
  /// compiled from and its pinned lane. Also re-queries
  /// T.subscription() and reports SubscriptionDrift when the answer no
  /// longer matches \p Compiled — the caller must hold its attach lock
  /// (single-threaded, like the compile itself). Inside a
  /// beginReconfiguration/endReconfiguration bracket, re-registering a
  /// known Serial tool with a different pinned lane counts a sanctioned
  /// migration instead of arming the lane-affinity check against the
  /// stale lane.
  void registerTool(Tool &T, const Subscription &Compiled,
                    std::size_t PinnedLane);
  /// Forgets every registered tool (clearTools on the processor).
  void unregisterTools();

  /// Brackets an epoch swap, drain included. The caller must keep the
  /// swap out of every process() call and record delivery; nothing
  /// waits for them, but when an admission is in flight at either end
  /// of the bracket, endReconfiguration() reports one
  /// ReconfigureDuringAdmission. beginReconfiguration() marks every
  /// registered tool stale; the registerTool() calls that follow
  /// re-adopt survivors in place (their in-flight Active counters are
  /// preserved — a collecting-handler test may hold state across the
  /// swap); endReconfiguration() retires tools the new table no longer
  /// routes to. The caller holds the processor's attach lock for the
  /// whole bracket.
  void beginReconfiguration();
  void endReconfiguration();

  /// Bracket one process() call or record delivery. They only count
  /// (seq_cst, like the reads at both ends of the reconfiguration
  /// bracket); nothing waits on the count.
  void beginAdmission();
  void endAdmission();

  /// Delivery-time checks, wrapped around the hook invocation:
  /// subscription-mask watchdog, Serial overlap/lane-affinity, payload
  /// liveness of the event's arena handles. \p Lane is the dispatching
  /// lane index or InlineDelivery.
  void beforeDelivery(Tool &T, const Event &E, std::size_t Lane);
  void afterDelivery(Tool &T);

  //===--------------------------------------------------------------------===
  // Payload ledger (arena refcount canaries)
  //===--------------------------------------------------------------------===

  /// Tracks a payload the arena just made resident. \p What is a static
  /// string ("string", "stack", "kernel") used in diagnostics. Each
  /// entry carries a canary derived from the pointer; a stomped canary
  /// is reported as corruption.
  void registerPayload(const void *Payload, const char *What);
  /// Releases a tracked payload: the entry is poisoned, further
  /// releases report PayloadDoubleRelease, and deliveries of events
  /// still holding the handle report PayloadUseAfterRelease. Releasing
  /// an untracked pointer reports PayloadUnknownRelease. This is the
  /// hook the planned arena eviction path retires payloads through;
  /// today nothing in the pipeline releases (payloads are resident for
  /// the arena's lifetime), so any release traffic comes from code
  /// under test.
  void releasePayload(const void *Payload);
  /// True when \p Payload is tracked and not released (test helper).
  bool payloadLive(const void *Payload);

  //===--------------------------------------------------------------------===
  // Flush barriers
  //===--------------------------------------------------------------------===

  /// flush() was entered from a dispatch-lane thread (the processor
  /// skips the wait after reporting — waiting would deadlock).
  void onFlushFromLane();
  /// After waitDrained on lane \p Lane: \p ConsumedTickets must have
  /// reached \p AdmittedTickets (the lane's tail when the barrier
  /// began). The dispatched watermark only rises, which makes this
  /// check race-free under concurrent producers.
  void onFlushBarrier(std::size_t Lane, std::uint64_t AdmittedTickets,
                      std::uint64_t ConsumedTickets);

  ValidatorStats stats() const;

private:
  /// Per-tool contract state. Stable address (held by unique_ptr) so
  /// delivery checks can operate on the atomics outside the map lock.
  struct ToolState {
    Tool *T = nullptr;
    std::string Name;
    EventKindMask Kinds;
    ExecutionModel Model = ExecutionModel::Serial;
    std::size_t PinnedLane = 0;
    /// Hook invocations currently in flight (Serial contract: must
    /// never exceed 1).
    std::atomic<int> Active{0};
    /// Hash of the thread id currently inside a hook (diagnostics).
    std::atomic<std::uint64_t> ActiveThread{0};
    /// Set by beginReconfiguration(), cleared when registerTool()
    /// re-adopts the tool; still-stale entries are retired by
    /// endReconfiguration().
    bool Stale = false;
  };

  struct PayloadEntry {
    std::uint64_t Canary = 0;
    const char *What = "payload";
    bool Released = false;
  };

  static std::uint64_t canaryFor(const void *Payload);
  static std::uint64_t poisonFor(const void *Payload);

  /// Checks the canary of \p It's entry; reports and returns false on a
  /// stomp. Caller holds LedgerMutex.
  bool checkCanary(const void *Payload, const PayloadEntry &Entry);

  /// Reports PayloadUseAfterRelease for every arena handle of \p E
  /// whose ledger entry was released.
  void checkEventPayloads(const Event &E, const ToolState &State);
  void checkPayloadHandle(const void *Payload, const char *What,
                          const ToolState &State);

  ToolState *stateOf(Tool &T);

  mutable std::mutex StateMutex;
  std::unordered_map<const Tool *, std::unique_ptr<ToolState>> Tools;

  mutable std::mutex LedgerMutex;
  std::unordered_map<const void *, PayloadEntry> Ledger;

  std::mutex HandlerMutex;
  Handler OnViolation;

  std::atomic<std::uint64_t> DeliveriesChecked{0};
  std::atomic<std::uint64_t> PayloadsTracked{0};
  std::atomic<std::uint64_t> Violations{0};
  std::atomic<std::uint64_t> SanctionedMigrations{0};
  /// process() calls and record deliveries in flight.
  std::atomic<std::uint64_t> InFlightAdmissions{0};

  /// True between beginReconfiguration() and endReconfiguration()
  /// (guarded by StateMutex alongside the Stale flags it governs).
  bool Reconfiguring = false;
  /// Admissions in flight when the current swap began (StateMutex).
  std::uint64_t OverlappedAdmissions = 0;
};

} // namespace pasta

#endif // PASTA_PASTA_VALIDATE_H
